"""Error-plane scans of the transition probability and contour-region metrics.

Axes are named after the physical parameter they sweep:

    alpha  relative pulse-area / Rabi-frequency error
    eps    relative phase error
    omega  Rabi frequency over its nominal value (alpha = omega - 1)
    delta  detuning over the nominal Rabi frequency

The default double-model grid is alpha in [-1, 1] x eps in [-0.25, 0.25];
the default triple-model grid is omega in [0, 2] x delta in [-1, 1] at fixed
eps.  Figure axis ranges are not published, so these defaults are generous
artifact choices covering the quoted tolerance claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .su2 import CompositeSequence, ErrorModel

__all__ = [
    "AxisSpec",
    "ProfileGrid",
    "RegionMetrics",
    "LEVELS",
    "default_axes",
    "probability",
    "scan",
    "region_metrics",
    "compare",
    "grid_to_csv",
    "grid_to_jsonable",
]

_AXIS_NAMES = ("alpha", "eps", "omega", "delta")
_AXIS_ORIGIN = {"alpha": 0.0, "eps": 0.0, "omega": 1.0, "delta": 0.0}

# Contour levels 1 - 10^-m for m = 2, 3, 4.
LEVELS = tuple((m, 1.0 - 10.0**-m) for m in (2, 3, 4))


@dataclass(frozen=True)
class AxisSpec:
    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in _AXIS_NAMES:
            raise ValueError(f"unknown axis {self.name!r}")
        if self.count < 2:
            raise ValueError("axis needs at least 2 points")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)

    @property
    def origin(self) -> float:
        return _AXIS_ORIGIN[self.name]

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "stop": self.stop,
            "count": self.count,
        }


@dataclass(frozen=True)
class ProfileGrid:
    seq: CompositeSequence
    model: ErrorModel
    x: AxisSpec
    y: AxisSpec
    fixed: dict
    values: np.ndarray  # shape (x.count, y.count)


@dataclass(frozen=True)
class RegionMetrics:
    """Per-level grid fraction and origin-line interval widths."""

    # maps m -> value, for the levels 1 - 10^-m
    cell_fraction: dict
    width_x: dict
    width_y: dict

    def to_jsonable(self) -> dict:
        return {
            "levels": [
                {
                    "m": m,
                    "level": level,
                    "cell_fraction": self.cell_fraction[m],
                    "width_x": self.width_x[m],
                    "width_y": self.width_y[m],
                }
                for m, level in LEVELS
            ]
        }


def default_axes(model: ErrorModel, points: int = 201) -> tuple[AxisSpec, AxisSpec]:
    if model.kind == "double":
        return (
            AxisSpec("alpha", -1.0, 1.0, points),
            AxisSpec("eps", -0.25, 0.25, points),
        )
    return (
        AxisSpec("omega", 0.0, 2.0, points),
        AxisSpec("delta", -1.0, 1.0, points),
    )


def _error_fields(model: ErrorModel, assignments: dict):
    """Map axis-name assignments to (alpha, delta, eps) arrays/scalars."""
    alpha = assignments.get("alpha", 0.0)
    if "omega" in assignments:
        if "alpha" in assignments:
            raise ValueError("give either alpha or omega, not both")
        alpha = assignments["omega"] - 1.0
    eps = assignments.get("eps", 0.0)
    delta = assignments.get("delta", 0.0)
    if model.kind == "double" and np.any(np.asarray(delta) != 0.0):
        raise ValueError("the double model has no detuning axis")
    return alpha, delta, eps


def probability(seq: CompositeSequence, model: ErrorModel, alpha, delta, eps):
    """Vectorized transition probability; arguments broadcast together.

    A pulse's factors apart from its phase depend only on the pulse with its
    phase zeroed, so pulses that differ only in phase share one evaluation.
    """
    shape = np.broadcast(np.asarray(alpha), np.asarray(delta), np.asarray(eps)).shape
    a = np.ones(shape, dtype=complex)
    b = np.zeros(shape, dtype=complex)
    phase_scale = 1.0 + np.asarray(eps)
    factors = {}  # phase-free pulse -> (pa, pb at zero phase)
    for pulse in seq.pulses:
        key = replace(pulse, phase=0.0)
        if key not in factors:
            factors[key] = _phase_free_factors(pulse, model, alpha, delta)
        pa, pb0 = factors[key]
        pb = pb0 * np.exp(1j * pulse.phase * phase_scale)
        a, b = pa * a - pb * np.conj(b), pa * b + pb * np.conj(a)
    return np.abs(b) ** 2


def _phase_free_factors(pulse, model: ErrorModel, alpha, delta):
    """(a, b / exp(i*phase*(1+eps))) of one pulse's Cayley-Klein pair."""
    if model.kind == "double":
        half = 0.5 * pulse.area * (1.0 + np.asarray(alpha))
        return np.cos(half).astype(complex), -1j * np.sin(half)
    om = pulse.rabi * (1.0 + np.asarray(alpha))
    de = pulse.detuning + model.nominal_rabi * np.asarray(delta)
    w = np.hypot(om, de)
    half = 0.5 * w * pulse.duration
    small = w * pulse.duration < 1e-8
    w_safe = np.where(small, 1.0, w)
    sin_over_w = np.where(
        small,
        0.5 * pulse.duration * (1.0 - half * half / 6.0),
        np.sin(half) / w_safe,
    )
    return np.cos(half) - 1j * de * sin_over_w, -1j * om * sin_over_w


def scan(
    seq: CompositeSequence,
    model: ErrorModel,
    axes: tuple[AxisSpec, AxisSpec] | None = None,
    fixed: dict | None = None,
) -> ProfileGrid:
    """Probability at every node of a 2D error-parameter grid."""
    if axes is None:
        axes = default_axes(model)
    x, y = axes
    if x.name == y.name:
        raise ValueError("scan axes must differ")
    fixed = dict(fixed or {})
    assignments = dict(fixed)
    assignments[x.name] = x.values()[:, None]
    assignments[y.name] = y.values()[None, :]
    alpha, delta, eps = _error_fields(model, assignments)
    values = probability(seq, model, alpha, delta, eps)
    return ProfileGrid(seq=seq, model=model, x=x, y=y, fixed=fixed, values=values)


def _origin_line_widths(
    grid: ProfileGrid, axis: AxisSpec, other: AxisSpec, tol: float = 1e-4
) -> dict:
    """Length of the super-level interval along `axis` through the origin, per m.

    The other scanned variable sits at its origin.  Each interval is bracketed
    on the scan nodes and its edges are refined by bisection to `tol` axis
    units; it is clipped at the scan range.  One probability call evaluates
    the nodes and the origin, and every edge of every level is bisected
    together, one call per step.
    """

    def f(t: np.ndarray) -> np.ndarray:
        assignments = dict(grid.fixed)
        assignments[axis.name] = t
        assignments[other.name] = other.origin
        return probability(grid.seq, grid.model, *_error_fields(grid.model, assignments))

    t = axis.values()
    last = len(t) - 1
    p = f(np.append(t, axis.origin))
    p_origin, p = p[-1], p[:-1]
    i0 = int(np.argmin(np.abs(t - axis.origin)))
    bounds = {}  # m -> [lo, hi]
    edges = []  # (m, side, inside, outside, level) of each edge left to bisect
    for m, level in LEVELS:
        if p_origin < level:
            continue
        if p[i0] < level:
            # nearest node already below the level: the region is narrower than
            # one cell; bisect between the origin and its neighbours directly
            brackets = ((axis.origin, max(i0 - 1, 0)), (axis.origin, min(i0 + 1, last)))
        else:
            i_lo = i0
            while i_lo > 0 and p[i_lo - 1] >= level:
                i_lo -= 1
            i_hi = i0
            while i_hi < last and p[i_hi + 1] >= level:
                i_hi += 1
            brackets = ((t[i_lo], i_lo - 1), (t[i_hi], i_hi + 1))
        bounds[m] = [0.0, 0.0]
        for side, (inside, out) in enumerate(brackets):
            if not 0 <= out <= last:
                bounds[m][side] = inside  # clipped at the scan range
            elif p[out] >= level:
                bounds[m][side] = t[out]
            else:
                edges.append((m, side, inside, t[out], level))
    if edges:
        m_of, side_of, inside, outside, level_of = (np.array(c) for c in zip(*edges))
        todo = np.abs(outside - inside) > tol
        while todo.any():
            mid = 0.5 * (inside[todo] + outside[todo])
            above = f(mid) >= level_of[todo]
            inside[todo] = np.where(above, mid, inside[todo])
            outside[todo] = np.where(above, outside[todo], mid)
            todo = np.abs(outside - inside) > tol
        for m, side, edge in zip(m_of.tolist(), side_of.tolist(), 0.5 * (inside + outside)):
            bounds[m][side] = edge
    return {m: float(bounds[m][1] - bounds[m][0]) if m in bounds else 0.0 for m, _ in LEVELS}


def region_metrics(grid: ProfileGrid) -> RegionMetrics:
    """Super-level cell fractions and origin-line widths for m = 2, 3, 4."""
    cell_fraction = {m: float(np.mean(grid.values >= level)) for m, level in LEVELS}
    width_x = _origin_line_widths(grid, grid.x, grid.y)
    width_y = _origin_line_widths(grid, grid.y, grid.x)
    return RegionMetrics(cell_fraction=cell_fraction, width_x=width_x, width_y=width_y)


@dataclass(frozen=True)
class ComparisonReport:
    fraction_a: dict
    fraction_b: dict
    fraction_diff: dict  # a - b, per m
    max_abs_dp: float

    def to_jsonable(self) -> dict:
        return {
            "levels": [
                {
                    "m": m,
                    "cell_fraction_a": self.fraction_a[m],
                    "cell_fraction_b": self.fraction_b[m],
                    "cell_fraction_diff": self.fraction_diff[m],
                }
                for m, _ in LEVELS
            ],
            "max_abs_dp": self.max_abs_dp,
        }


def compare(
    seq_a: CompositeSequence,
    seq_b: CompositeSequence,
    model: ErrorModel,
    axes: tuple[AxisSpec, AxisSpec] | None = None,
    fixed: dict | None = None,
) -> ComparisonReport:
    """Scan both sequences on the same grid and compare their level regions."""
    ga = scan(seq_a, model, axes, fixed)
    gb = scan(seq_b, model, axes, fixed)
    fa = {m: float(np.mean(ga.values >= level)) for m, level in LEVELS}
    fb = {m: float(np.mean(gb.values >= level)) for m, level in LEVELS}
    return ComparisonReport(
        fraction_a=fa,
        fraction_b=fb,
        fraction_diff={m: fa[m] - fb[m] for m, _ in LEVELS},
        max_abs_dp=float(np.max(np.abs(ga.values - gb.values))),
    )


def grid_to_csv(grid: ProfileGrid, header_extra: str = "") -> str:
    """CSV dump with stable column order x, y, p (x varies slowest)."""
    lines = []
    fixed = " ".join(f"{k}={v:g}" for k, v in sorted(grid.fixed.items()))
    meta = f"# seq={grid.seq.label} model={grid.model.kind}"
    if fixed:
        meta += f" {fixed}"
    if header_extra:
        meta += f" {header_extra}"
    lines.append(meta)
    lines.append(f"{grid.x.name},{grid.y.name},p")
    xs = [f"{v:.17g}," for v in grid.x.values().tolist()]
    ys = [f"{v:.17g}," for v in grid.y.values().tolist()]
    for xi, row in zip(xs, grid.values):
        lines.extend(f"{xi}{yj}{v:.17g}" for yj, v in zip(ys, row.tolist()))
    return "\n".join(lines) + "\n"


def grid_to_jsonable(grid: ProfileGrid) -> dict:
    return {
        "seq": grid.seq.label,
        "model": grid.model.kind,
        "axes": [grid.x.to_jsonable(), grid.y.to_jsonable()],
        "fixed": dict(sorted(grid.fixed.items())),
        "values": grid.values.tolist(),
    }
