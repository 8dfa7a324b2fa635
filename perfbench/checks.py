"""Independent checks of the artifacts each command leaves behind.

Nothing here reuses the package's propagators, jets or coefficient kernels.
Propagators are explicit 2x2 matrix products in mpmath, first pulse acting
first; Taylor coefficients come from tensor-product central-difference
stencils on those products at high precision.  From the package only the
catalog's published phases are read, as input data.

Each ``check_*`` function returns ``(errors, facts)``: a list of messages
(empty when the artifact is correct) and counts the harness reports.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from math import comb, factorial, prod
from pathlib import Path

import mpmath
import numpy as np

J = mpmath.mpc(0, 1)

# A root's targeted coefficients, recomputed at its printed phases.  The
# solver's float64 arithmetic leaves ~1e-10 at N=13, so 1e-9 has headroom.
RESIDUAL_TOL = 1e-9
RESIDUAL_DPS = 80
RESIDUAL_STEP = mpmath.mpf("1e-10")
# Roots far from the origin (phases of 100 pi and more) are more sensitive,
# and rounding the phases to float64 alone can leave more than 1e-9.  Such a
# root passes only if one Gauss-Newton step moves no phase by more than
# ROUNDING_REL of its size and lands within POLISHED_TOL of an exact root.
ROUNDING_REL = 1e-14
POLISHED_TOL = 1e-15
JACOBIAN_STEP = mpmath.mpf("1e-15")
# Solver bookkeeping reproduced here, for counters only (never a gate).
DEDUP_TOL_RAD = 1e-6
REPORTED_TOL = 1e-10
REDISCOVERY_TOL_PI = 1e-3
REDISCOVERY = {  # published interior phases (units of pi) and their problem
    "Phi5": (5, ((1, 0), (1, 1)), (0.7433, 0.3951)),
    "Phi9a": (9, ((1, 0), (1, 1), (1, 2), (3, 0)), (0.8095, 0.5444, 1.1007, 0.1715)),
}

GRID_TOL = 1e-12
SAMPLED_NODES = 32
COEFF_SUM_TOL = 2e-10
COEFF_FD_TOL = 1e-6
FD_STEP = 1e-5
SUM_POINT = {"double": (1e-3, 5e-4), "triple": (1e-3, 7e-4, 5e-4)}
DEFAULT_CAPS = {"double": (5, 2), "triple": (5, 5, 2)}
POINTS = 201
AXES = {
    "double": (("alpha", -1.0, 1.0), ("eps", -0.25, 0.25)),
    "triple": (("omega", 0.0, 2.0), ("delta", -1.0, 1.0)),
}
# m = 4 cell fractions pinned by acceptance criteria 8 (double) and 9 (triple).
PINNED_TOL = 1e-9
PINNED = {
    ("B3", 0.0): 0.038984183559812875,
    ("B5a", 0.0): 0.07928021583624167,
    ("Phi5", 0.0): 0.10081433627880498,
    ("Phi7", 0.0): 0.11447736442167274,
    ("Phi9a", 0.0): 0.14353605108784437,
    ("Phi11a", 0.0): 0.2120492067028044,
    ("Phi13a", 0.0): 0.2620974728348308,
    ("U9", 0.0): 0.03170713596198114,
    ("T9", 0.0): 0.011113586297368878,
    ("U9", 0.05): 0.0026979530209648274,
    ("T9", 0.05): 0.010420534145194426,
    ("U9", 0.1): 0.0022029157694116483,
    ("T9", 0.1): 0.005816687705749858,
}
PHI13A_MIN_WIDTHS = (0.4, 0.1)


# -- oracle ----------------------------------------------------------------


def propagator(model: str, phases_pi, errors):
    """(U00, U01) of a nominal pi-pulse train at the given error vector.

    Double model: errors (alpha, eps), pulse area pi(1+alpha).  Triple
    model: errors (alpha, delta, eps), rectangular pulse of unit duration
    with Rabi frequency pi(1+alpha) and detuning pi*delta.  Every phase is
    scaled by (1+eps).  Runs at the caller's mpmath precision.
    """
    errors = [mpmath.mpf(e) for e in errors]
    if model == "double":
        alpha, eps = errors
        half = mpmath.pi * (1 + alpha) / 2
        diag = (mpmath.cos(half), mpmath.cos(half))
        off = -J * mpmath.sin(half)
    else:
        alpha, delta, eps = errors
        rabi, det = mpmath.pi * (1 + alpha), mpmath.pi * delta
        w = mpmath.sqrt(rabi**2 + det**2)
        sin_over_w = mpmath.sinc(w / 2) / 2
        cos = mpmath.cos(w / 2)
        diag = (cos - J * det * sin_over_w, cos + J * det * sin_over_w)
        off = -J * rabi * sin_over_w
    # first row of M_N ... M_1, accumulated from the left
    u00, u01 = 1, 0
    for phase in reversed(phases_pi):
        e = mpmath.expj(mpmath.mpf(phase) * mpmath.pi * (1 + eps))
        p00, p01, p10, p11 = diag[0], off * e, off * mpmath.conj(e), diag[1]
        u00, u01 = u00 * p00 + u01 * p10, u00 * p01 + u01 * p11
    return u00, u01


def taylor_coefficients(f, indices, h):
    """Taylor coefficients of f at the origin, one per multi-index.

    Tensor product of the order-j central difference
    sum_i (-1)^i C(j,i) f(x + (j/2 - i) h) / h^j, accurate to O(h^2);
    evaluations shared between indices are made once.
    """
    values = {}
    out = []
    for idx in indices:
        total = 0
        for picks in itertools.product(*(range(j + 1) for j in idx)):
            key = tuple(j - 2 * i for i, j in zip(picks, idx))  # units of h/2
            if key not in values:
                values[key] = f(tuple(k * h / 2 for k in key))
            total += prod((-1) ** i * comb(j, i) for i, j in zip(picks, idx)) * values[key]
        out.append(total / (h ** sum(idx) * prod(factorial(j) for j in idx)))
    return out


def full_phases(interior_pi) -> tuple:
    interior = tuple(interior_pi)
    return (0.0, *interior, *interior[-2::-1], 0.0)


def _residual(model: str, targets, interior_pi):
    """(Re, Im) of each targeted U11 coefficient, at the caller's precision."""
    phases = full_phases(interior_pi)
    coeffs = taylor_coefficients(lambda e: propagator(model, phases, e)[0], targets, RESIDUAL_STEP)
    return mpmath.matrix([part for c in coeffs for part in (c.real, c.imag)])


def root_residual(model: str, targets, interior_pi) -> float:
    """Norm of the targeted U11 coefficients at the given interior phases."""
    with mpmath.workdps(RESIDUAL_DPS):
        return float(mpmath.norm(_residual(model, targets, interior_pi)))


def rounds_exact_root(model: str, targets, interior_pi) -> bool:
    """Whether the phases are a float64 rounding of an exact root: one
    Gauss-Newton step, with a central-difference Jacobian, moves each phase
    by at most ROUNDING_REL of its size and leaves under POLISHED_TOL."""
    with mpmath.workdps(RESIDUAL_DPS):
        x = [mpmath.mpf(v) for v in interior_pi]
        r = _residual(model, targets, x)
        jac = mpmath.matrix(len(r), len(x))
        for k in range(len(x)):
            plus, minus = list(x), list(x)
            plus[k] += JACOBIAN_STEP
            minus[k] -= JACOBIAN_STEP
            column = (_residual(model, targets, plus) - _residual(model, targets, minus))
            for i in range(len(r)):
                jac[i, k] = column[i] / (2 * JACOBIAN_STEP)
        step, _ = mpmath.qr_solve(jac, r)
        moved = max(abs(s) / max(1, abs(v)) for s, v in zip(step, x))
        polished = [v - s for v, s in zip(x, step)]
        return moved <= ROUNDING_REL and mpmath.norm(_residual(model, targets, polished)) < POLISHED_TOL


def node_probability(model: str, phases_pi, x: float, y: float, eps: float) -> float:
    """Transition probability at one profile grid node."""
    with mpmath.workdps(30):
        if model == "double":
            errors = (x, y)
        else:
            errors = (mpmath.mpf(x) - 1, y, eps)  # x is omega = 1 + alpha
        return float(abs(propagator(model, phases_pi, errors)[1]) ** 2)


# -- artifact checks ------------------------------------------------------


def parse_targets(text: str) -> tuple:
    return tuple(tuple(int(v) for v in chunk.split(",")) for chunk in text.split(";"))


def check_solve(params: dict, data: dict):
    errors = []
    n, seeds = params["n"], params["seeds"]
    targets = parse_targets(params["targets"])
    model = "double" if len(targets[0]) == 2 else "triple"
    problem = data["problem"]
    if (data["command"], data["rng_seed"], data["seed_count"]) != ("solve", params["rng"], seeds):
        errors.append("header does not match the command")
    if (problem["n_pulses"], problem["model"]) != (n, model) or \
            [tuple(t) for t in problem["targets"]] != list(targets):
        errors.append("problem does not match the command")
    converged, roots = data["converged_seeds"], data["solutions"]
    if not 0 <= converged <= seeds:
        errors.append(f"converged_seeds {converged} outside [0, {seeds}]")
    if not roots or len(roots) > converged:
        errors.append(f"{len(roots)} roots reported for {converged} converged seeds")
    distinct = []
    for root in roots:
        phases = root["phases_pi"]
        if len(phases) != (n - 1) // 2:
            errors.append(f"root has {len(phases)} phases")
            continue
        res = root_residual(model, targets, phases)
        if not (res < RESIDUAL_TOL or rounds_exact_root(model, targets, phases)):
            errors.append(f"root {phases} has residual {res:.3e} >= {RESIDUAL_TOL:g}"
                          " and is no float64 rounding of an exact root")
        rad = np.array(phases) * math.pi
        if all(np.max(np.abs(rad - other)) >= DEDUP_TOL_RAD for other in distinct):
            distinct.append(rad)
    rediscovered = sum(
        1 for want_n, want_targets, want in REDISCOVERY.values()
        if (want_n, want_targets) == (n, targets) and any(
            len(r["phases_pi"]) == len(want)
            and max(abs(a - b) for a, b in zip(r["phases_pi"], want)) <= REDISCOVERY_TOL_PI
            for r in roots)
    )
    facts = {
        "seeds": seeds,
        "converged": converged,
        "distinct": len(distinct),
        "reported_over_tol": sum(1 for r in roots if r["residual_norm"] >= REPORTED_TOL),
        "rediscovered": rediscovered,
    }
    return errors, facts


def sample_nodes(seed: int, label: str, nx: int, ny: int) -> list:
    """Grid nodes recomputed for one artifact: the corners, the centre, the
    omega = 0 edge midpoint (the triple model's sinc branch) and a seeded
    random sample."""
    fixed = [(0, 0), (0, ny - 1), (nx - 1, 0), (nx - 1, ny - 1), (nx // 2, ny // 2), (0, ny // 2)]
    rnd = random.Random(f"{seed}:{label}")
    return fixed + [(rnd.randrange(nx), rnd.randrange(ny)) for _ in range(SAMPLED_NODES)]


def read_grid(path: Path, params: dict):
    """(x values, y values, p matrix) from a CSV or JSON grid artifact."""
    model = params["model"]
    (xname, *_), (yname, *_) = AXES[model]
    if path.suffix == ".csv":
        lines = path.read_text().splitlines()
        meta = dict(tok.split("=", 1) for tok in lines[0].lstrip("# ").split())
        if meta != {"seq": params["seq"], "model": model, "rng_seed": str(params["rng"])}:
            raise ValueError(f"CSV header {lines[0]!r} does not match the command")
        if lines[1] != f"{xname},{yname},p":
            raise ValueError(f"CSV columns {lines[1]!r}")
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
        xs, ys = rows[::POINTS, 0], rows[:POINTS, 1]
        if rows.shape != (POINTS * POINTS, 3) or np.any(rows[:, 0] != np.repeat(xs, POINTS)) \
                or np.any(rows[:, 1] != np.tile(ys, POINTS)):
            raise ValueError("CSV rows do not form a grid")
        return xs, ys, rows[:, 2].reshape(POINTS, POINTS)
    data = json.loads(path.read_text())
    want_axes = [{"name": name, "start": lo, "stop": hi, "count": POINTS}
                 for name, lo, hi in AXES[model]]
    if (data["command"], data["rng_seed"], data["seq"], data["model"], data["axes"],
            data["fixed"]) != ("profile", params["rng"], params["seq"], model, want_axes,
                               {"eps": params["eps"]}):
        raise ValueError("JSON grid header does not match the command")
    p = np.array(data["values"], dtype=float)
    if p.shape != (POINTS, POINTS):
        raise ValueError(f"JSON grid has shape {p.shape}")
    return np.linspace(*AXES[model][0][1:], POINTS), np.linspace(*AXES[model][1][1:], POINTS), p


def check_profile(params: dict, grid_path: Path, metrics_path: Path, phases_pi, seed: int):
    errors = []
    model, seq = params["model"], params["seq"]
    xs, ys, p = read_grid(grid_path, params)
    for axis, (_, lo, hi) in zip((xs, ys), AXES[model]):
        if np.max(np.abs(axis - np.linspace(lo, hi, POINTS))) > 1e-15:
            errors.append("grid axes differ from the default axes")
    if not np.all(np.isfinite(p)) or p.min() < -GRID_TOL or p.max() > 1 + GRID_TOL:
        errors.append("grid values outside [0, 1]")
    for i, j in sample_nodes(seed, grid_path.name, POINTS, POINTS):
        want = node_probability(model, phases_pi, xs[i], ys[j], params["eps"])
        if not abs(p[i, j] - want) <= GRID_TOL:
            errors.append(f"node ({i},{j}) holds {p[i, j]!r}, recomputed {want!r}")
    metrics = json.loads(metrics_path.read_text())
    if (metrics["command"], metrics["seq"], metrics["model"], metrics["rng_seed"]) != (
            "profile-metrics", seq, model, params["rng"]):
        errors.append("metrics header does not match the command")
    levels = {lv["m"]: lv for lv in metrics["levels"]}
    if sorted(levels) != [2, 3, 4]:
        errors.append(f"metrics levels {sorted(levels)}")
        return errors, {}
    for m, lv in levels.items():
        count = int(np.count_nonzero(p >= 1.0 - 10.0**-m))
        if lv["level"] != 1.0 - 10.0**-m or lv["cell_fraction"] != count / p.size:
            errors.append(f"m={m}: cell_fraction {lv['cell_fraction']!r}, grid has {count}/{p.size}")
    pinned = PINNED.get((seq, params["eps"]))
    if pinned is not None and not abs(levels[4]["cell_fraction"] - pinned) <= PINNED_TOL:
        errors.append(f"m=4 cell_fraction {levels[4]['cell_fraction']!r}, pinned {pinned!r}")
    if seq == "Phi13a" and not (levels[4]["width_x"] > PHI13A_MIN_WIDTHS[0]
                                and levels[4]["width_y"] > PHI13A_MIN_WIDTHS[1]):
        errors.append(f"Phi13a widths {levels[4]['width_x']}, {levels[4]['width_y']} too small")
    return errors, {}


def check_coeffs(params: dict, data: dict, phases_pi):
    errors = []
    model = params["model"]
    caps = DEFAULT_CAPS[model]
    if (data["command"], data["seq"], data["model"], data["caps"]) != (
            "coeffs", params["seq"], model, list(caps)):
        errors.append("header does not match the command")
    entries = {tuple(e["idx"]): complex(e["re"], e["im"]) for e in data["entries"]}
    if set(entries) != set(itertools.product(*(range(c + 1) for c in caps))):
        errors.append("entries do not cover the caps")
        return errors, {}
    with mpmath.workdps(30):
        point = SUM_POINT[model]
        series = sum(c * prod(mpmath.mpf(x) ** k for x, k in zip(point, idx))
                     for idx, c in entries.items())
        exact = propagator(model, phases_pi, point)[0]
        if not abs(series - exact) <= COEFF_SUM_TOL:
            errors.append(f"series sum at {point} is off by {float(abs(series - exact)):.3e}")
        for v in range(len(caps)):
            step = [0.0] * len(caps)
            step[v] = FD_STEP
            plus = propagator(model, phases_pi, step)[0]
            minus = propagator(model, phases_pi, [-s for s in step])[0]
            idx = tuple(int(i == v) for i in range(len(caps)))
            diff = abs(entries[idx] - (plus - minus) / (2 * FD_STEP))
            if not diff <= COEFF_FD_TOL:
                errors.append(f"entry {idx} is off the central difference by {float(diff):.3e}")
    return errors, {}


def check_verify(stdout: str, data: dict):
    errors = []
    lines = [ln for ln in stdout.splitlines() if ln.strip() and not ln.startswith("wrote ")]
    failing = [ln for ln in lines if not ln.startswith("PASS ")]
    if not lines or failing:
        errors.append(f"verify printed {len(failing)} non-PASS lines of {len(lines)}")
    checks = data["checks"]
    if data["passed"] is not True or not all(c["passed"] is True for c in checks) \
            or len(checks) != len(lines):
        errors.append("verify report is not all-pass")
    return errors, {}


def check_op(op, record: dict, outdir: Path, seed: int, phases_of):
    """Check one command's exit code and artifacts.

    ``phases_of(name)`` returns a catalog sequence's published phases in
    units of pi.  Malformed artifacts are reported as errors, not raised.
    """
    if record["code"] != 0:
        return [f"exit code {record['code']}" + (f": {record['error']}" if record["error"] else "")], {}
    paths = [outdir / name for name in op.artifacts]
    missing = [p.name for p in paths if not p.is_file()]
    if missing:
        return [f"missing artifact {name}" for name in missing], {}
    try:
        if op.kind == "solve":
            return check_solve(op.params, json.loads(paths[0].read_text()))
        if op.kind == "profile":
            return check_profile(op.params, paths[0], paths[1], phases_of(op.params["seq"]), seed)
        if op.kind == "coeffs":
            return check_coeffs(op.params, json.loads(paths[0].read_text()),
                                phases_of(op.params["seq"]))
        if op.kind == "verify":
            return check_verify(record["stdout"], json.loads(paths[0].read_text()))
    except (ValueError, KeyError, TypeError, IndexError, ArithmeticError) as exc:
        return [f"malformed artifact: {type(exc).__name__}: {exc}"], {}
    raise ValueError(f"no check for {op.kind!r}")
