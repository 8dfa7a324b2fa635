"""Multi-start Newton search for phases that cancel expansion coefficients.

A nullification problem fixes the sequence length N = 2n+1 and an ordered
set of at most n coefficient multi-indices; the unknowns are the n interior
phases of the symmetric pi-pulse train (0, phi_1, ..., phi_n, ..., phi_1,
0).  The residual stacks the real and imaginary parts of the targeted
coefficients.  Newton iterations, line searches and the reported residual
norms all evaluate it in batches through
:func:`expansion.u11_coefficients_batch`, which uses the train's mirror
symmetry: by the reflection identity U = H(-phi)^T G it composes only the
first n+1 pulses (G, and H after n of them) and reads off only the
targeted coefficients.  :func:`residual` is the scalar jet-arithmetic path
over the whole train, used by the catalog check and by the tests to
re-verify solved roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import catalog, expansion, profiler
from .su2 import DOUBLE, TRIPLE, CompositeSequence, ErrorModel, pi_pulse_train
from .su2 import sequence_propagator, transition_probability

__all__ = [
    "NullificationProblem",
    "Root",
    "SolutionSet",
    "symmetric_train",
    "residual",
    "solve",
    "verify_catalog",
]

_CONVERGENCE_TOL = 1e-10
_DEDUP_TOL = 1e-6


@dataclass(frozen=True)
class NullificationProblem:
    n_pulses: int
    targets: tuple[tuple[int, ...], ...]
    model: ErrorModel = DOUBLE
    range_policy: str = "either"  # "either", "0..2pi" or "-pi..pi"

    def __post_init__(self):
        if self.n_pulses < 3 or self.n_pulses % 2 == 0:
            raise ValueError("N must be an odd integer >= 3")
        targets = tuple(tuple(int(i) for i in t) for t in self.targets)
        object.__setattr__(self, "targets", targets)
        if any(len(t) != self.model.num_errors for t in targets):
            raise ValueError("target indices do not match the error model")
        if len(targets) > self.num_unknowns:
            raise ValueError(
                f"{len(targets)} targets exceed the {self.num_unknowns} free phases"
            )
        if self.range_policy not in ("either", "0..2pi", "-pi..pi"):
            raise ValueError(f"unknown range policy {self.range_policy!r}")

    @property
    def num_unknowns(self) -> int:
        return (self.n_pulses - 1) // 2

    @property
    def caps(self) -> tuple[int, ...]:
        return tuple(
            max(1, max(t[i] for t in self.targets)) for i in range(self.model.num_errors)
        )

    def to_jsonable(self) -> dict:
        return {
            "n_pulses": self.n_pulses,
            "model": self.model.kind,
            "targets": [list(t) for t in self.targets],
            "range_policy": self.range_policy,
        }


@dataclass(frozen=True)
class Root:
    """One converged solution; interior phases phi_2..phi_{n+1} in radians."""

    phases: tuple[float, ...]
    residual_norm: float
    in_range: bool
    broadness: float

    @property
    def phases_pi(self) -> tuple[float, ...]:
        return tuple(p / math.pi for p in self.phases)

    def to_jsonable(self) -> dict:
        return {
            "phases_pi": list(self.phases_pi),
            "residual_norm": self.residual_norm,
            "in_range": self.in_range,
            "broadness": self.broadness,
        }


@dataclass(frozen=True)
class SolutionSet:
    solutions: tuple[Root, ...]
    seed_count: int
    rng_seed: int
    converged_seeds: int

    def to_jsonable(self) -> dict:
        return {
            "rng_seed": self.rng_seed,
            "seed_count": self.seed_count,
            "converged_seeds": self.converged_seeds,
            "solutions": [r.to_jsonable() for r in self.solutions],
        }


def symmetric_train(interior_phases_rad) -> CompositeSequence:
    """Symmetric pi-pulse train from its interior phases (radians)."""
    interior = [p / math.pi for p in interior_phases_rad]
    return pi_pulse_train([0.0, *interior, *interior[-2::-1], 0.0])


def residual(phases_rad, problem: NullificationProblem) -> np.ndarray:
    """Stacked (Re, Im) of each targeted coefficient at the given phases,
    through jet arithmetic."""
    phases_rad = np.asarray(phases_rad, dtype=float)
    if phases_rad.shape != (problem.num_unknowns,):
        raise ValueError(
            f"expected {problem.num_unknowns} interior phases, got {phases_rad.shape}"
        )
    seq = symmetric_train(phases_rad)
    table = expansion.expand_u11(seq, problem.model, problem.caps)
    out = np.empty(2 * len(problem.targets))
    for i, t in enumerate(problem.targets):
        c = table.coefficient(t)
        out[2 * i] = c.real
        out[2 * i + 1] = c.imag
    return out


def _full_phase_lists(interior: np.ndarray) -> np.ndarray:
    """(B, n) interior phases -> (B, 2n+1) symmetric full phase lists."""
    batch = interior.shape[0]
    zeros = np.zeros((batch, 1))
    return np.hstack([zeros, interior, interior[:, -2::-1], zeros])


def _batch_residual(interior: np.ndarray, problem: NullificationProblem) -> np.ndarray:
    """Residuals for a batch of interior-phase vectors, shape (B, 2*targets),
    through the batched palindrome kernel."""
    c = expansion.u11_coefficients_batch(
        _full_phase_lists(interior), problem.model, problem.caps, problem.targets
    )
    return np.stack([c.real, c.imag], 2).reshape(len(c), 2 * len(problem.targets))


def _lstsq_steps(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solutions of a stack of systems J x = r.

    `jac` has shape (B, m, n) and `rhs` shape (B, m).  One stacked SVD with
    the cutoff of ``np.linalg.lstsq(rcond=None)``: singular values at or
    below eps * max(m, n) * s_max count as zero.
    """
    u, s, vh = np.linalg.svd(jac, full_matrices=False)
    cutoff = np.finfo(float).eps * max(jac.shape[1:]) * s[:, :1]
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > cutoff)
    coef = np.einsum("bmi,bm->bi", u, rhs) * inv
    return np.einsum("bij,bi->bj", vh, coef)


def _fd_jacobians(problem, x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference Jacobians (B, m, n); all 2n perturbed points of all
    rows go through the batched kernel in one call."""
    batch, n = x.shape
    pts = np.repeat(x[:, None, :], 2 * n, axis=1)
    for j in range(n):
        pts[:, 2 * j, j] += h
        pts[:, 2 * j + 1, j] -= h
    rp = _batch_residual(pts.reshape(-1, n), problem).reshape(batch, 2 * n, -1)
    return ((rp[:, 0::2] - rp[:, 1::2]) / (2 * h)).transpose(0, 2, 1)


# Armijo step lengths 1, 1/2, ..., 2**-11, tried in three stages: a seed
# none of them improves is abandoned.
_STEP_LENGTHS = 0.5 ** np.arange(12)
_STEP_STAGES = (_STEP_LENGTHS[:1], _STEP_LENGTHS[1:4], _STEP_LENGTHS[4:])


def _backtrack(fun, X, R, rn, ia, steps, solvable) -> np.ndarray:
    """Armijo backtracking for the rows `ia` of X, in at most three kernel calls.

    The full step is tried for every solvable row; the rows it fails are
    tried at 2**-1..2**-3 together, and the rows those fail at 2**-4..2**-11.
    Each row takes its longest passing length, as one halving at a time
    would.  Accepted rows of X, R and rn are updated in place; the mask of
    rows with no passing length (or no step) is returned.
    """
    accepted = np.zeros(ia.size, dtype=bool)
    idx = np.where(solvable)[0]
    for lam in _STEP_STAGES:
        if idx.size == 0:
            break
        xn = X[ia[idx], None, :] - lam[None, :, None] * steps[idx, None, :]
        rnew = fun(xn.reshape(-1, X.shape[1])).reshape(idx.size, lam.size, -1)
        rnn = np.linalg.norm(rnew, axis=2)
        good = (rnn < rn[ia[idx], None] * (1.0 - 0.25 * lam)) | (rnn < 1e-13)
        first = np.argmax(good, axis=1)
        hit = np.any(good, axis=1)
        rows, pick = ia[idx[hit]], first[hit]
        X[rows] = xn[hit, pick]
        R[rows] = rnew[hit, pick]
        rn[rows] = rnn[hit, pick]
        accepted[idx[hit]] = True
        idx = idx[~hit]
    return ~accepted


def _newton_batch(problem, seeds: np.ndarray, maxiter: int = 60, h: float = 1e-6):
    """Damped Gauss-Newton on all seeds in lockstep; returns (X, norms)."""
    fun = lambda x: _batch_residual(x, problem)
    X = seeds.copy()
    R = fun(X)
    rn = np.linalg.norm(R, axis=1)
    active = np.ones(seeds.shape[0], dtype=bool)
    for _ in range(maxiter):
        active &= rn >= 1e-13
        ia = np.where(active)[0]
        if ia.size == 0:
            break
        jac = _fd_jacobians(problem, X[ia], h)
        # a non-finite Jacobian abandons its seed instead of the whole batch
        finite = np.all(np.isfinite(jac), axis=(1, 2))
        jac[~finite] = 0.0
        steps = _lstsq_steps(jac, R[ia])
        solvable = finite & np.all(np.isfinite(steps), axis=1)
        # seeds that could not be improved are abandoned
        active[ia[_backtrack(fun, X, R, rn, ia, steps, solvable)]] = False
    return X, rn


def _canonical_signs(X: np.ndarray) -> np.ndarray:
    """Flip each row's sign so its first phase beyond 1e-9 is positive."""
    big = np.abs(X) > 1e-9
    lead = X[np.arange(X.shape[0]), np.argmax(big, axis=1)]
    return np.where((np.any(big, axis=1) & (lead < 0))[:, None], -X, X)


def _distinct_rows(X: np.ndarray, tol: float) -> np.ndarray:
    """Rows of X at least `tol` in max-norm from every earlier kept row."""
    kept = np.empty_like(X)
    count = 0
    for x in X:
        if count == 0 or np.min(np.max(np.abs(kept[:count] - x), axis=1)) >= tol:
            kept[count] = x
            count += 1
    return kept[:count]


def _in_range(phases: np.ndarray, policy: str) -> bool:
    tol = 1e-9
    in_02 = bool(np.all((phases >= -tol) & (phases < 2 * math.pi)))
    in_pm = bool(np.all((phases > -math.pi) & (phases <= math.pi + tol)))
    if policy == "0..2pi":
        return in_02
    if policy == "-pi..pi":
        return in_pm
    return in_02 or in_pm


def _broadness(phases: np.ndarray, problem: NullificationProblem, points: int) -> float:
    """Fraction of the default error grid above 1 - 1e-4 (profile quality)."""
    seq = symmetric_train(phases)
    x, y = profiler.default_axes(problem.model)
    x = profiler.AxisSpec(x.name, x.start, x.stop, points)
    y = profiler.AxisSpec(y.name, y.start, y.stop, points)
    grid = profiler.scan(seq, problem.model, (x, y))
    return float(np.mean(grid.values >= 1.0 - 1e-4))


def solve(
    problem: NullificationProblem,
    multistart: int = 200,
    rng_seed: int = 0,
    broadness_points: int = 81,
) -> SolutionSet:
    """Damped Gauss-Newton from uniform random seeds in (-pi, pi]^n.

    Converged roots are sign-canonicalized, deduplicated at 1e-6 phase
    distance in order of their seeds (never modulo 2*pi: shifted phases
    behave differently under a phase error), flagged against the range
    policy, and sorted by profile broadness, then residual norm.  Identical
    rng_seed and multistart reproduce an identical solution set.
    """
    if multistart < 1:
        raise ValueError("multistart must be >= 1")
    rng = np.random.default_rng(rng_seed)
    n = problem.num_unknowns
    seeds = rng.uniform(-math.pi, math.pi, size=(multistart, n))
    X, rn_all = _newton_batch(problem, seeds)

    ok = rn_all < _CONVERGENCE_TOL
    roots = _distinct_rows(_canonical_signs(X[ok]), _DEDUP_TOL)
    norms = np.linalg.norm(_batch_residual(roots, problem), axis=1)
    solutions = [
        Root(
            phases=tuple(float(v) for v in x),
            residual_norm=float(rn),
            in_range=_in_range(x, problem.range_policy),
            broadness=_broadness(x, problem, broadness_points),
        )
        for x, rn in zip(roots, norms)
    ]
    solutions.sort(key=lambda r: (-r.broadness, r.residual_norm, r.phases))
    return SolutionSet(
        solutions=tuple(solutions),
        seed_count=multistart,
        rng_seed=rng_seed,
        converged_seeds=int(np.count_nonzero(ok)),
    )


# Catalog phases are printed rounded to 1e-4 in units of pi, so a faithful
# entry must lie within half that step (5e-5) of an exact root.  The extra
# 1e-6 is for Phi11a: the exact root nearest its fourth interior phase is
# 0.7175495, 5.05e-5 from the printed 0.7176.
_ROUNDING_RADIUS_PI = 5.1e-5


def _polish_start(problem, printed: np.ndarray) -> np.ndarray:
    """Start of the catalog round-trip's Newton polish.

    An isolated root (as many real constraints as free phases) is polished
    from the printed phases.  Coefficients of palindromic trains are real,
    so U9's one target leaves a single constraint on four phases: its roots
    form a manifold, and the minimum-norm Newton step would find the root
    nearest in 2-norm while the rounding radius bounds the max-norm.  Such a
    polish starts at the max-norm-nearest point of the linearised root set,
    beta * sign(v) / |v|_1.
    """
    if printed.size == 1:
        return printed
    jac = _fd_jacobians(problem, printed[None, :], 1e-6)[0]
    u, s, vh = np.linalg.svd(jac, full_matrices=False)
    if s[1] > 1e-8 * s[0]:  # finite-difference noise sits near 1e-11 * s[0]
        return printed
    beta = -(u[:, 0] @ _batch_residual(printed[None, :], problem)[0]) / s[0]
    return printed + beta * np.sign(vh[0]) / np.sum(np.abs(vh[0]))


@dataclass(frozen=True)
class CatalogCheck:
    """One catalog entry checked against its listed nullified terms.

    `max_abs_coeff` is the raw residual at the printed phases.  Because the
    printed values are rounded to 4 decimals and the phase sensitivity of
    high-order coefficients grows steeply with sequence length (sum_k
    |dc/dphi_k| is O(pi*N) for first-order terms but ~5e3 for the (3,2)
    term of Phi13b), the raw residual reaches ~0.16 for the 13-pulse
    entries even though the table is correct, so it is reported and
    decides nothing.  The authoritative test is the round-trip: polishing
    the printed phases with Newton must land on an exact root (residual <
    1e-10) that rounds back to the printed values.
    """

    name: str
    targets: tuple[tuple[int, ...], ...]
    max_abs_coeff: float
    polish_residual: float
    polish_distance_pi: float
    probability_at_origin: float
    passed: bool


def verify_catalog() -> tuple[CatalogCheck, ...]:
    """Check every catalog entry: p = 1 at zero errors, and its printed
    phases are 4-decimal roundings of an exact root of the listed terms."""
    checks = []
    for name in catalog.names():
        seq = catalog.get_sequence(name)
        targets = catalog.nullified_terms(name)
        max_abs = 0.0
        polish_residual = 0.0
        polish_distance = 0.0
        rounding_ok = True
        if targets:
            model = DOUBLE if len(targets[0]) == 2 else TRIPLE
            problem = NullificationProblem(len(seq), targets, model)
            printed = np.array(seq.phases[1 : 1 + problem.num_unknowns])
            max_abs = float(np.max(np.abs(residual(printed, problem))))
            start = _polish_start(problem, printed)
            polished, rn = _newton_batch(problem, start[None, :])
            polish_residual = float(rn[0])
            polish_distance = float(np.max(np.abs(polished[0] - printed))) / math.pi
            rounding_ok = (
                polish_residual < _CONVERGENCE_TOL
                and polish_distance <= _ROUNDING_RADIUS_PI
            )
        p0 = transition_probability(
            sequence_propagator(seq, DOUBLE, (0.0, 0.0))
        )
        checks.append(
            CatalogCheck(
                name=name,
                targets=targets,
                max_abs_coeff=max_abs,
                polish_residual=polish_residual,
                polish_distance_pi=polish_distance,
                probability_at_origin=p0,
                passed=rounding_ok and abs(p0 - 1.0) < 1e-12,
            )
        )
    return tuple(checks)
