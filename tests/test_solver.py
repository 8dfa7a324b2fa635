import math

import numpy as np
import pytest

import oracles
from phasecomp import catalog, profiler, solver
from phasecomp.su2 import DOUBLE, TRIPLE


def test_problem_validation():
    with pytest.raises(ValueError):
        solver.NullificationProblem(4, ((1, 0),))
    with pytest.raises(ValueError):
        solver.NullificationProblem(3, ((1, 0, 0),))  # triple index, double model
    with pytest.raises(ValueError):
        solver.NullificationProblem(3, ((1, 0), (1, 1)))  # more targets than unknowns
    with pytest.raises(ValueError):
        solver.NullificationProblem(3, ((1, 0),), range_policy="bogus")


def test_problem_caps_cover_targets():
    p = solver.NullificationProblem(5, ((1, 0), (3, 0)))
    assert p.caps == (3, 1)
    assert p.num_unknowns == 2


def test_residual_shape_and_validation():
    p = solver.NullificationProblem(5, ((1, 0), (1, 1)))
    r = solver.residual([0.8 * math.pi, 0.4 * math.pi], p)
    assert r.shape == (4,)
    with pytest.raises(ValueError):
        solver.residual([0.8], p)


def test_batch_residual_matches_scalar():
    p = solver.NullificationProblem(5, ((1, 0), (1, 1)))
    rng = np.random.default_rng(41)
    interior = rng.uniform(-math.pi, math.pi, size=(5, 2))
    batch = solver._batch_residual(interior, p)
    for i in range(5):
        assert np.allclose(batch[i], solver.residual(interior[i], p), atol=1e-12)


def test_batched_steps_match_per_seed_lstsq():
    rng = np.random.default_rng(43)
    jac = rng.standard_normal((6, 8, 4))
    jac[1, :, 3] = jac[1, :, 0]  # rank 3: repeated column
    jac[2] = np.outer(rng.standard_normal(8), rng.standard_normal(4))  # rank 1
    jac[3] = 0.0  # no information: the minimum-norm step is zero
    jac[4, :, 2] *= 1e-17  # a column below the lstsq cutoff
    rhs = rng.standard_normal((6, 8))
    steps = solver._lstsq_steps(jac, rhs)
    for k in range(6):
        want, *_ = np.linalg.lstsq(jac[k], rhs[k], rcond=None)
        assert np.allclose(steps[k], want, rtol=1e-9, atol=1e-12)
    assert np.all(steps[3] == 0.0)


def test_non_finite_jacobian_abandons_only_its_seed(monkeypatch):
    p = solver.NullificationProblem(5, ((1, 0), (1, 1)))
    n = p.num_unknowns
    real = solver._batch_residual
    calls = []

    def poisoned(x, problem):
        out = real(x, problem)
        calls.append(len(x))
        if len(calls) == 2:  # the first Jacobian batch: seed 0 owns its first 2n rows
            out[: 2 * n] = np.nan
        return out

    monkeypatch.setattr(solver, "_batch_residual", poisoned)
    seeds = np.random.default_rng(0).uniform(-math.pi, math.pi, size=(20, n))
    x, rn = solver._newton_batch(p, seeds)
    assert calls[1] == 2 * n * len(seeds)
    assert np.array_equal(x[0], seeds[0]) and np.isfinite(rn[0]) and rn[0] > 1e-3
    converged = np.where(rn < 1e-10)[0]
    assert converged.size >= 5
    for k in converged:
        assert np.linalg.norm(solver.residual(x[k], p)) < 1e-10

    calls.clear()
    sol = solver.solve(p, multistart=20, rng_seed=0)
    assert sol.converged_seeds >= 5
    assert all(r.residual_norm < 1e-10 for r in sol.solutions)


def test_three_pulse_analytic_root():
    p = solver.NullificationProblem(3, ((1, 0),))
    sol = solver.solve(p, multistart=40, rng_seed=0)
    assert sol.solutions
    best = sol.solutions[0]
    assert best.phases_pi[0] == pytest.approx(2 / 3, abs=1e-10)
    assert best.residual_norm < 1e-12


def test_solve_is_deterministic():
    p = solver.NullificationProblem(3, ((1, 0),))
    a = solver.solve(p, multistart=30, rng_seed=5)
    b = solver.solve(p, multistart=30, rng_seed=5)
    assert a == b


def test_roots_are_sign_canonical_and_deduplicated():
    p = solver.NullificationProblem(5, ((1, 0), (1, 1)))
    sol = solver.solve(p, multistart=80, rng_seed=2)
    seen = []
    for root in sol.solutions:
        phases = np.array(root.phases)
        first = next(v for v in phases if abs(v) > 1e-9)
        assert first > 0
        for other in seen:
            assert np.max(np.abs(phases - other)) > 1e-6
        seen.append(phases)


def test_five_pulse_recovers_printed_phases():
    p = solver.NullificationProblem(5, ((1, 0), (1, 1)))
    sol = solver.solve(p, multistart=80, rng_seed=0)
    target = np.array([0.7433, 0.3951])
    hits = [
        r
        for r in sol.solutions
        if np.max(np.abs(np.array(r.phases_pi) - target)) < 1e-3
    ]
    assert hits and hits[0].residual_norm < 1e-10


def test_range_policy_flags():
    p = solver.NullificationProblem(3, ((1, 0),), range_policy="-pi..pi")
    sol = solver.solve(p, multistart=40, rng_seed=0)
    for root in sol.solutions:
        expected = all(-math.pi < v <= math.pi + 1e-9 for v in root.phases)
        assert root.in_range == expected


def test_broadness_ranks_broader_roots_first():
    p = solver.NullificationProblem(3, ((1, 0),))
    sol = solver.solve(p, multistart=40, rng_seed=0)
    bs = [r.broadness for r in sol.solutions]
    assert bs == sorted(bs, reverse=True)
    assert bs[0] > 0


def test_symmetric_train_builds_palindrome():
    seq = solver.symmetric_train([0.8 * math.pi, 0.4 * math.pi])
    assert seq.phases_pi == pytest.approx((0.0, 0.8, 0.4, 0.8, 0.0))
    assert seq.symmetric


def test_verify_catalog_all_pass():
    checks = solver.verify_catalog()
    assert len(checks) == 16
    for c in checks:
        assert c.passed, f"{c.name}: max|c|={c.max_abs_coeff:.3e}"
        assert c.probability_at_origin == pytest.approx(1.0, abs=1e-12)
        # every entry with targets polishes onto an exact root that rounds
        # back to the stored 4-decimal phases
        if c.targets:
            assert c.polish_residual < 1e-10
            assert c.polish_distance_pi <= 5.1e-5


def test_verify_catalog_flat_tolerance_fails_for_long_sequences():
    # the raw residual at 4-decimal phases exceeds a flat 2e-2 for the
    # steep high-order terms of the longest entries, so no flat bound can
    # decide a row; the round-trip check above is the meaningful verification
    by_name = {c.name: c for c in solver.verify_catalog()}
    assert by_name["Phi5"].max_abs_coeff < 2e-2
    assert by_name["Phi7"].max_abs_coeff < 2e-2
    assert by_name["Phi13b"].max_abs_coeff > 2e-2
    assert by_name["Phi13b"].max_abs_coeff == pytest.approx(0.1611, abs=2e-4)


@pytest.mark.parametrize("h", [5e-7, 7e-7, 1e-6, 1.5e-6, 2e-6])
def test_u9_round_trip_does_not_depend_on_the_jacobian_step(h):
    # U9 has one real constraint on four phases; its verdict once flipped
    # with the finite-difference step, through Jacobian rounding noise
    targets = catalog.nullified_terms("U9")
    seq = catalog.get_sequence("U9")
    problem = solver.NullificationProblem(len(seq), targets, DOUBLE)
    printed = np.array(seq.phases[1 : 1 + problem.num_unknowns])
    start = solver._polish_start(problem, printed)
    polished, rn = solver._newton_batch(problem, start[None, :], h=h)
    assert rn[0] < 1e-10
    assert np.max(np.abs(polished[0] - printed)) / math.pi <= 5.1e-5


def test_triple_model_problem_solves():
    # every reported root is a root of the batched kernel's residual
    p = solver.NullificationProblem(3, ((0, 1, 0),), model=TRIPLE)
    sol = solver.solve(p, multistart=30, rng_seed=1)
    for root in sol.solutions:
        assert root.residual_norm < 1e-10


def test_solve_without_a_converged_seed_reports_no_roots():
    p = solver.NullificationProblem(13, ((1, 0), (1, 1), (3, 0), (3, 1), (5, 0), (5, 1)))
    sol = solver.solve(p, multistart=1, rng_seed=1)
    assert sol.converged_seeds == 0 and sol.solutions == ()


def test_solution_set_jsonable():
    p = solver.NullificationProblem(3, ((1, 0),))
    sol = solver.solve(p, multistart=20, rng_seed=3)
    data = sol.to_jsonable()
    assert data["rng_seed"] == 3
    assert data["seed_count"] == 20
    assert all({"phases_pi", "residual_norm", "in_range", "broadness"} <= set(s) for s in data["solutions"])


SMALL_PROBLEMS = (
    solver.NullificationProblem(5, ((1, 0), (1, 1))),
    solver.NullificationProblem(5, ((1, 0, 0), (0, 1, 0)), model=TRIPLE),
)


@pytest.mark.parametrize("problem", SMALL_PROBLEMS)
def test_reported_roots_cross_check(problem):
    # residual_norm comes from the batched kernel; the scalar jet path and a
    # fresh profile scan re-verify every reported root
    sol = solver.solve(problem, multistart=80, rng_seed=0)
    assert len(sol.solutions) >= 5
    x_axis, y_axis = profiler.default_axes(problem.model, 81)
    for root in sol.solutions:
        jet_norm = np.linalg.norm(solver.residual(root.phases, problem))
        assert jet_norm < 1e-10
        assert abs(jet_norm - root.residual_norm) <= 1e-12
        grid = profiler.scan(
            solver.symmetric_train(root.phases), problem.model, (x_axis, y_axis)
        )
        assert root.broadness == np.mean(grid.values >= 1.0 - 1e-4)


@pytest.mark.parametrize("problem", SMALL_PROBLEMS)
def test_two_call_backtracking_matches_sequential_halving(problem):
    n = problem.num_unknowns
    seeds = np.random.default_rng(7).uniform(-math.pi, math.pi, size=(40, n))
    fun = lambda x: solver._batch_residual(x, problem)
    R = fun(seeds)
    rn = np.linalg.norm(R, axis=1)
    steps = solver._lstsq_steps(solver._fd_jacobians(problem, seeds, 1e-6), R)
    steps[::5] *= -1.0  # uphill steps, some of which exhaust every halving
    solvable = np.ones(40, dtype=bool)
    solvable[3] = False
    ia = np.arange(40)
    runs = []
    for backtrack in (solver._backtrack, oracles.sequential_backtrack):
        X, R_run, rn_run = seeds.copy(), R.copy(), rn.copy()
        abandoned = backtrack(fun, X, R_run, rn_run, ia, steps, solvable)
        runs.append((X, R_run, rn_run, abandoned))
    (x, r, norms, abandoned), (x_ref, r_ref, norms_ref, abandoned_ref) = runs
    assert np.array_equal(abandoned, abandoned_ref)
    assert np.allclose(x, x_ref, rtol=0.0, atol=1e-12)
    assert np.allclose(r, r_ref, rtol=0.0, atol=1e-12)
    assert np.allclose(norms, norms_ref, rtol=0.0, atol=1e-12)
    # the unsolvable seed and some uphill seeds took no step; the others
    # took full and shortened steps
    assert abandoned[3] and 2 <= np.count_nonzero(abandoned) < 20
    assert np.array_equal(x[abandoned], seeds[abandoned])
    taken = np.linalg.norm(seeds - x, axis=1) / np.linalg.norm(steps, axis=1)
    lengths = set(np.round(np.log2(taken[~abandoned])).tolist())
    assert 0.0 in lengths and min(lengths) <= -2.0


def test_backtracking_reaches_every_step_length():
    # x[0] moves by lam along the step; the residual drops from 1 to 0.5 once
    # x[0] <= x[1], so row k first passes at lam = 2**-k, and the last row at
    # none of the twelve lengths
    thresholds = np.append(0.5 ** np.arange(12), 0.5**12)
    X0 = np.column_stack([np.zeros(13), thresholds])
    steps = np.tile([-1.0, 0.0], (13, 1))
    fun = lambda x: np.where(x[:, :1] > x[:, 1:], 1.0, 0.5)
    runs = []
    for backtrack in (solver._backtrack, oracles.sequential_backtrack):
        X, R, rn = X0.copy(), np.ones((13, 1)), np.ones(13)
        abandoned = backtrack(fun, X, R, rn, np.arange(13), steps, np.ones(13, bool))
        runs.append((X, rn, abandoned))
        assert abandoned.tolist() == [False] * 12 + [True]
        assert np.array_equal(X[:, 0], np.append(thresholds[:12], 0.0))
        assert rn.tolist() == [0.5] * 12 + [1.0]
    assert all(np.array_equal(a, b) for a, b in zip(*runs))


def test_distinct_roots_match_reference_loop():
    problem = solver.NullificationProblem(5, ((1, 0), (1, 1)))
    seeds = np.random.default_rng(3).uniform(-math.pi, math.pi, size=(200, 2))
    x, rn = solver._newton_batch(problem, seeds)
    converged = x[rn < 1e-10]
    roots = solver._distinct_rows(solver._canonical_signs(converged), 1e-6)
    assert len(converged) >= 5 * len(roots)  # mostly duplicates
    assert np.array_equal(roots, oracles.distinct_roots(converged, 1e-6))


def test_distinct_roots_first_come_and_tolerance():
    tol = 2.0**-20  # offsets below are exact in binary
    rows = np.array(
        [
            [0.0, -1.0],  # leading zero: the sign follows the second phase
            [0.0, 1.0 + 0.75 * tol],  # within tol of the first kept row: dropped
            [0.0, 1.0 + 1.5 * tol],  # within tol of the dropped row only: kept
            [-0.5, 2.0],
            [0.5, -2.0 + tol],  # exactly tol away: kept
            [0.0, 0.0],
        ]
    )
    roots = solver._distinct_rows(solver._canonical_signs(rows), tol)
    assert np.array_equal(roots, oracles.distinct_roots(rows, tol))
    assert roots.tolist() == [
        [0.0, 1.0],
        [0.0, 1.0 + 1.5 * tol],
        [0.5, -2.0],
        [0.5, -2.0 + tol],
        [0.0, 0.0],
    ]
