import math

import numpy as np
import pytest

from phasecomp import solver
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
    # the raw residual at 4-decimal phases exceeds the flat 2e-2 for the
    # steep high-order terms of the longest entries; the round-trip check
    # above is the meaningful verification
    by_name = {c.name: c for c in solver.verify_catalog()}
    assert by_name["Phi5"].flat_tol_ok
    assert by_name["Phi7"].flat_tol_ok
    assert not by_name["Phi13b"].flat_tol_ok
    assert by_name["Phi13b"].max_abs_coeff == pytest.approx(0.1611, abs=2e-4)


def test_triple_model_problem_solves():
    # every reported root must survive re-verification through the jet path
    p = solver.NullificationProblem(3, ((0, 1, 0),), model=TRIPLE)
    sol = solver.solve(p, multistart=30, rng_seed=1)
    for root in sol.solutions:
        assert root.residual_norm < 1e-10


def test_solution_set_jsonable():
    p = solver.NullificationProblem(3, ((1, 0),))
    sol = solver.solve(p, multistart=20, rng_seed=3)
    data = sol.to_jsonable()
    assert data["rng_seed"] == 3
    assert data["seed_count"] == 20
    assert all({"phases_pi", "residual_norm", "in_range", "broadness"} <= set(s) for s in data["solutions"])
