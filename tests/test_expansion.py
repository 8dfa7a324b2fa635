import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from phasecomp import expansion
from phasecomp.su2 import DOUBLE, TRIPLE, pi_pulse_train


def test_default_caps_match_models():
    assert len(expansion.DEFAULT_DOUBLE_CAPS) == 2
    assert len(expansion.DEFAULT_TRIPLE_CAPS) == 3


def test_caps_validation():
    seq = pi_pulse_train([0.0, 2 / 3, 0.0])
    with pytest.raises(ValueError):
        expansion.expand_u11(seq, DOUBLE, (5, 5, 2))


def test_coefficient_index_bounds():
    seq = pi_pulse_train([0.0, 2 / 3, 0.0])
    table = expansion.expand_u11(seq, DOUBLE, (2, 1))
    with pytest.raises(IndexError):
        table.coefficient((3, 0))


def test_zero_order_term_is_u11_at_origin():
    # an odd pi-pulse train transfers perfectly at zero errors: U11(0,0) = 0
    seq = pi_pulse_train([0.0, 2 / 3, 0.0])
    table = expansion.expand_u11(seq, DOUBLE, (1, 1))
    assert abs(table.coefficient((0, 0))) < 1e-14
    # an even train does not: two in-phase pi pulses give |U11| = 1
    table = expansion.expand_u11(pi_pulse_train([0.0, 0.0]), DOUBLE, (1, 1))
    assert abs(table.coefficient((0, 0))) == pytest.approx(1.0, abs=1e-14)


def test_three_pulse_first_order_area_coefficient():
    # the 2*pi/3 interior phase cancels c_{1,0}; equal phases maximize it
    tuned = expansion.expand_u11(pi_pulse_train([0.0, 2 / 3, 0.0]), DOUBLE, (1, 1))
    assert abs(tuned.coefficient((1, 0))) < 1e-13
    plain = expansion.expand_u11(pi_pulse_train([0.0, 0.0, 0.0]), DOUBLE, (1, 1))
    assert abs(plain.coefficient((1, 0))) == pytest.approx(3 * math.pi / 2, abs=1e-12)


def test_low_order_coefficients_match_float_finite_differences():
    seq = pi_pulse_train([0.0, 0.8, 0.4, 0.8, 0.0])
    table = expansion.expand_u11(seq, DOUBLE, (2, 2))

    def f(point):
        return oracles.mp_u11(seq.phases, point, "double")

    import mpmath as mp

    with mp.workdps(30):
        for idx in ((1, 0), (0, 1), (1, 1), (2, 0), (2, 2)):
            ref = oracles.fd_coefficient(f, idx, levels=4)
            assert abs(table.coefficient(idx) - ref) < 1e-9


def test_triple_model_coefficients_match_finite_differences():
    seq = pi_pulse_train([0.0, 2 / 3, 0.0])
    table = expansion.expand_u11(seq, TRIPLE, (2, 2, 1))

    def f(point):
        return oracles.mp_u11(seq.phases, point, "triple")

    import mpmath as mp

    with mp.workdps(30):
        for idx in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 2, 1)):
            ref = oracles.fd_coefficient(f, idx, levels=4)
            assert abs(table.coefficient(idx) - ref) < 1e-9


def test_five_pulse_closed_forms_at_random_phases():
    # c_{1,0} = -(pi/2) [1 + 2cos(p2-p3) + 2cos(2p2-p3)]
    # c_{1,1} =    pi   [(p2-p3) sin(p2-p3) + (2p2-p3) sin(2p2-p3)]
    rng = np.random.default_rng(23)
    for _ in range(10):
        p2, p3 = rng.uniform(-math.pi, math.pi, 2)
        seq = pi_pulse_train([0.0, p2 / math.pi, p3 / math.pi, p2 / math.pi, 0.0])
        table = expansion.expand_u11(seq, DOUBLE, (1, 1))
        f10 = 1 + 2 * math.cos(p2 - p3) + 2 * math.cos(2 * p2 - p3)
        f11 = (p2 - p3) * math.sin(p2 - p3) + (2 * p2 - p3) * math.sin(2 * p2 - p3)
        assert abs(table.coefficient((1, 0)) - (-math.pi / 2) * f10) < 1e-10
        assert abs(table.coefficient((1, 1)) - math.pi * f11) < 1e-10


def test_even_order_report_for_symmetric_train():
    seq = pi_pulse_train([0.0, 0.59, -0.31, -0.57, -0.31, 0.59, 0.0])
    report = expansion.check_even_j(seq, DOUBLE)
    assert report.ok
    assert all(v < 1e-10 for j, v in report.max_abs.items() if j >= 2)


def test_even_order_vanishing_holds_for_any_odd_pi_train():
    # for exact pi areas each pulse has a odd and b even in alpha, so
    # U11(-alpha) = -U11(alpha) for any odd-length train -- phase symmetry
    # is not needed; only the area structure matters
    t = expansion.expand_u11(pi_pulse_train([0.0, 0.3, 0.7, 0.1, 0.0]), DOUBLE, (2, 2))
    assert max(abs(c) for i, c in t.entries.items() if i[0] == 2) < 1e-12


def test_even_order_breaks_without_pi_areas_or_odd_length():
    from phasecomp.su2 import CompositeSequence, PulseSpec

    pulses = tuple(
        PulseSpec(area=a * math.pi, phase=p * math.pi)
        for a, p in [(1, 0.0), (0.6, 0.3), (1, 0.7), (0.6, 0.1), (1, 0.0)]
    )
    t = expansion.expand_u11(CompositeSequence(pulses=pulses), DOUBLE, (2, 2))
    assert max(abs(c) for i, c in t.entries.items() if i[0] == 2) > 1e-3
    t = expansion.expand_u11(pi_pulse_train([0.0, 0.3, 0.7, 0.1]), DOUBLE, (2, 2))
    assert max(abs(c) for i, c in t.entries.items() if i[0] == 2) > 1e-3


def test_even_order_check_rejects_asymmetric():
    with pytest.raises(ValueError):
        expansion.check_even_j(pi_pulse_train([0.0, 0.5, 0.3, 0.0]), DOUBLE)


def random_palindromes(rng, batch, n_pulses):
    """(batch, n_pulses) palindromic phase lists, outer phases included."""
    half = rng.uniform(-math.pi, math.pi, size=(batch, n_pulses // 2 + 1))
    return np.hstack([half, half[:, -2::-1]])


def all_indices(caps):
    return tuple(np.ndindex(*(c + 1 for c in caps)))


def test_batched_path_matches_jet_path_double():
    rng = np.random.default_rng(29)
    targets = all_indices((3, 2))
    for batch in (0, 1, 3):
        phases = random_palindromes(rng, batch, 7)
        got = expansion.u11_coefficients_batch(phases, DOUBLE, (3, 2), targets)
        assert got.shape == (batch, len(targets))
        loop = oracles.pulse_by_pulse_u11_batch(phases, DOUBLE, (3, 2))
        for i in range(batch):
            table = expansion.expand_u11(
                pi_pulse_train(phases[i] / math.pi), DOUBLE, (3, 2)
            )
            for t, idx in enumerate(targets):
                assert abs(got[i, t] - table.entries[idx]) < 1e-12
                assert abs(got[i, t] - loop[(i,) + idx]) < 1e-12


def test_batched_path_matches_jet_path_triple():
    rng = np.random.default_rng(31)
    targets = all_indices((2, 2, 1))
    for batch in (0, 1, 3):
        phases = random_palindromes(rng, batch, 5)
        got = expansion.u11_coefficients_batch(phases, TRIPLE, (2, 2, 1), targets)
        assert got.shape == (batch, len(targets))
        loop = oracles.pulse_by_pulse_u11_batch(phases, TRIPLE, (2, 2, 1))
        for i in range(batch):
            table = expansion.expand_u11(
                pi_pulse_train(phases[i] / math.pi), TRIPLE, (2, 2, 1)
            )
            for t, idx in enumerate(targets):
                assert abs(got[i, t] - table.entries[idx]) < 1e-12
                assert abs(got[i, t] - loop[(i,) + idx]) < 1e-12


@pytest.mark.parametrize("batch", [0, 1, 3])
@pytest.mark.parametrize(
    "model, caps, n_pulses",
    [
        (DOUBLE, (5, 1), 13),
        (DOUBLE, (3, 2), 9),
        (DOUBLE, (5, 2), 13),
        (TRIPLE, (3, 1, 1), 9),
        (TRIPLE, (5, 5, 2), 9),
    ],
)
def test_batched_kernel_matches_jet_path_at_solver_caps(model, caps, n_pulses, batch):
    # the caps the solver and the CLI use; coefficients reach ~4e5 at (5,5,2),
    # so agreement is judged relative to the largest one of each train
    rng = np.random.default_rng(10 * n_pulses + sum(caps) + batch)
    phases = random_palindromes(rng, batch, n_pulses)
    targets = all_indices(caps)
    got = expansion.u11_coefficients_batch(phases, model, caps, targets)
    assert got.shape == (batch, len(targets))
    loop = oracles.pulse_by_pulse_u11_batch(phases, model, caps).reshape(batch, len(targets))
    for row, loop_row, train in zip(got, loop, phases):
        table = expansion.expand_u11(pi_pulse_train(train / math.pi), model, caps)
        want = np.array([table.entries[idx] for idx in targets])
        assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(row - loop_row)) <= 1e-12 * np.max(np.abs(want))


def test_batched_kernel_rejects_even_and_asymmetric_trains():
    targets = ((1, 0),)
    with pytest.raises(ValueError, match="odd"):
        expansion.u11_coefficients_batch(np.zeros((2, 4)), DOUBLE, (1, 1), targets)
    asymmetric = np.array([[0.0, 0.3, 0.7, 0.3, 0.0], [0.0, 0.3, 0.7, 0.4, 0.0]])
    with pytest.raises(ValueError, match="palindromic"):
        expansion.u11_coefficients_batch(asymmetric, DOUBLE, (1, 1), targets)
    with pytest.raises(ValueError, match="outside caps"):
        expansion.u11_coefficients_batch(np.zeros((1, 5)), DOUBLE, (1, 1), ((2, 0),))


@settings(max_examples=40, deadline=None)
@given(
    triple=st.booleans(),
    n_pulses=st.sampled_from([1, 3, 5, 7, 9, 11, 13]),
    batch=st.integers(0, 3),
    caps=st.tuples(st.integers(1, 4), st.integers(1, 2), st.integers(1, 2)),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 40.0]),
)
def test_batched_kernel_equals_pulse_loop(triple, n_pulses, batch, caps, seed, scale):
    # random palindromes, phases up to 40 pi, every coefficient as a target
    # in a random order
    model, caps = (TRIPLE, caps) if triple else (DOUBLE, (caps[0], caps[2]))
    rng = np.random.default_rng(seed)
    phases = scale * random_palindromes(rng, batch, n_pulses)
    targets = all_indices(caps)
    order = rng.permutation(len(targets))
    targets = tuple(targets[k] for k in order)
    got = expansion.u11_coefficients_batch(phases, model, caps, targets)
    loop = oracles.pulse_by_pulse_u11_batch(phases, model, caps).reshape(batch, len(targets))
    want = loop[:, order]
    assert got.shape == want.shape
    for row, ref in zip(got, want):
        assert np.max(np.abs(row - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_table_jsonable_roundtrip_shape():
    seq = pi_pulse_train([0.0, 2 / 3, 0.0])
    table = expansion.expand_u11(seq, DOUBLE, (1, 1))
    data = table.to_jsonable()
    assert data["caps"] == [1, 1]
    assert len(data["entries"]) == 4
    assert {"idx", "re", "im"} <= set(data["entries"][0])
