import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasecomp import jets

CAPS = (3, 2)

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def random_jet(rng, caps=CAPS):
    shape = tuple(c + 1 for c in caps)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return jets.Jet(coeffs)


def jet_allclose(a, b, tol=1e-12):
    return np.allclose(a.coeffs, b.coeffs, atol=tol)


def test_constant_and_variable():
    c = jets.constant(2.5, CAPS)
    assert c.constant_term == 2.5
    assert c.coefficient((1, 0)) == 0.0
    x = jets.variable(0, 1.5, CAPS)
    assert x.constant_term == 1.5
    assert x.coefficient((1, 0)) == 1.0
    assert x.coefficient((0, 1)) == 0.0


def test_variable_index_range():
    with pytest.raises(IndexError):
        jets.variable(2, 0.0, CAPS)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_ring_laws(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_jet(rng) for _ in range(3))
    assert jet_allclose(a * (b + c), a * b + a * c)
    assert jet_allclose(a * b, b * a)
    assert jet_allclose((a * b) * c, a * (b * c))
    assert jet_allclose(a - a, jets.constant(0.0, CAPS))


@given(finite, finite)
@settings(max_examples=25, deadline=None)
def test_pythagorean_identity(origin0, origin1):
    s = jets.variable(0, origin0, CAPS) + 0.5 * jets.variable(1, origin1, CAPS)
    one = jets.sin(s) * jets.sin(s) + jets.cos(s) * jets.cos(s)
    assert jet_allclose(one, jets.constant(1.0, CAPS))


def test_sin_coefficients_match_taylor_series():
    x = jets.variable(0, 0.0, (5,))
    s = jets.sin(x)
    expected = [0.0, 1.0, 0.0, -1 / 6, 0.0, 1 / 120]
    for k, e in enumerate(expected):
        assert s.coefficient((k,)) == pytest.approx(e, abs=1e-15)


def test_exp_i_equals_cos_plus_i_sin():
    rng = np.random.default_rng(11)
    s = random_jet(rng)
    # exp(i s) needs a well-defined constant term; force it real
    s = s - jets.constant(s.constant_term, CAPS) + jets.constant(0.7, CAPS)
    assert jet_allclose(jets.exp_i(s), jets.cos(s) + 1j * jets.sin(s))


def test_sqrt_squares_back():
    x = jets.variable(0, 0.0, CAPS)
    y = jets.variable(1, 0.0, CAPS)
    s = jets.constant(4.0, CAPS) + x + 0.3 * y + 0.1 * x * y
    r = jets.sqrt(s)
    assert jet_allclose(r * r, s)
    assert r.constant_term == pytest.approx(2.0)


def test_sqrt_requires_positive_real_constant():
    with pytest.raises(ValueError):
        jets.sqrt(jets.variable(0, 0.0, CAPS))  # zero constant term
    with pytest.raises(ValueError):
        jets.sqrt(jets.constant(-1.0, CAPS))
    with pytest.raises(ValueError):
        jets.sqrt(jets.constant(1.0 + 1.0j, CAPS))


def test_inverse_multiplies_to_one():
    rng = np.random.default_rng(13)
    s = random_jet(rng) + jets.constant(5.0, CAPS)
    assert jet_allclose(s * jets.inverse(s), jets.constant(1.0, CAPS))
    assert jet_allclose(s / s, jets.constant(1.0, CAPS))


def test_inverse_rejects_zero_constant():
    with pytest.raises(ZeroDivisionError):
        jets.inverse(jets.variable(0, 0.0, CAPS))


def test_scalar_coercion_and_negation():
    x = jets.variable(0, 0.0, CAPS)
    assert jet_allclose(1 + x - 1, x)
    assert jet_allclose(2 * x, x + x)
    assert jet_allclose(-(-x), x)
    assert jet_allclose(x / 2, 0.5 * x)


def test_conjugate():
    rng = np.random.default_rng(17)
    s = random_jet(rng)
    assert np.allclose(s.conjugate().coeffs, np.conj(s.coeffs))


def test_truncation_is_consistent():
    # (x + y)^4 truncated at caps (3, 2) keeps only the mixed surviving terms
    x = jets.variable(0, 0.0, CAPS)
    y = jets.variable(1, 0.0, CAPS)
    p = (x + y) * (x + y) * (x + y) * (x + y)
    assert p.coefficient((3, 1)) == pytest.approx(4.0)
    assert p.coefficient((2, 2)) == pytest.approx(6.0)
    assert p.coefficient((3, 0)) == 0.0  # the x^4 part fell outside the caps


def test_composition_around_nonzero_origin():
    # cos lifted at origin t0: coefficients are derivatives of cos at t0
    t0 = 0.9
    x = jets.variable(0, t0, (4,))
    c = jets.cos(x)
    derivs = [math.cos(t0), -math.sin(t0), -math.cos(t0), math.sin(t0), math.cos(t0)]
    for k, d in enumerate(derivs):
        assert c.coefficient((k,)) == pytest.approx(d / math.factorial(k), abs=1e-14)


def direct_product(a, b):
    """Truncated product by a double loop over both operands' multi-indices."""
    out = np.zeros_like(a)
    for i in np.ndindex(a.shape):
        for j in np.ndindex(b.shape):
            k = tuple(x + y for x, y in zip(i, j))
            if all(x < n for x, n in zip(k, a.shape)):
                out[k] += a[i] * b[j]
    return out


@pytest.mark.parametrize("shape", [(6, 3), (6, 6, 3)])
@pytest.mark.parametrize("density", [1.0, 0.2])
def test_mul_coeffs_matches_direct_double_loop(shape, density):
    rng = np.random.default_rng(len(shape) + int(10 * density))

    def operand():
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return coeffs * (rng.random(shape) < density)

    a, b = operand(), operand()
    got = jets._mul_coeffs(a, b)
    want = direct_product(a, b)
    assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))
