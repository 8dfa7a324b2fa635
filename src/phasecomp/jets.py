"""Truncated multivariate power series ("jets") with complex coefficients.

A :class:`Jet` stores the Taylor coefficients of a smooth function of two or
three real variables around a fixed origin, up to a per-variable order cap.
Arithmetic and elementary functions propagate the coefficients exactly (to
floating-point rounding), so mixed partial derivatives come out to machine
precision without symbolic differentiation or finite-difference noise.

Storage is a dense complex array of shape ``caps + 1``; the caps used in this
package never exceed 6x6x3, so dense is both simpler and faster than sparse.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

__all__ = [
    "Jet",
    "constant",
    "variable",
    "sin",
    "cos",
    "exp_i",
    "sqrt",
    "inverse",
]


@functools.lru_cache(maxsize=None)
def _conv_table(shape: tuple[int, ...]):
    """Flat (i, j, i+j) triples of every pair of in-cap multi-indices whose
    sum is also in cap: the whole sparsity pattern of a truncated product."""
    idx = np.indices(shape).reshape(len(shape), -1).T
    total = idx[:, None, :] + idx[None, :, :]
    i, j = np.nonzero(np.all(total < np.array(shape), axis=-1))
    k = np.ravel_multi_index(tuple(total[i, j].T), shape)
    for arr in (i, j, k):
        arr.setflags(write=False)  # cached: shared by every caller
    return i, j, k


def _mul_coeffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated convolution of two coefficient arrays of identical shape."""
    i, j, k = _conv_table(a.shape)
    terms = a.ravel()[i] * b.ravel()[j]
    size = a.size
    out = np.bincount(k, terms.real, minlength=size) + 1j * np.bincount(
        k, terms.imag, minlength=size
    )
    return out.reshape(a.shape)


class Jet:
    """Multivariate truncated power series with complex coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=complex)

    # -- structure ---------------------------------------------------------

    @property
    def caps(self) -> tuple[int, ...]:
        return tuple(n - 1 for n in self.coeffs.shape)

    @property
    def num_vars(self) -> int:
        return self.coeffs.ndim

    @property
    def constant_term(self) -> complex:
        return complex(self.coeffs[(0,) * self.coeffs.ndim])

    def coefficient(self, index) -> complex:
        """Taylor coefficient at a multi-index (derivative / j!k!...)."""
        index = tuple(int(i) for i in index)
        if len(index) != self.num_vars:
            raise IndexError(f"index {index} has wrong length for {self.num_vars} variables")
        if any(i < 0 or i > c for i, c in zip(index, self.caps)):
            raise IndexError(f"index {index} outside caps {self.caps}")
        return complex(self.coeffs[index])

    def conjugate(self) -> "Jet":
        # Valid because the expansion variables are real.
        return Jet(np.conj(self.coeffs))

    # -- ring arithmetic ---------------------------------------------------

    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, Jet):
            if other.coeffs.shape != self.coeffs.shape:
                raise ValueError(f"shape mismatch: {self.caps} vs {other.caps}")
            return other.coeffs
        arr = np.zeros_like(self.coeffs)
        arr[(0,) * self.coeffs.ndim] = complex(other)
        return arr

    def __add__(self, other):
        return Jet(self.coeffs + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Jet(self.coeffs - self._coerce(other))

    def __rsub__(self, other):
        return Jet(self._coerce(other) - self.coeffs)

    def __neg__(self):
        return Jet(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Jet):
            if other.coeffs.shape != self.coeffs.shape:
                raise ValueError(f"shape mismatch: {self.caps} vs {other.caps}")
            return Jet(_mul_coeffs(self.coeffs, other.coeffs))
        return Jet(self.coeffs * complex(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * inverse(other)
        return Jet(self.coeffs / complex(other))

    def __rtruediv__(self, other):
        return inverse(self) * other

    def __repr__(self):
        return f"Jet(caps={self.caps}, const={self.constant_term:.6g})"


def constant(value, caps) -> Jet:
    """Series equal to a constant."""
    coeffs = np.zeros(tuple(c + 1 for c in caps), dtype=complex)
    coeffs[(0,) * len(caps)] = complex(value)
    return Jet(coeffs)


def variable(index: int, origin: float, caps) -> Jet:
    """Lift variable `index` around `origin`: the series origin + x_index."""
    if not 0 <= index < len(caps):
        raise IndexError(f"variable index {index} out of range for {len(caps)} variables")
    if caps[index] < 1:
        raise ValueError(f"cap for variable {index} must be >= 1 to lift it")
    coeffs = np.zeros(tuple(c + 1 for c in caps), dtype=complex)
    coeffs[(0,) * len(caps)] = complex(origin)
    one = [0] * len(caps)
    one[index] = 1
    coeffs[tuple(one)] = 1.0
    return Jet(coeffs)


def _analytic(s: Jet, taylor_coeff) -> Jet:
    """Compose a scalar analytic function with a series.

    `taylor_coeff(m)` must return f^(m)(c0)/m! where c0 is the constant term.
    The nilpotent remainder makes the sum finite: powers beyond the total
    order cap vanish identically.
    """
    ndim = s.coeffs.ndim
    nil = s.coeffs.copy()
    nil[(0,) * ndim] = 0.0
    out = np.zeros_like(s.coeffs)
    out[(0,) * ndim] = taylor_coeff(0)
    power = None
    for m in range(1, sum(s.caps) + 1):
        power = nil if m == 1 else _mul_coeffs(power, nil)
        if not power.any():
            break
        out += taylor_coeff(m) * power
    return Jet(out)


def sin(s: Jet) -> Jet:
    c0 = s.constant_term
    cycle = (cmath.sin(c0), cmath.cos(c0), -cmath.sin(c0), -cmath.cos(c0))
    return _analytic(s, lambda m: cycle[m % 4] / math.factorial(m))


def cos(s: Jet) -> Jet:
    c0 = s.constant_term
    cycle = (cmath.cos(c0), -cmath.sin(c0), -cmath.cos(c0), cmath.sin(c0))
    return _analytic(s, lambda m: cycle[m % 4] / math.factorial(m))


def exp_i(s: Jet) -> Jet:
    """exp(i * s)."""
    lead = cmath.exp(1j * s.constant_term)
    return _analytic(s, lambda m: lead * 1j**m / math.factorial(m))


def sqrt(s: Jet) -> Jet:
    c0 = s.constant_term
    if abs(c0.imag) > 1e-14 * max(1.0, abs(c0.real)) or c0.real <= 0:
        raise ValueError("sqrt requires a positive real constant term")
    c0 = c0.real
    root = math.sqrt(c0)

    def coeff(m):
        # binomial(1/2, m) * c0**(1/2 - m)
        binom = 1.0
        for i in range(m):
            binom *= (0.5 - i) / (i + 1)
        return binom * root / c0**m

    return _analytic(s, coeff)


def inverse(s: Jet) -> Jet:
    c0 = s.constant_term
    if c0 == 0:
        raise ZeroDivisionError("zero constant term")
    return _analytic(s, lambda m: (-1) ** m / c0 ** (m + 1))
