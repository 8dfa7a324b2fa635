"""Independent oracles for the test suite.

Almost everything here avoids the package's jet/series machinery:
probabilities come from explicit 2x2 matrix products (numpy or mpmath) and
Taylor coefficients from Richardson-extrapolated central finite differences
evaluated in high-precision arithmetic, so round-off cannot mask a
disagreement with the series path.  The exception is
:func:`pulse_by_pulse_u11_batch`, which takes its single-pulse series from
the package's jets and is independent only in how it composes them.
"""

from __future__ import annotations

import itertools
import math
from math import comb, factorial

import mpmath as mp
import numpy as np

from phasecomp import expansion, jets
from phasecomp.su2 import PulseSpec

PRECISION_DPS = 50


def product_probability(phases_rad, alpha, eps):
    """Transition probability of a pi-pulse train by direct matrix product."""
    u = np.eye(2, dtype=complex)
    for phi in phases_rad:
        half = 0.5 * math.pi * (1.0 + alpha)
        ph = phi * (1.0 + eps)
        m = np.array(
            [
                [math.cos(half), -1j * math.sin(half) * np.exp(1j * ph)],
                [-1j * math.sin(half) * np.exp(-1j * ph), math.cos(half)],
            ]
        )
        u = m @ u
    return abs(u[1, 0]) ** 2


def _mp_pulse_matrix(area, phi, detuning=None, duration=None):
    """One pulse propagator in mpmath; rectangular when a detuning is given."""
    if detuning is None:
        half = area / 2
        a = mp.cos(half)
        b = -1j * mp.sin(half) * mp.exp(1j * phi)
    else:
        rabi = area / duration
        w = mp.sqrt(rabi**2 + detuning**2)
        half = w * duration / 2
        if w == 0:
            a = mp.mpf(1)
            b = mp.mpc(0)
        else:
            a = mp.cos(half) - 1j * (detuning / w) * mp.sin(half)
            b = -1j * (rabi / w) * mp.sin(half) * mp.exp(1j * phi)
    return ((a, b), (-mp.conj(b), mp.conj(a)))


def _mp_matmul(m2, m1):
    return tuple(
        tuple(sum(m2[i][k] * m1[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def mp_u11(phases_rad, errors, kind="double"):
    """U11 of a nominal-pi-pulse train at the given error point (mpmath)."""
    u = ((mp.mpf(1), mp.mpf(0)), (mp.mpf(0), mp.mpf(1)))
    pi = mp.pi
    if kind == "double":
        alpha, eps = errors
        for phi in phases_rad:
            m = _mp_pulse_matrix(pi * (1 + alpha), mp.mpf(phi) * (1 + eps))
            u = _mp_matmul(m, u)
    else:
        alpha, delta, eps = errors
        for phi in phases_rad:
            m = _mp_pulse_matrix(
                pi * (1 + alpha),
                mp.mpf(phi) * (1 + eps),
                detuning=pi * delta,
                duration=mp.mpf(1),
            )
            u = _mp_matmul(m, u)
    return u[0][0]


def fd_coefficient(f, index, base_step="0.01", levels=5):
    """Taylor coefficient by Richardson-extrapolated central differences.

    `f` maps a tuple of mpmath reals to an mpmath complex.  The stencil for
    each variable is the standard central difference of its order; steps are
    `base_step` halved `levels` times and combined assuming an error series
    in h^2.  Run inside mp.workdps(PRECISION_DPS) so the extrapolation is
    truncation-limited, not round-off-limited.
    """
    index = tuple(index)
    h0 = mp.mpf(base_step)
    cache: dict = {}

    def feval(point):
        if point not in cache:
            cache[point] = f(point)
        return cache[point]

    def stencil(h):
        total = mp.mpc(0)
        ranges = [range(j + 1) for j in index]
        for offsets in itertools.product(*ranges):
            weight = 1
            point = []
            for j, i in zip(index, offsets):
                weight *= (-1) ** i * comb(j, i)
                point.append((mp.mpf(j) / 2 - i) * h)
            total += weight * feval(tuple(point))
        return total / h ** sum(index)

    estimates = [stencil(h0 / 2**i) for i in range(levels)]
    for m in range(1, levels):
        factor = mp.mpf(4) ** m
        estimates = [
            (factor * estimates[i + 1] - estimates[i]) / (factor - 1)
            for i in range(len(estimates) - 1)
        ]
    scale = math.prod(factorial(j) for j in index)
    return complex(estimates[0]) / scale


def float_fd_coefficient(f, index, steps=(1e-2, 5e-3)):
    """Two-step Richardson central differences in plain floats.

    Good to ~1e-6 relative for low orders; the mpmath variant above is the
    authoritative oracle for high mixed orders.
    """

    def stencil(h):
        total = 0.0
        ranges = [range(j + 1) for j in index]
        for offsets in itertools.product(*ranges):
            weight = 1
            point = []
            for j, i in zip(index, offsets):
                weight *= (-1) ** i * comb(j, i)
                point.append((j / 2 - i) * h)
            total += weight * f(tuple(point))
        return total / h ** sum(index)

    d1, d2 = stencil(steps[0]), stencil(steps[1])
    scale = math.prod(factorial(j) for j in index)
    return (4 * d2 - d1) / 3 / scale


def axis_width(f, t, origin, level, tol=1e-4):
    """Length of the super-level interval of `f` through `origin`, node by node.

    Scalar reference for the profiler's origin-line widths: `f` maps one axis
    value to a probability, `t` holds the scan nodes.  The interval is
    bracketed on the nodes, its edges are bisected to `tol`, and it is
    clipped at the node range.
    """
    if f(origin) < level:
        return 0.0
    p = np.array([f(v) for v in t])
    i0 = int(np.argmin(np.abs(t - origin)))
    if p[i0] < level:
        # the region is narrower than one cell around the origin
        lo_edge = bisect_edge(f, origin, t[max(i0 - 1, 0)], level, tol)
        hi_edge = bisect_edge(f, origin, t[min(i0 + 1, len(t) - 1)], level, tol)
        return hi_edge - lo_edge

    i_lo = i0
    while i_lo > 0 and p[i_lo - 1] >= level:
        i_lo -= 1
    i_hi = i0
    while i_hi < len(t) - 1 and p[i_hi + 1] >= level:
        i_hi += 1
    lo = t[i_lo] if i_lo == 0 else bisect_edge(f, t[i_lo], t[i_lo - 1], level, tol)
    hi = t[i_hi] if i_hi == len(t) - 1 else bisect_edge(f, t[i_hi], t[i_hi + 1], level, tol)
    return float(hi - lo)


def bisect_edge(f, inside, outside, level, tol=1e-4):
    """Where `f` crosses `level` between an inside and an outside point."""
    if f(outside) >= level:
        return outside
    while abs(outside - inside) > tol:
        mid = 0.5 * (inside + outside)
        if f(mid) >= level:
            inside = mid
        else:
            outside = mid
    return 0.5 * (inside + outside)


def pulse_by_pulse_probability(seq, model, alpha, delta, eps):
    """Transition probability with every pulse's factors evaluated afresh.

    Reference for the profiler kernel, which evaluates the phase-free
    factors once per distinct pulse: the arithmetic is the same, so the two
    must agree bit for bit.
    """
    shape = np.broadcast(np.asarray(alpha), np.asarray(delta), np.asarray(eps)).shape
    a = np.ones(shape, dtype=complex)
    b = np.zeros(shape, dtype=complex)
    for pulse in seq.pulses:
        if model.kind == "double":
            half = 0.5 * pulse.area * (1.0 + np.asarray(alpha))
            pa = np.cos(half).astype(complex)
            pb = -1j * np.sin(half) * np.exp(1j * pulse.phase * (1.0 + np.asarray(eps)))
        else:
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
            pa = np.cos(half) - 1j * de * sin_over_w
            pb = -1j * om * sin_over_w * np.exp(1j * pulse.phase * (1.0 + np.asarray(eps)))
        a, b = pa * a - pb * np.conj(b), pa * b + pb * np.conj(a)
    return np.abs(b) ** 2


def sequential_backtrack(fun, X, R, rn, ia, steps, solvable):
    """Armijo backtracking one halving at a time, one kernel call per halving.

    Reference for the solver's two-call line search, with the same
    signature: rows `ia` of X, R and rn take the first of lam = 1, 1/2, ...,
    2**-11 with |r(x - lam*step)| < |r(x)|*(1 - lam/4) or below 1e-13; the
    returned mask marks the rows that took no step.
    """
    lam = np.ones(ia.size)
    pending = solvable.copy()
    for _ in range(12):
        idx = np.where(pending)[0]
        if idx.size == 0:
            break
        xn = X[ia[idx]] - lam[idx, None] * steps[idx]
        rnew = fun(xn)
        rnn = np.linalg.norm(rnew, axis=1)
        good = (rnn < rn[ia[idx]] * (1.0 - 0.25 * lam[idx])) | (rnn < 1e-13)
        hit = idx[good]
        X[ia[hit]] = xn[good]
        R[ia[hit]] = rnew[good]
        rn[ia[hit]] = rnn[good]
        pending[hit] = False
        lam[idx[~good]] *= 0.5
    return pending | ~solvable


def distinct_roots(X, tol):
    """Sign-canonical rows of X, each kept unless an earlier kept row lies
    within `tol` in max-norm; a plain Python loop over rows and kept rows."""
    roots = []
    for x in X:
        for p in x:
            if abs(p) > 1e-9:
                x = -x if p < 0 else x
                break
        if not any(np.max(np.abs(x - r)) < tol for r in roots):
            roots.append(x)
    return np.array(roots).reshape(-1, X.shape[1])


def pulse_by_pulse_u11_batch(phase_lists, model, caps):
    """U11 Taylor coefficient arrays of nominal-pi-pulse trains, every pulse
    of every train composed in turn; shape (B, *(caps+1)).

    Reference for the palindrome kernel, which composes half of each train
    and reads off only its targets: this loop takes any trains and returns
    every coefficient within the caps.  Coefficient arrays flattened to
    rows of length M compose by two (M, M) matmuls per pulse, `a0 * X` as
    `X @ L_a0` and `pb * Y` as `(pf *_eps Y) @ L_sinb` with pf the
    per-row phase series.
    """
    caps = tuple(int(c) for c in caps)
    phase_lists = np.asarray(phase_lists, dtype=float)
    batch, n_pulses = phase_lists.shape
    a_jet, b_jet = expansion._pulse_jets(PulseSpec(area=math.pi, phase=0.0), model, caps)
    shape = a_jet.coeffs.shape
    i, j, k = jets._conv_table(shape)
    op_a0, op_sinb = (np.zeros((a_jet.coeffs.size,) * 2, dtype=complex) for _ in range(2))
    op_a0[i, k] = a_jet.coeffs.ravel()[j]
    op_sinb[i, k] = b_jet.coeffs.ravel()[j]  # phase factor is 1 at phi = 0
    size, k_len = op_a0.shape[0], shape[-1]
    pf = np.empty(phase_lists.shape + (k_len,), dtype=complex)
    pf[..., 0] = np.exp(1j * phase_lists)
    for m in range(1, k_len):
        pf[..., m] = pf[..., m - 1] * (1j * phase_lists) / m
    # signed per row: +pf feeds b from conj(a), -pf feeds a from conj(b)
    pf = np.concatenate([pf, -pf])[:, :, None, :]

    # rows [:B] hold a of the composed train, rows [B:] hold b
    state = np.zeros((2 * batch, size), dtype=complex)
    state[:batch, 0] = 1.0
    for p in range(n_pulses):
        conj = state.conj().reshape(2 * batch, size // k_len, k_len)
        f = pf[:, p]
        phased = conj * f[..., :1]
        for m in range(1, k_len):
            phased[..., m:] += f[..., m : m + 1] * conj[..., : k_len - m]
        mixed = phased.reshape(2 * batch, size) @ op_sinb
        state = state @ op_a0
        state[:batch] += mixed[batch:]
        state[batch:] += mixed[:batch]
    return state[:batch].reshape((batch,) + shape)
