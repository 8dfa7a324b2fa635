"""Taylor expansion of the composed propagator around the zero-error point.

The first diagonal element U11 of the total propagator is built with jet
arithmetic in the error variables and its coefficients are read off exactly.
For the double model the variables are (alpha, eps); for the triple model
(alpha, delta, eps), with delta the detuning in units of the nominal Rabi
frequency (an absolute offset -- a relative detuning error at zero detuning
would be degenerate).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .su2 import CompositeSequence, ErrorModel, PulseSpec

__all__ = [
    "DEFAULT_DOUBLE_CAPS",
    "DEFAULT_TRIPLE_CAPS",
    "CoefficientTable",
    "EvenOrderReport",
    "expand_u11",
    "check_even_j",
]

# Per-variable order caps: (alpha, eps) and (alpha, delta, eps).  Chosen to
# cover every catalog target plus guard orders.
DEFAULT_DOUBLE_CAPS = (5, 2)
DEFAULT_TRIPLE_CAPS = (5, 5, 2)


@dataclass(frozen=True)
class CoefficientTable:
    """All Taylor coefficients of U11 within the caps."""

    caps: tuple[int, ...]
    entries: dict

    def coefficient(self, index) -> complex:
        index = tuple(int(i) for i in index)
        if index not in self.entries:
            raise IndexError(f"index {index} outside caps {self.caps}")
        return self.entries[index]

    def to_jsonable(self) -> dict:
        return {
            "caps": list(self.caps),
            "entries": [
                {"idx": list(idx), "re": c.real, "im": c.imag}
                for idx, c in sorted(self.entries.items())
            ],
        }


def _pulse_jets(pulse: PulseSpec, model: ErrorModel, caps):
    """Cayley-Klein pair of one pulse as jets in the error variables."""
    if model.kind == "double":
        alpha = jets.variable(0, 0.0, caps)
        eps = jets.variable(1, 0.0, caps)
        half = (0.5 * pulse.area) * (1.0 + alpha)
        a = jets.cos(half)
        b = -1j * jets.sin(half) * jets.exp_i(pulse.phase * (1.0 + eps))
    else:
        alpha = jets.variable(0, 0.0, caps)
        delta = jets.variable(1, 0.0, caps)
        eps = jets.variable(2, 0.0, caps)
        omega = pulse.rabi * (1.0 + alpha)
        det = pulse.detuning + model.nominal_rabi * delta
        w = jets.sqrt(omega * omega + det * det)
        sin_over_w = jets.sin((0.5 * pulse.duration) * w) / w
        a = jets.cos((0.5 * pulse.duration) * w) - 1j * det * sin_over_w
        b = -1j * omega * sin_over_w * jets.exp_i(pulse.phase * (1.0 + eps))
    return a, b


def expand_u11(
    seq: CompositeSequence, model: ErrorModel, caps=None
) -> CoefficientTable:
    """Exact Taylor coefficients of U11 of the composed propagator."""
    if caps is None:
        caps = DEFAULT_DOUBLE_CAPS if model.kind == "double" else DEFAULT_TRIPLE_CAPS
    caps = tuple(int(c) for c in caps)
    if len(caps) != model.num_errors:
        raise ValueError(f"caps {caps} do not match the {model.kind} model")

    cache: dict[PulseSpec, tuple] = {}
    a = jets.constant(1.0, caps)
    b = jets.constant(0.0, caps)
    for pulse in seq.pulses:
        if pulse not in cache:
            cache[pulse] = _pulse_jets(pulse, model, caps)
        pa, pb = cache[pulse]
        a, b = pa * a - pb * b.conjugate(), pa * b + pb * a.conjugate()

    entries = {
        idx: a.coefficient(idx)
        for idx in itertools.product(*(range(c + 1) for c in caps))
    }
    return CoefficientTable(caps=caps, entries=entries)


# -- batched evaluation ----------------------------------------------------
#
# The solver evaluates a few U11 coefficients of many palindromic pi trains
# (phi_0, ..., phi_n, ..., phi_0) per Newton iteration.  Let G be the
# product of the first n+1 pulses and H that of the first n.  Each pulse
# matrix obeys P(phi)^T = P(-phi) = Z conj~(P(phi)) Z, with Z = diag(1, -1)
# and conj~ the coefficient conjugate with odd delta orders negated, so the
# last n pulses compose to H(-phi)^T and the reflection identity
# U = H(-phi)^T G gives
#
#     U11 = a_G conj~(a_H) - conj(b_G) flip(b_H),
#
# with flip negating odd delta orders.  So only n+1 of the 2n+1 pulses are
# composed, and the product is read off at the targets alone, through a
# cached table of index pairs.
#
# Every pulse is a nominal pi pulse: a = a0 and b = s * q, with eps-free
# series a0 and s and the phase factor q = -i exp(i*phi*(1+eps)), which
# touches the eps axis alone.  The substitution delta -> i*delta makes a0
# and s real in the triple model (it turns conj~ into a plain conjugate), so
# both act as real (M', M') convolution matrices over the alpha and delta
# axes.  The state is stored batch-last as (M', K, 2B), K eps orders, with a
# in the first B columns and conj(b) in the rest, which makes every pulse
# conjugation-free: the matmuls run on its float view and the eps
# convolution with q runs along the batch.


@functools.lru_cache(maxsize=None)
def _pi_pulse_operators(model: ErrorModel, caps: tuple[int, ...]) -> "np.ndarray":
    """[L_a | L_s]: real left-multiplication by a0 and s over the eps-free
    axes, side by side, after the delta -> i*delta substitution.

    L_s also negates odd delta orders of its input: in the substituted
    frame, conj(b) of the original frame is flip(conj(b)).
    """
    a_jet, b_jet = _pulse_jets(PulseSpec(area=math.pi, phase=0.0), model, caps)
    a0, s = a_jet.coeffs[..., 0], 1j * b_jet.coeffs[..., 0]
    parity = np.ones(a0.shape)
    if model.kind == "triple":
        tilt = 1j ** np.arange(caps[1] + 1)
        a0, s = a0 * tilt, s * tilt
        parity = parity * (-1.0) ** np.arange(caps[1] + 1)
    i, j, k = jets._conv_table(a0.shape)
    size = a0.size
    op = np.zeros((size, 2 * size))
    op[k, i] = a0.real.ravel()[j]
    op[k, size + i] = s.real.ravel()[j] * parity.ravel()[i]
    op.setflags(write=False)
    return op


@functools.lru_cache(maxsize=None)
def _target_pairs(model: ErrorModel, caps: tuple[int, ...], targets):
    """Flat index pairs (t, i, j): multi-indices i + j equal to target t.

    Also returns, per target, the b-term's sign (the flip of its delta
    order) and the factor undoing the delta -> i*delta substitution.
    """
    shape = tuple(c + 1 for c in caps)
    pairs = []
    for t, target in enumerate(targets):
        if len(target) != len(caps) or not all(0 <= o <= c for o, c in zip(target, caps)):
            raise ValueError(f"target {target} outside caps {caps}")
        for i in itertools.product(*(range(o + 1) for o in target)):
            j = tuple(o - k for o, k in zip(target, i))
            pairs.append((t, int(np.ravel_multi_index(i, shape)), int(np.ravel_multi_index(j, shape))))
    delta = np.array([t[1] if model.kind == "triple" else 0 for t in targets])
    sign, factor = ((-1.0) ** delta)[:, None], ((-1j) ** delta)[:, None]
    sign.setflags(write=False)
    factor.setflags(write=False)
    return tuple(pairs), sign, factor


def _compose_pulse(work: np.ndarray, q: np.ndarray, op: np.ndarray, out: np.ndarray):
    """One more pi pulse: `work[0]` holds the state, `out[0]` receives it.

    The state (M', K, 2B) holds a in its first B columns and conj(b) in the
    rest, so that a' = a0 a - s (q * conj(b)) and conj(b)' = a0 conj(b) +
    s (conj(q) * a) need no conjugation.  `q` (K, 2B) holds -q on the a
    columns and conj(q) on the others.  `work[1]` receives the eps
    convolutions of q with the other half, then one matmul [L_a | L_s] @
    work forms the new state.
    """
    state, cross = work
    size, k_len, width = state.shape
    half = width // 2
    scratch = out[1]  # free until the next pulse
    for dst, src in ((slice(None, half), slice(half, None)), (slice(half, None), slice(None, half))):
        np.multiply(state[..., src], q[0, dst], out=cross[..., dst])
        for m in range(1, k_len):
            part = scratch[:, m:, dst]
            np.multiply(state[:, : k_len - m, src], q[m, dst], out=part)
            cross[:, m:, dst] += part
    np.matmul(op, work.view(float).reshape(2 * size, -1),
              out=out[0].view(float).reshape(size, -1))


def u11_coefficients_batch(
    phase_lists: "np.ndarray", model: ErrorModel, caps, targets
) -> "np.ndarray":
    """U11 Taylor coefficients at `targets` for a batch of palindromic
    nominal-pi-pulse trains.

    `phase_lists` has shape (B, N) with N odd and each row equal to its
    reverse; it holds full nominal phases in radians.  `targets` are
    multi-indices within `caps`.  The result has shape (B, len(targets)) and
    agrees with :func:`expand_u11` to rounding.
    """
    caps = tuple(int(c) for c in caps)
    targets = tuple(tuple(int(o) for o in t) for t in targets)
    phase_lists = np.asarray(phase_lists, dtype=float)
    batch, n_pulses = phase_lists.shape
    if n_pulses % 2 == 0:
        raise ValueError(f"the batched kernel needs an odd train, got {n_pulses} pulses")
    if not np.array_equal(phase_lists[:, : n_pulses // 2], phase_lists[:, : n_pulses // 2 : -1]):
        raise ValueError("the batched kernel needs palindromic phase lists")
    op = _pi_pulse_operators(model, caps)
    pairs, sign, factor = _target_pairs(model, caps, targets)
    size, k_len = op.shape[0], caps[-1] + 1
    n = n_pulses // 2

    # q_l = -i exp(i*phi) (i*phi)^l / l! for the first n+1 phases only; the
    # a columns take -q and the conj(b) columns conj(q), both of the form
    # i exp(i*psi) (i*psi)^l / l!, with psi = phi and -phi
    phi = phase_lists[:, : n + 1].T
    sin_phi, cos_phi = np.sin(phi), np.cos(phi)
    q = np.empty((n + 1, k_len, 2 * batch), dtype=complex)
    q.real[:, 0, :batch] = -sin_phi
    q.real[:, 0, batch:] = sin_phi
    q.imag[:, 0, :batch] = cos_phi
    q.imag[:, 0, batch:] = cos_phi
    psi = np.hstack([phi, -phi])
    for m in range(1, k_len):
        q[:, m] = q[:, m - 1] * (1j / m) * psi

    # two (state, cross) buffers; pulse p writes its state into buffer p % 2,
    # so after the last one, buffer n % 2 holds G and the other holds H
    work = np.empty((2, 2, size, k_len, 2 * batch), dtype=complex)
    # the first pulse acting on the identity: a = a0, conj(b) = s * conj(q)
    work[0, 0, :, 1:, :batch] = 0.0
    work[0, 0, :, 0, :batch] = op[:, :1]
    np.multiply(op[:, size, None, None], q[0, :, batch:], out=work[0, 0, ..., batch:])
    if n == 0:  # H is the identity
        work[1, 0] = 0.0
        work[1, 0, 0, 0, :batch] = 1.0
    for p in range(1, n + 1):
        _compose_pulse(work[(p - 1) % 2], q[p], op, work[p % 2])
    flat = work[:, 0].reshape(2, size * k_len, 2 * batch)
    g, h = flat[n % 2], flat[(n - 1) % 2]
    np.conjugate(h, out=h)

    # per target: sums of a_G conj(a_H) and of conj(b_G) b_H over its pairs
    x = np.zeros((len(targets), 2 * batch), dtype=complex)
    for t, i, j in pairs:
        x[t] += g[i] * h[j]
    return ((x[:, :batch] - sign * x[:, batch:]) * factor).T


@dataclass(frozen=True)
class EvenOrderReport:
    """Largest |coefficient| per even alpha-order, and the verdict."""

    max_abs: dict
    tolerance: float

    @property
    def ok(self) -> bool:
        # j = 0 entries are reported but exempt: only even orders >= 2 are
        # forced to vanish by the phase symmetry.
        return all(v < self.tolerance for j, v in self.max_abs.items() if j >= 2)


def check_even_j(
    seq: CompositeSequence, model: ErrorModel, caps=None, tol: float = 1e-10
) -> EvenOrderReport:
    """Check that even-order alpha coefficients of a symmetric train vanish."""
    if not seq.symmetric:
        raise ValueError("even-order symmetry check requires a symmetric sequence")
    table = expand_u11(seq, model, caps)
    max_abs: dict[int, float] = {}
    for idx, c in table.entries.items():
        j = idx[0]
        if j % 2 == 0:
            max_abs[j] = max(max_abs.get(j, 0.0), abs(c))
    return EvenOrderReport(max_abs=max_abs, tolerance=tol)
