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
# The solver evaluates U11 coefficients at many phase vectors per Newton
# iteration.  Every pulse is a nominal pi pulse, so its series differ only by
# the phase factor exp(i*phi*(1+eps)), which touches the eps axis alone.
# Truncated convolution with a fixed series is linear, so with coefficient
# arrays flattened to rows of length M, `a0 * X` is the matmul `X @ L_a0`
# and `pb * Y` is `(pf *_eps Y) @ L_sinb`, where pf is the per-row phase
# series.  The two (M, M) operators are built once per (model, caps) from the
# jet product table; the batch rides along as matmul rows.


@functools.lru_cache(maxsize=None)
def _pi_pulse_operators(model: ErrorModel, caps: tuple[int, ...]):
    """(L_a0, L_sinb): right-multiplication by the pi-pulse a and b/phase series."""
    a_jet, b_jet = _pulse_jets(PulseSpec(area=math.pi, phase=0.0), model, caps)
    shape = a_jet.coeffs.shape
    i, j, k = jets._conv_table(shape)
    ops = []
    for series in (a_jet.coeffs, b_jet.coeffs):  # phase factor is 1 at phi = 0
        op = np.zeros((series.size, series.size), dtype=complex)
        op[i, k] = series.ravel()[j]
        op.setflags(write=False)
        ops.append(op)
    return tuple(ops)


def _phase_factor_batch(phases: "np.ndarray", k_cap: int) -> "np.ndarray":
    """Taylor coefficients in eps of exp(i*phi*(1+eps)), one row of k_cap+1
    per phase: shape phases.shape + (k_cap+1,)."""
    out = np.empty(phases.shape + (k_cap + 1,), dtype=complex)
    out[..., 0] = np.exp(1j * phases)
    for k in range(1, k_cap + 1):
        out[..., k] = out[..., k - 1] * (1j * phases) / k
    return out


def u11_coefficients_batch(
    phase_lists: "np.ndarray", model: ErrorModel, caps
) -> "np.ndarray":
    """U11 Taylor coefficient arrays for a batch of nominal-pi-pulse trains.

    `phase_lists` has shape (B, N) and holds full nominal phases in radians;
    the result has shape (B, *(caps+1)).  Agrees with :func:`expand_u11`
    coefficient-by-coefficient (the scalar jet path serves as a cross-check).
    """
    caps = tuple(int(c) for c in caps)
    phase_lists = np.asarray(phase_lists, dtype=float)
    batch, n_pulses = phase_lists.shape
    op_a0, op_sinb = _pi_pulse_operators(model, caps)
    shape = tuple(c + 1 for c in caps)
    size, k_len = op_a0.shape[0], shape[-1]
    pf = _phase_factor_batch(phase_lists, caps[-1])
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
