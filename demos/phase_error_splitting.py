"""Why nominally 'equivalent' sequences differ once phases carry errors.

The four five-pulse broadband variants (B5a-d) are related by phase
transformations (adding 2*pi to individual phases) that leave the transition
probability untouched when the phases are exact.  A systematic phase error
multiplies each nominal phase, so those transformations stop being
invariances -- the four profiles split apart.  Sign flips, sequence
reversal, and global phase shifts survive the error.

Usage:
    python demos/phase_error_splitting.py [--eps 0.05]
"""

import argparse

import numpy as np

from phasecomp import catalog, profiler
from phasecomp.su2 import DOUBLE


def line(seq, eps, alpha):
    return profiler.probability(seq, DOUBLE, alpha, 0.0, eps)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, default=0.05)
    args = ap.parse_args()

    alpha = np.linspace(-1.0, 1.0, 201)
    seqs = {n: catalog.get_sequence(n) for n in ("B5a", "B5b", "B5c", "B5d")}

    print("max |p_X - p_B5a| over alpha in [-1, 1]:")
    print(f"  {'':6s} {'eps = 0':>12s} {f'eps = {args.eps}':>12s}")
    base0 = line(seqs["B5a"], 0.0, alpha)
    base1 = line(seqs["B5a"], args.eps, alpha)
    for name in ("B5b", "B5c", "B5d"):
        d0 = np.max(np.abs(line(seqs[name], 0.0, alpha) - base0))
        d1 = np.max(np.abs(line(seqs[name], args.eps, alpha) - base1))
        print(f"  {name:6s} {d0:12.2e} {d1:12.2e}")

    print("\ntransformations that stay exact even under the phase error (B5a):")
    for label, variant in (
        ("sign flip", catalog.sign_flip(seqs["B5a"])),
        ("reversal", catalog.reverse(seqs["B5a"])),
        ("global shift +0.5 pi", catalog.global_shift(seqs["B5a"], 0.5)),
        ("add 2 pi to pulse 2", catalog.add_2pi(seqs["B5a"], 2)),
    ):
        d = np.max(np.abs(line(variant, args.eps, alpha) - base1))
        verdict = "invariant" if d < 1e-12 else "NOT invariant"
        print(f"  {label:22s} max|dp| = {d:.2e}  -> {verdict}")


if __name__ == "__main__":
    main()
