"""Command-line front door: verification suites, phase solving, profiling.

All phases on the command line and in emitted artifacts are in units of pi
(the catalog convention); radians are internal only.  Artifacts carry the
rng seed in their header and are byte-identical for identical invocations.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 unknown sequence, 4 unwritable output.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import catalog, expansion, profiler, serialize, solver
from .su2 import DOUBLE, TRIPLE, sequence_propagator, transition_probability

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_UNKNOWN_SEQUENCE = 3
EXIT_UNWRITABLE = 4

OUTDIR_ENV = "PHASECOMP_OUTDIR"

# Input caps that bound memory: a profile grid holds several complex
# (points, points) arrays and its text, a solve batches every seed at once.
MAX_POINTS = 2001
MAX_SEEDS = 10000


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _resolve_out(path: str) -> Path:
    p = Path(path)
    if not p.is_absolute():
        p = Path(os.environ.get(OUTDIR_ENV, ".")) / p
    return p


def _write_text(path: str, text: str) -> Path:
    target = _resolve_out(path)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    except OSError as exc:
        raise _CliError(f"cannot write {target}: {exc}", EXIT_UNWRITABLE)
    return target


def _emit(args, payload: dict) -> None:
    text = serialize.dumps(payload)
    if args.out:
        target = _write_text(args.out, text)
        print(f"wrote {target}")
    else:
        sys.stdout.write(text)


def _get_sequence(name: str):
    try:
        return catalog.get_sequence(name)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_UNKNOWN_SEQUENCE)


def _parse_targets(text: str) -> tuple[tuple[int, ...], ...]:
    try:
        targets = tuple(
            tuple(int(part) for part in chunk.split(","))
            for chunk in text.split(";")
            if chunk.strip()
        )
    except ValueError:
        raise _CliError(f"malformed targets {text!r}", EXIT_USAGE)
    if not targets or len({len(t) for t in targets}) != 1:
        raise _CliError(f"malformed targets {text!r}", EXIT_USAGE)
    if any(i < 0 for t in targets for i in t):
        raise _CliError(f"malformed targets {text!r}", EXIT_USAGE)
    return targets


def _check_at_most(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise _CliError(f"{flag} {value} exceeds the limit of {cap}", EXIT_USAGE)


def _parse_caps(text: str) -> tuple[int, ...]:
    try:
        caps = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise _CliError(f"malformed caps {text!r}", EXIT_USAGE)
    if len(caps) not in (2, 3) or any(c < 0 for c in caps):
        raise _CliError(f"malformed caps {text!r}", EXIT_USAGE)
    return caps


# -- subcommands -----------------------------------------------------------


def _cmd_verify(args) -> int:
    checks = []

    for c in solver.verify_catalog():
        checks.append(
            {
                "check": f"catalog/{c.name}",
                "detail": (
                    f"max|c|={c.max_abs_coeff:.3e} "
                    f"polish_residual={c.polish_residual:.3e} "
                    f"polish_dphi={c.polish_distance_pi:.2e}pi "
                    f"p0={c.probability_at_origin:.12f}"
                ),
                "passed": c.passed,
            }
        )

    # Appendix invariances on a 101-point pulse-area-error line
    alpha = np.linspace(-1.0, 1.0, 101)
    b5 = {n: catalog.get_sequence(n) for n in ("B5a", "B5b", "B5c", "B5d")}
    p0 = {n: profiler.probability(s, DOUBLE, alpha, 0.0, 0.0) for n, s in b5.items()}
    ident = max(float(np.max(np.abs(p0["B5a"] - p0[n]))) for n in ("B5b", "B5c", "B5d"))
    checks.append(
        {
            "check": "b5-family-identical-without-phase-error",
            "detail": f"max|dp|={ident:.3e}",
            "passed": ident < 1e-12,
        }
    )
    p_eps = {
        n: profiler.probability(b5[n], DOUBLE, alpha, 0.0, 0.05) for n in ("B5a", "B5c")
    }
    split = float(np.max(np.abs(p_eps["B5a"] - p_eps["B5c"])))
    checks.append(
        {
            "check": "b5-family-splits-under-phase-error",
            "detail": f"max|dp|={split:.3e}",
            "passed": split > 1e-3,
        }
    )

    seq = catalog.get_sequence("B5a")
    eps_grid = np.linspace(-0.1, 0.1, 21)[None, :]
    base = profiler.probability(seq, DOUBLE, alpha[:, None], 0.0, eps_grid)
    for label, variant in (
        ("sign-flip-invariance", catalog.sign_flip(seq)),
        ("global-shift-invariance", catalog.global_shift(seq, 0.5)),
        ("reversal-invariance", catalog.reverse(seq)),
    ):
        other = profiler.probability(variant, DOUBLE, alpha[:, None], 0.0, eps_grid)
        diff = float(np.max(np.abs(base - other)))
        checks.append(
            {"check": label, "detail": f"max|dp|={diff:.3e}", "passed": diff < 1e-12}
        )

    report = expansion.check_even_j(catalog.get_sequence("Phi7"), DOUBLE)
    checks.append(
        {
            "check": "even-alpha-order-symmetry/Phi7",
            "detail": f"max|c|={max(v for j, v in report.max_abs.items() if j >= 2):.3e}",
            "passed": report.ok,
        }
    )

    all_passed = all(c["passed"] for c in checks)
    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['check']} ({c['detail']})")
    payload = {
        "command": "verify",
        "rng_seed": 0,
        "passed": all_passed,
        "checks": checks,
    }
    if args.json:
        target = _write_text(args.json, serialize.dumps(payload))
        print(f"wrote {target}")
    return EXIT_OK if all_passed else EXIT_VERIFY_FAIL


def _cmd_solve(args) -> int:
    _check_at_most("--seeds", args.seeds, MAX_SEEDS)
    targets = _parse_targets(args.targets)
    model = DOUBLE if len(targets[0]) == 2 else TRIPLE
    if args.model and args.model != model.kind:
        raise _CliError(
            f"targets imply the {model.kind} model, got --model {args.model}", EXIT_USAGE
        )
    try:
        problem = solver.NullificationProblem(args.n, targets, model)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_USAGE)
    try:
        solution = solver.solve(problem, multistart=args.seeds, rng_seed=args.rng)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_USAGE)
    payload = {
        "command": "solve",
        "rng_seed": args.rng,
        "problem": problem.to_jsonable(),
        **solution.to_jsonable(),
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_profile(args) -> int:
    seq = _get_sequence(args.seq)
    model = DOUBLE if args.model == "double" else TRIPLE
    _check_at_most("--points", args.points, MAX_POINTS)
    try:
        axes = profiler.default_axes(model, args.points)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_USAGE)
    fixed = {}
    if model.kind == "triple":
        fixed["eps"] = args.eps
    elif args.eps:
        raise _CliError("--eps only applies to the triple model grid", EXIT_USAGE)
    grid = profiler.scan(seq, model, axes, fixed)
    if args.format == "csv":
        text = profiler.grid_to_csv(grid, header_extra=f"rng_seed={args.rng}")
    else:
        text = serialize.dumps(
            {
                "command": "profile",
                "rng_seed": args.rng,
                **profiler.grid_to_jsonable(grid),
            }
        )
    if args.out:
        target = _write_text(args.out, text)
        print(f"wrote {target}")
    else:
        sys.stdout.write(text)
    if args.metrics:
        metrics = profiler.region_metrics(grid)
        mtext = serialize.dumps(
            {
                "command": "profile-metrics",
                "rng_seed": args.rng,
                "seq": seq.label,
                "model": model.kind,
                **metrics.to_jsonable(),
            }
        )
        if args.out:
            out = Path(args.out)
            target = _write_text(str(out.with_name(out.stem + ".metrics.json")), mtext)
            print(f"wrote {target}")
        else:
            sys.stdout.write(mtext)
    return EXIT_OK


def _cmd_coeffs(args) -> int:
    seq = _get_sequence(args.seq)
    model = DOUBLE if args.model == "double" else TRIPLE
    caps = _parse_caps(args.caps) if args.caps else None
    if caps and len(caps) != model.num_errors:
        raise _CliError(
            f"caps {caps} do not match the {args.model} model", EXIT_USAGE
        )
    try:
        table = expansion.expand_u11(seq, model, caps)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_USAGE)
    payload = {
        "command": "coeffs",
        "rng_seed": 0,
        "seq": seq.label,
        "model": model.kind,
        **table.to_jsonable(),
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_transform(args) -> int:
    seq = _get_sequence(args.seq)
    op = args.op
    try:
        if op == "sign_flip":
            out = catalog.sign_flip(seq)
        elif op == "reverse":
            out = catalog.reverse(seq)
        elif op.startswith("shift:"):
            out = catalog.global_shift(seq, float(op.split(":", 1)[1]))
        elif op.startswith("add2pi:"):
            _, k, mult = op.split(":")
            out = catalog.add_2pi(seq, int(k), int(mult))
        else:
            raise _CliError(f"unknown transform {op!r}", EXIT_USAGE)
    except (ValueError, IndexError) as exc:
        raise _CliError(f"bad transform {op!r}: {exc}", EXIT_USAGE)
    payload = {
        "command": "transform",
        "rng_seed": 0,
        **catalog.sequence_to_jsonable(out, nullified=()),
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_catalog(args) -> int:
    if args.list or not args.name:
        for name in catalog.names():
            seq = catalog.get_sequence(name)
            p0 = transition_probability(sequence_propagator(seq, DOUBLE, (0.0, 0.0)))
            print(f"{name:8s} N={len(seq):2d} p0={p0:.12f}")
        return EXIT_OK
    seq = _get_sequence(args.name)
    payload = {
        "command": "catalog",
        "rng_seed": 0,
        **catalog.sequence_to_jsonable(seq),
    }
    _emit(args, payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasecomp",
        description="Composite pi-pulse sequences with error-tolerant phases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the catalog and invariance suites")
    p.add_argument("--json", help="write the JSON report to this path")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", help="find phases nullifying chosen coefficients")
    p.add_argument("--n", type=int, required=True, help="sequence length (odd)")
    p.add_argument(
        "--targets", required=True, help='indices like "1,0;1,1" (triple: "1,0,0;...")'
    )
    p.add_argument(
        "--seeds", type=int, default=200, help=f"number of Newton starts (1 to {MAX_SEEDS})"
    )
    p.add_argument("--rng", type=int, default=0, help="random seed")
    p.add_argument("--model", choices=("double", "triple"))
    p.add_argument("--out", help="output JSON path")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("profile", help="scan the error-plane probability landscape")
    p.add_argument("--seq", required=True)
    p.add_argument("--model", choices=("double", "triple"), default="double")
    p.add_argument("--eps", type=float, default=0.0, help="fixed phase error (triple)")
    p.add_argument(
        "--points", type=int, default=201, help=f"grid nodes per axis (2 to {MAX_POINTS})"
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--metrics", action="store_true", help="also emit region metrics")
    p.add_argument("--rng", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("coeffs", help="expansion coefficients of a sequence")
    p.add_argument("--seq", required=True)
    p.add_argument("--model", choices=("double", "triple"), default="double")
    p.add_argument("--caps", help='per-variable order caps, e.g. "5,2"')
    p.add_argument("--out")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("transform", help="apply a phase transformation")
    p.add_argument("--seq", required=True)
    p.add_argument(
        "--op", required=True, help="sign_flip | reverse | shift:<pi> | add2pi:<k>:<mult>"
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("catalog", help="list or export catalog sequences")
    p.add_argument("--list", action="store_true")
    p.add_argument("--name")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    raise SystemExit(main())
