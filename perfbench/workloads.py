"""The commands each workload runs, and one closed-loop pass over them.

A pass is a list of CLI invocations run back to back by one caller on one
thread, each through ``phasecomp.cli.main`` with its artifacts written under
a per-pass output directory.  This module imports only the standard library
at load time, so the fresh-interpreter child can time ``import phasecomp.cli``
without paying for the harness's own dependencies.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("design", "landscape", "verify")

# (label, N, targets): the four `solve` problems of a design pass.
DESIGN_PROBLEMS = (
    ("solve_n5", 5, "1,0;1,1"),
    ("solve_n9", 9, "1,0;1,1;1,2;3,0"),
    ("solve_n13", 13, "1,0;1,1;3,0;3,1;5,0;5,1"),
    ("solve_triple", 9, "1,0,0;0,1,0;1,0,1;3,0,0"),
)
SOLVE_SEEDS = 200

# Acceptance criterion 8 (double model) and 9 (triple model at three eps).
CRITERION8_SEQS = ("B3", "B5a", "Phi5", "Phi7", "Phi9a", "Phi11a", "Phi13a")
CRITERION9_RUNS = tuple((s, e) for e in ("0", "0.05", "0.1") for s in ("U9", "T9"))
PROFILE_POINTS = 201

CATALOG_NAMES = (
    "B3", "B5a", "B5b", "B5c", "B5d", "Phi5", "Phi7", "Phi9a", "Phi9b",
    "Phi11a", "Phi11b", "Phi13a", "Phi13b", "Phi13c", "U9", "T9",
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the artifact files it must leave behind."""

    kind: str  # "solve", "profile", "verify" or "coeffs"
    label: str
    argv: tuple
    artifacts: tuple
    params: dict  # what the checks need to know about the inputs


def load_cli():
    """Import ``phasecomp.cli`` from this checkout's ``src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        from phasecomp import cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import phasecomp from {SRC}: {exc}")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: phasecomp was imported from {cli.__file__}, not {SRC}")
    return cli


def design_rng(seed: int, pass_index: int) -> int:
    """`--rng` of every solve in a design pass; seed 0, pass 0 gives rng 0."""
    return 1000 * seed + pass_index


def ops(workload: str, seed: int, pass_index: int) -> list:
    """The ordered commands of one pass.

    Only design passes change with the pass index.  Landscape and verify
    passes repeat the same inputs, so every pass of a run must produce
    byte-identical artifacts; their order is shuffled from the seed.
    """
    if workload == "design":
        rng = design_rng(seed, pass_index)
        out = []
        for label, n, targets in DESIGN_PROBLEMS:
            name = f"{label}.json"
            argv = ("solve", "--n", str(n), "--targets", targets,
                    "--seeds", str(SOLVE_SEEDS), "--rng", str(rng), "--out", name)
            out.append(Op("solve", label, argv, (name,),
                          {"n": n, "targets": targets, "rng": rng, "seeds": SOLVE_SEEDS}))
        return out
    if workload == "landscape":
        out = []
        for seq in CRITERION8_SEQS:
            argv = ("profile", "--seq", seq, "--points", str(PROFILE_POINTS), "--metrics",
                    "--rng", str(seed), "--out", f"{seq}.csv")
            out.append(Op("profile", f"profile_{seq}", argv,
                          (f"{seq}.csv", f"{seq}.metrics.json"),
                          {"seq": seq, "model": "double", "eps": 0.0, "rng": seed}))
        for seq, eps in CRITERION9_RUNS:
            stem = f"{seq}_eps{eps}"
            argv = ("profile", "--seq", seq, "--model", "triple", "--eps", eps,
                    "--points", str(PROFILE_POINTS), "--format", "json", "--metrics",
                    "--rng", str(seed), "--out", f"{stem}.json")
            out.append(Op("profile", f"profile_{stem}", argv,
                          (f"{stem}.json", f"{stem}.metrics.json"),
                          {"seq": seq, "model": "triple", "eps": float(eps), "rng": seed}))
        random.Random(f"{seed}:{pass_index}").shuffle(out)
        return out
    if workload == "verify":
        coeffs = [
            Op("coeffs", f"coeffs_{seq}_{model}",
               ("coeffs", "--seq", seq, "--model", model, "--out", f"coeffs_{seq}_{model}.json"),
               (f"coeffs_{seq}_{model}.json",), {"seq": seq, "model": model})
            for model in ("double", "triple") for seq in CATALOG_NAMES
        ]
        random.Random(f"{seed}:{pass_index}").shuffle(coeffs)
        return [Op("verify", "verify", ("verify", "--json", "verify.json"), ("verify.json",), {})] + coeffs
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(cli, pass_ops, outdir: Path, meter=None) -> tuple:
    """Run the commands back to back; returns (wall seconds, per-op records).

    The wall time is the sum of the commands' times.  A ``meter``
    (speed.Meter), when given, is started and stopped around each command;
    the time of its probes is left out of the command's.  ``cli.main`` is
    looked up on every call so that a tracer's wrapper is used when
    installed.  Stdout is captured; it is kept only for ``verify``, whose
    PASS lines are checked.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    previous = os.environ.get("PHASECOMP_OUTDIR")
    os.environ["PHASECOMP_OUTDIR"] = str(outdir)
    records = []
    wall = 0.0
    try:
        for op in pass_ops:
            sink = io.StringIO()
            error = None
            if meter is not None:
                meter.start()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    code = cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed op, not the end of the run
                code, error = None, traceback.format_exc(limit=3)
            seconds = time.perf_counter() - t0
            if meter is not None:
                seconds = meter.stop(seconds)
            wall += seconds
            records.append({
                "label": op.label,
                "code": code,
                "error": error,
                "seconds": seconds,
                "stdout": sink.getvalue() if op.kind == "verify" else "",
            })
    finally:
        if previous is None:
            os.environ.pop("PHASECOMP_OUTDIR", None)
        else:
            os.environ["PHASECOMP_OUTDIR"] = previous
    return wall, records
