"""Closed-loop benchmark of the phasecomp command line.

    python3 perfbench/run.py --workload design|landscape|verify --seed N \
        --seconds S --trace 0|1

One caller on one thread, pinned to one core, runs the workload's commands
back to back through ``phasecomp.cli.main`` (see workloads.py).  Every exit
code and artifact is checked against an independent computation (checks.py)
outside the timed region, and artifacts of passes with identical inputs must
be byte-identical.

``--trace 0`` measures the end-to-end metrics with tracing off.  Each time
is scaled to nominal machine speed by runs of the reference task of
speed.py around and during each command (cold passes included) and around
each fresh import, so that a host whose speed drifts between runs reads the
same:

- ``setup_s``: median scaled wall time of a fresh interpreter that imports
  ``phasecomp.cli`` and exits;
- ``cold_s``: median scaled time of pass 0 run in a fresh interpreter, after
  its import; fresh interpreters are started until they have used half of
  ``--seconds`` (at least one);
- ``pass_s``: median scaled time of the warm in-process passes that follow,
  which run until cold plus warm time reaches ``--seconds`` (at least one).

``--trace 1`` alternates untraced and traced in-process passes with the same
inputs and reports the per-layer metrics of tracer.py, the command-level
times and solver counts, and the tracing overhead (traced minus untraced
pass time).

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it records the environment.  The full record, with every failure,
goes to ``.perfbench_out/`` in the checkout.  The program is loaded from the
checkout's ``src``; without it the run exits non-zero and prints no result.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

CHILD = Path(__file__).resolve().parent / "child.py"
OUT = workloads.ROOT / ".perfbench_out"
SETUP_SPAWNS = 9
SETUP_PROBES = 4  # reference task runs before, and again after, each fresh import
CHILD_TIMEOUT_S = 170

SERIES_FUNCTIONS = ("sin", "cos", "exp_i", "sqrt", "inverse")


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(num, den) -> float:
    return num / den if den else 0.0


class Ledger:
    """Counts attempted and failed commands and checks each artifact set once."""

    def __init__(self, seed: int, phases_of):
        self.seed, self.phases_of = seed, phases_of
        self.attempted = self.failed = 0
        self.failures = []
        self._digests = {}  # argv -> artifact digests of the first pass that ran it
        self._verdicts = {}  # (argv, digests, stdout) -> (errors, facts)

    def settle(self, tag: str, pass_ops, records, outdir: Path) -> dict:
        """Check one pass; returns the facts of each command by label."""
        import checks  # loads numpy, so only after main() has pinned the BLAS pools

        facts = {}
        for op, rec in zip(pass_ops, records):
            self.attempted += 1
            digests = tuple(_digest(outdir / name) for name in op.artifacts)
            errors = []
            first = self._digests.setdefault(op.argv, digests)
            if digests != first:
                errors.append("artifacts differ from an earlier pass with the same inputs")
            stdout = "\n".join(ln for ln in rec["stdout"].splitlines() if not ln.startswith("wrote "))
            key = (op.argv, digests, stdout)
            if key not in self._verdicts:
                self._verdicts[key] = checks.check_op(op, rec, outdir, self.seed, self.phases_of)
            check_errors, facts[op.label] = self._verdicts[key]
            errors += check_errors
            if errors:
                self.failed += 1
                self.failures.append({"pass": tag, "op": op.label, "errors": errors[:5]})
                print(f"FAIL {tag} {op.label}: {errors[0]}", file=sys.stderr)
        shutil.rmtree(outdir, ignore_errors=True)
        return facts


def _digest(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def spawn_import() -> float:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(CHILD), "import"], capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: fresh import failed: {proc.stderr.strip()[-500:]}")
    return elapsed


def run_cold(workload: str, seed: int, outdir: Path):
    """Pass 0 in a fresh interpreter; returns (pass seconds, scaled seconds, records)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(CHILD), "cold", workload, str(seed), str(outdir)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        return result["pass_s"], result["scaled_s"], result["records"]
    except (IndexError, ValueError, KeyError):
        error = f"cold interpreter exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return wall, wall, [{"label": op.label, "code": None, "error": error,
                             "seconds": 0.0, "stdout": ""}
                            for op in workloads.ops(workload, seed, 0)]


def command_metrics(passes) -> dict:
    """Command times and solver counts, medians over the given passes."""
    def seconds(pred):
        return [r["seconds"] for p in passes for r in p["records"] if pred(r["label"])]

    out = {f"{label}_s": median(seconds(lambda lab, want=label: lab == want))
           for label in ("solve_n9", "solve_n13", "solve_triple")}
    out["profile_s"] = median(seconds(lambda lab: lab.startswith("profile_")))
    out["verify_s"] = median(seconds(lambda lab: lab == "verify"))
    out["coeffs_s"] = median(
        sum(r["seconds"] for r in p["records"] if r["label"].startswith("coeffs_"))
        for p in passes if any(r["label"].startswith("coeffs_") for r in p["records"]))
    solves = []  # per pass: solver facts summed over its solve commands
    for p in passes:
        facts = [f for f in p["facts"].values() if "converged" in f]
        if facts:
            total = {key: sum(f[key] for f in facts) for key in facts[0]}
            total["solve_s"] = sum(r["seconds"] for r in p["records"]
                                   if r["label"].startswith("solve_"))
            solves.append(total)
    out["converged_frac"] = median(ratio(t["converged"], t["seeds"]) for t in solves)
    out["s_per_root"] = median(ratio(t["solve_s"], t["distinct"]) for t in solves)
    out["solver.distinct_frac"] = median(ratio(t["distinct"], t["converged"]) for t in solves)
    out["solver.reported_over_tol"] = median(t["reported_over_tol"] for t in solves)
    out["solver.rediscovered"] = median(t["rediscovered"] for t in solves)
    out["converged_seeds"] = median(t["converged"] for t in solves)
    return out


def layer_metrics(table: dict, converged_seeds: float) -> dict:
    """One traced pass: the tracer's totals plus sums and rates derived from them."""
    def get(key):
        return table.get(key, 0)

    u11 = "expansion.u11_coefficients_batch"
    return {
        **table,
        "jets.series.calls": sum(get(f"jets.{fn}.calls") for fn in SERIES_FUNCTIONS),
        "expansion.pulse_rows_per_s": ratio(get(f"{u11}.pulse_rows"), get(f"{u11}.s")),
        "expansion.rows_per_converged_seed": ratio(get(f"{u11}.rows"), converged_seeds),
        "profiler.scan.points_per_s": ratio(get("profiler.scan.points"), get("profiler.scan.s")),
    }


def environment(workload: str, seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def loadavg() -> list:
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return list(os.getloadavg())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # One caller, one thread: pin the BLAS pools before numpy loads, here and
    # in every child interpreter.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    cli = workloads.load_cli()  # exits non-zero when the checkout has no program
    from phasecomp import catalog
    import speed  # these two load numpy, so only after the pin above
    import tracer

    bench = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    env = environment(args.workload, args.seed)
    env["loadavg_before"] = loadavg()
    # Everything runs on one core, fresh interpreters included (they inherit
    # the mask), so that the reference runs share the core of the work they
    # scale: the cores of a shared host slow down independently.
    env["cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["cpu"]})
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    ledger = Ledger(args.seed, lambda name: catalog.get_sequence(name).phases_pi)
    passes = []

    def warm_pass(tag, index, table=None):
        pass_ops = workloads.ops(args.workload, args.seed, index)
        outdir = run_dir / tag
        meter = speed.Meter() if args.trace == 0 else None
        if table is None:
            wall, records = workloads.run_pass(cli, pass_ops, outdir, meter)
        else:
            with table.installed():
                wall, records = workloads.run_pass(cli, pass_ops, outdir)
        facts = ledger.settle(tag, pass_ops, records, outdir)
        passes.append({"tag": tag, "wall": wall, "scaled": meter.scaled_s if meter else wall,
                       "records": records, "facts": facts})
        return passes[-1]

    def setup_spawn():
        """Wall time of one fresh import, and that time scaled."""
        wall, scale = speed.bracket_scale(spawn_import, SETUP_PROBES)
        return wall, wall * scale

    if args.trace == 0:
        setup = [setup_spawn() for _ in range(SETUP_SPAWNS)]
        colds, measured = [], 0.0
        while not colds or measured < args.seconds / 2:
            tag = f"cold{len(colds)}"
            wall, scaled, records = run_cold(args.workload, args.seed, run_dir / tag)
            facts = ledger.settle(tag, workloads.ops(args.workload, args.seed, 0),
                                  records, run_dir / tag)
            colds.append({"tag": tag, "wall": wall, "scaled": scaled, "records": records,
                          "facts": facts})
            measured += wall
        while not passes or measured < args.seconds:
            measured += warm_pass(f"warm{len(passes)}", len(passes))["wall"]
        values = {"setup_s": median(scaled for _, scaled in setup),
                  "cold_s": median(p["scaled"] for p in colds),
                  "pass_s": median(p["scaled"] for p in passes)}
        detail = {"setup_spawns": [{"wall": wall, "scaled": scaled} for wall, scaled in setup],
                  "cold": command_metrics(colds), "warm": command_metrics(passes)}
        passes[:0] = colds
        wanted = bench["end_to_end"]
    else:
        measured, layer_runs, index = 0.0, [], 0
        while not index or measured < args.seconds:
            measured += warm_pass(f"untraced{index}", index)["wall"]
            table = tracer.Tracer()
            traced = warm_pass(f"traced{index}", index, table)
            measured += traced["wall"]
            layer_runs.append(layer_metrics(
                table.metrics(), command_metrics([traced])["converged_seeds"]))
            index += 1
        untraced = [p for p in passes if p["tag"].startswith("untraced")]
        traced_s = median(p["wall"] for p in passes if p["tag"].startswith("traced"))
        untraced_s = median(p["wall"] for p in untraced)
        values = {
            **command_metrics(untraced),
            "failed_frac": ratio(ledger.failed, ledger.attempted),
            "trace.pass_s": traced_s,
            "trace.untraced_pass_s": untraced_s,
            "trace.overhead_s": traced_s - untraced_s,
        }
        for m in bench["per_layer"]:  # a layer that never ran reports 0
            values.setdefault(m["name"], median(run.get(m["name"], 0) for run in layer_runs))
        detail = {"layer_runs": layer_runs}
        wanted = bench["per_layer"]

    env["loadavg_after"] = loadavg()
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    OUT.mkdir(exist_ok=True)
    record = {"env": env, "result": result, "detail": detail, "failures": ledger.failures,
              "passes": [{"tag": p["tag"], "wall": p["wall"], "scaled": p["scaled"],
                          "records": [{k: r[k] for k in ("label", "code", "seconds")}
                                      for r in p["records"]]} for p in passes]}
    (run_dir.parent / f"{run_dir.name}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
