"""Planted-fault self-test: each artifact check must reject a corrupted artifact.

    python3 -m pytest -q perfbench/test_perfbench.py

Each test starts from artifacts the real CLI wrote for one workload command,
plants one fault, and requires the check (or the byte-identity ledger) to
report it.
"""

import json
import shutil
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

cli = workloads.load_cli()
from phasecomp import catalog  # noqa: E402

SEED = 3


def phases_of(name):
    return catalog.get_sequence(name).phases_pi


def _op(workload, label):
    return next(op for op in workloads.ops(workload, SEED, 0) if op.label == label)


OPS = {
    "solve": _op("design", "solve_n5"),
    "profile": _op("landscape", "profile_B3"),
    "coeffs": _op("verify", "coeffs_B5d_double"),
}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("pristine")
    _, records = workloads.run_pass(cli, list(OPS.values()), outdir)
    return outdir, dict(zip(OPS, records))


@pytest.fixture
def copy(pristine, tmp_path):
    outdir, records = pristine
    shutil.copytree(outdir, tmp_path, dirs_exist_ok=True)
    return tmp_path, {kind: dict(rec) for kind, rec in records.items()}


def _errors(kind, outdir, record):
    errors, _ = checks.check_op(OPS[kind], record, outdir, SEED, phases_of)
    return errors


@pytest.mark.parametrize("kind", sorted(OPS))
def test_clean_artifacts_pass(copy, kind):
    outdir, records = copy
    assert _errors(kind, outdir, records[kind]) == []


def test_nudged_root_phase_is_rejected(copy):
    outdir, records = copy
    path = outdir / OPS["solve"].artifacts[0]
    data = json.loads(path.read_text())
    data["solutions"][0]["phases_pi"][0] += 1e-6  # units of pi
    path.write_text(json.dumps(data))
    assert any("residual" in e for e in _errors("solve", outdir, records["solve"]))


def test_sampled_grid_value_is_rejected(copy):
    outdir, records = copy
    path = outdir / OPS["profile"].artifacts[0]
    lines = path.read_text().splitlines()
    i, j = checks.sample_nodes(SEED, path.name, checks.POINTS, checks.POINTS)[-1]
    row = 2 + i * checks.POINTS + j
    x, y, p = lines[row].split(",")
    lines[row] = f"{x},{y},{float(p) + 1e-9:.17g}"
    path.write_text("\n".join(lines) + "\n")
    assert any(f"node ({i},{j})" in e for e in _errors("profile", outdir, records["profile"]))


def test_coeffs_entry_is_rejected(copy):
    outdir, records = copy
    path = outdir / OPS["coeffs"].artifacts[0]
    data = json.loads(path.read_text())
    entry = next(e for e in data["entries"] if e["idx"] == [1, 0])
    entry["re"] += 1e-6
    path.write_text(json.dumps(data))
    assert any("series sum" in e for e in _errors("coeffs", outdir, records["coeffs"]))


@pytest.mark.parametrize("kind", sorted(OPS))
def test_missing_artifact_is_rejected(copy, kind):
    outdir, records = copy
    (outdir / OPS[kind].artifacts[-1]).unlink()
    assert any("missing artifact" in e for e in _errors(kind, outdir, records[kind]))


@pytest.mark.parametrize("kind", sorted(OPS))
def test_nonzero_exit_is_rejected(copy, kind):
    outdir, records = copy
    records[kind]["code"] = 1
    assert _errors(kind, outdir, records[kind]) == ["exit code 1"]


def test_byte_mismatch_between_identical_passes_counts_as_failed(pristine, tmp_path):
    outdir, records = pristine
    ledger = run.Ledger(SEED, phases_of)
    op, record = OPS["coeffs"], records["coeffs"]
    for tag in ("first", "second"):
        shutil.copytree(outdir, tmp_path / tag)
        if tag == "second":
            path = tmp_path / tag / op.artifacts[0]
            path.write_text(path.read_text() + "\n")
        ledger.settle(tag, [op], [record], tmp_path / tag)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert "differ" in ledger.failures[0]["errors"][0]


def test_metered_pass_leaves_probes_out_and_restores_the_alarm(tmp_path, monkeypatch):
    monkeypatch.setattr(speed, "PROBE_AFTER_S", 0.05)  # probe inside each command
    meter = speed.Meter()
    ops = [OPS["profile"], OPS["coeffs"]]
    t0 = time.perf_counter()
    wall, records = workloads.run_pass(cli, ops, tmp_path, meter)
    elapsed = time.perf_counter() - t0
    assert wall == sum(r["seconds"] for r in records)
    assert 0 < wall < elapsed - 2 * 0.5 * speed.NOMINAL_S  # at least two task runs left out
    assert meter.scaled_s > 0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# A root that `solve --n 13 --targets "1,0;1,1;3,0;3,1;5,0;5,1" --rng 22000`
# reports.  With phases near 150 pi, rounding them to float64 alone leaves a
# residual of 1.1e-9, so it passes as the rounding of an exact root.
FAR_ROOT = [62.719620001205506, 138.46167670689033, 151.50454624433013,
            99.84427233282935, 67.43583260612482, 59.83790807197633]


def test_far_root_passes_only_as_rounding_of_an_exact_root():
    targets = checks.parse_targets("1,0;1,1;3,0;3,1;5,0;5,1")
    assert checks.root_residual("double", targets, FAR_ROOT) >= checks.RESIDUAL_TOL
    assert checks.rounds_exact_root("double", targets, FAR_ROOT)
    nudged = list(FAR_ROOT)
    nudged[2] *= 1 + 1e-13
    assert not checks.rounds_exact_root("double", targets, nudged)
