import json

import pytest

from phasecomp import cli


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_list(capsys):
    code, out, _ = run(["catalog", "--list"], capsys)
    assert code == cli.EXIT_OK
    lines = out.strip().split("\n")
    assert len(lines) == 16
    assert all("p0=1.000000000000" in line for line in lines)


def test_catalog_export(capsys):
    code, out, _ = run(["catalog", "--name", "B3"], capsys)
    assert code == cli.EXIT_OK
    data = json.loads(out)
    assert data["command"] == "catalog"
    assert data["phases_pi"] == pytest.approx([0.0, 2 / 3, 0.0])
    assert data["nullified"] == [[1, 0]]


def test_unknown_sequence_exit_code(capsys):
    code, _, err = run(["catalog", "--name", "nope"], capsys)
    assert code == cli.EXIT_UNKNOWN_SEQUENCE
    assert "unknown sequence" in err


def test_malformed_targets_exit_code(capsys):
    code, _, err = run(["solve", "--n", "3", "--targets", "1,x"], capsys)
    assert code == cli.EXIT_USAGE
    code, _, err = run(["solve", "--n", "3", "--targets", "1,0;1,0,0"], capsys)
    assert code == cli.EXIT_USAGE


def test_model_target_mismatch_exit_code(capsys):
    code, _, err = run(
        ["solve", "--n", "3", "--targets", "1,0", "--model", "triple"], capsys
    )
    assert code == cli.EXIT_USAGE


def test_unwritable_output_exit_code(capsys):
    code, _, err = run(
        ["catalog", "--name", "B3", "--out", "/proc/no-such-dir/x.json"], capsys
    )
    assert code == cli.EXIT_UNWRITABLE


def test_solve_emits_root(capsys):
    code, out, _ = run(
        ["solve", "--n", "3", "--targets", "1,0", "--seeds", "30", "--rng", "1"],
        capsys,
    )
    assert code == cli.EXIT_OK
    data = json.loads(out)
    assert data["command"] == "solve"
    assert data["rng_seed"] == 1
    phases = [s["phases_pi"] for s in data["solutions"]]
    assert any(abs(p[0] - 2 / 3) < 1e-9 for p in phases)


def test_solve_output_file_and_outdir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    code, out, _ = run(
        ["solve", "--n", "3", "--targets", "1,0", "--seeds", "20", "--out", "roots.json"],
        capsys,
    )
    assert code == cli.EXIT_OK
    target = tmp_path / "roots.json"
    assert target.exists()
    assert json.loads(target.read_text())["command"] == "solve"


def test_solve_reruns_byte_identical(tmp_path, capsys):
    argv = ["solve", "--n", "3", "--targets", "1,0", "--seeds", "25", "--rng", "4"]
    paths = []
    for name in ("a.json", "b.json"):
        p = tmp_path / name
        code, _, _ = run(argv + ["--out", str(p)], capsys)
        assert code == cli.EXIT_OK
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_profile_csv(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run(
        ["profile", "--seq", "B3", "--points", "11", "--out", str(out_path)], capsys
    )
    assert code == cli.EXIT_OK
    lines = out_path.read_text().strip().split("\n")
    assert lines[1] == "alpha,eps,p"
    assert len(lines) == 2 + 11 * 11


def test_profile_json_with_metrics(capsys):
    code, out, _ = run(
        ["profile", "--seq", "B3", "--points", "21", "--format", "json", "--metrics"],
        capsys,
    )
    assert code == cli.EXIT_OK
    # two JSON documents are emitted back to back; split on the boundary
    head, _, tail = out.partition("}\n{")
    grid = json.loads(head + "}")
    metrics = json.loads("{" + tail)
    assert grid["command"] == "profile"
    assert metrics["command"] == "profile-metrics"
    assert [lvl["m"] for lvl in metrics["levels"]] == [2, 3, 4]


def test_profile_metrics_written_beside_out(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    argv = ["profile", "--seq", "B3", "--points", "5", "--metrics", "--out"]
    assert run(argv + ["sub/grid.csv"], capsys)[0] == cli.EXIT_OK
    assert (tmp_path / "sub" / "grid.csv").is_file()
    metrics = json.loads((tmp_path / "sub" / "grid.metrics.json").read_text())
    assert metrics["command"] == "profile-metrics"
    assert not (tmp_path / "grid.metrics.json").exists()
    # a bare file name keeps both artifacts in the output directory
    assert run(argv + ["B3.csv"], capsys)[0] == cli.EXIT_OK
    assert (tmp_path / "B3.csv").is_file()
    assert (tmp_path / "B3.metrics.json").is_file()


def test_profile_eps_rejected_for_double(capsys):
    code, _, err = run(["profile", "--seq", "B3", "--eps", "0.1"], capsys)
    assert code == cli.EXIT_USAGE


def test_profile_triple_eps(capsys):
    code, out, _ = run(
        [
            "profile", "--seq", "U9", "--model", "triple", "--eps", "0.05",
            "--points", "5", "--format", "json",
        ],
        capsys,
    )
    assert code == cli.EXIT_OK
    data = json.loads(out)
    assert data["fixed"] == {"eps": 0.05}
    assert data["axes"][0]["name"] == "omega"


def test_coeffs_caps_mismatch(capsys):
    code, _, _ = run(
        ["coeffs", "--seq", "B3", "--model", "double", "--caps", "2,2,2"], capsys
    )
    assert code == cli.EXIT_USAGE


def test_coeffs_reports_nullified_term(capsys):
    code, out, _ = run(["coeffs", "--seq", "B3", "--caps", "1,1"], capsys)
    assert code == cli.EXIT_OK
    data = json.loads(out)
    entry = next(e for e in data["entries"] if e["idx"] == [1, 0])
    assert abs(complex(entry["re"], entry["im"])) < 1e-12


def test_transform_ops(capsys):
    code, out, _ = run(["transform", "--seq", "B3", "--op", "sign_flip"], capsys)
    assert code == cli.EXIT_OK
    assert json.loads(out)["phases_pi"] == pytest.approx([0.0, -2 / 3, 0.0])

    code, out, _ = run(["transform", "--seq", "B3", "--op", "add2pi:2:1"], capsys)
    assert code == cli.EXIT_OK
    assert json.loads(out)["phases_pi"][1] == pytest.approx(2 / 3 + 2)

    code, out, _ = run(["transform", "--seq", "B3", "--op", "shift:0.5"], capsys)
    assert code == cli.EXIT_OK
    assert json.loads(out)["phases_pi"] == pytest.approx([0.5, 2 / 3 + 0.5, 0.5])

    code, _, _ = run(["transform", "--seq", "B3", "--op", "bogus"], capsys)
    assert code == cli.EXIT_USAGE

    code, _, _ = run(["transform", "--seq", "B3", "--op", "add2pi:9:1"], capsys)
    assert code == cli.EXIT_USAGE


def assert_usage_error(argv, capsys):
    # a domain ValueError must surface as a one-line usage error, not exit 1
    code, _, err = run(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: ") and "Traceback" not in err


def test_profile_too_few_points_exit_code(capsys):
    assert_usage_error(["profile", "--seq", "B3", "--points", "1"], capsys)


def test_solve_zero_seeds_exit_code(capsys):
    assert_usage_error(["solve", "--n", "3", "--targets", "1,0", "--seeds", "0"], capsys)


def test_coeffs_zero_caps_exit_code(capsys):
    assert_usage_error(["coeffs", "--seq", "B3", "--caps", "0,0"], capsys)


def test_profile_points_over_cap_exit_code(capsys):
    argv = ["profile", "--seq", "B3", "--points", str(cli.MAX_POINTS + 1)]
    assert_usage_error(argv, capsys)


def test_solve_seeds_over_cap_exit_code(capsys):
    argv = ["solve", "--n", "3", "--targets", "1,0", "--seeds", str(cli.MAX_SEEDS + 1)]
    assert_usage_error(argv, capsys)
