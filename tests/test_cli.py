import json
import math

import numpy as np
import pytest

from feastube import cli
from feastube.problem import get_problem, registered_problems
from feastube import value as val

import oracles
from oracles import write_csv_rows

# The certify benchmark's settings: --lambda 120 (above every problem's
# tracking rate, so no check is skipped) with an explicit grid and horizon.
CERTIFY_GRID = {               # problem: (--grid DX,DT, horizon length)
    "moving-wall-1d": ("0.05,0.05", 4.0),
    "quadratic-cost-1d": ("0.05,0.05", 4.0),
    "hover-1d": ("0.01,0.01", 2.0),
    "corridor-2d": ("0.1,0.1", 1.0),
}
CERTIFY_T0 = 1.25


def _certify_args(name):
    grid, length = CERTIFY_GRID[name]
    return ["--problem", name, "--lambda", "120", "--grid", grid,
            "--t0", repr(CERTIFY_T0), "--horizon", repr(CERTIFY_T0 + length),
            "--seed", "7"]


# lambda 6 sits below moving-wall's tracking rate: lipschitz and time-lip skip.
SKIPPING_ARGS = ["--problem", "moving-wall-1d", "--lambda", "6", "--points", "61"]


def _capture(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.run(["frobnicate"]) == 1


def test_missing_command_is_usage_error():
    assert cli.run([]) == 1


@pytest.mark.parametrize("command, meaning", [
    ("value", "end time of the value sweep"),
    ("analyze", "end time of the value sweep"),
    ("pipeline", "end time of the value sweep"),
    ("track", "length of the tracked path: it runs from --t0 to --t0 + HORIZON"),
    ("geom", "not used by this command"),
    ("ipc", "not used by this command"),
    ("nft", "not used by this command"),
])
def test_horizon_help_says_what_it_means(command, meaning, capsys):
    assert cli.run([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"--horizon HORIZON {meaning}" in text


def test_geom_dist_line(capsys):
    code = cli.run(["geom", "dist", "--problem", "moving-wall-1d",
                    "--t0", "0", "--x0", "1.3"])
    assert code == 0
    line = _capture(capsys)
    assert line["distance"] == pytest.approx(0.3, abs=1e-6)
    assert line["witness"][0] == pytest.approx(1.0, abs=1e-6)


def test_geom_active_line(capsys):
    code = cli.run(["geom", "active", "--problem", "moving-wall-1d",
                    "--t0", "0", "--x0", "1.0", "--delta", "0.1"])
    assert code == 0
    line = _capture(capsys)
    assert line["indices"] == [0]
    assert line["conservative"] is True


def test_ipc_verify_pass_and_artifact(tmp_path, capsys):
    code = cli.run(["ipc", "verify", "--problem", "moving-wall-1d",
                    "--rmin", "0.9", "--ntime", "30", "--ndirs", "2",
                    "--out", str(tmp_path)])
    assert code == 0
    line = _capture(capsys)
    assert line["ok"] and line["r"] == pytest.approx(1.0, abs=1e-9)
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["r"] == pytest.approx(1.0, abs=1e-9)
    assert set(cert) >= {"r", "delta", "eps", "eta", "n_samples", "worst_witness"}


def test_ipc_verify_pinched_corridor_fails(capsys):
    code = cli.run(["ipc", "verify", "--problem", "corridor-2d",
                    "--set", "width=0.01", "--delta", "0.1",
                    "--rmin", "0.5", "--ntime", "8", "--ndirs", "8"])
    assert code == 2
    line = _capture(capsys)
    assert not line["ok"]
    assert line["worst"]["r"] <= 1e-9


def test_unknown_problem_is_usage_error(capsys):
    assert cli.run(["geom", "dist", "--problem", "no-such"]) == 1


def test_nft_run_roundtrip(tmp_path, capsys):
    code = cli.run(["nft", "run", "--problem", "moving-wall-1d",
                    "--t0", str(math.pi), "--t1", str(math.pi + 1),
                    "--x0", "0.95", "--uref", "0.0", "--dt", "2e-3",
                    "--out", str(tmp_path)])
    assert code == 0
    line = _capture(capsys)
    assert line["ok"]
    data = cli.read_trajectory_csv(tmp_path / "corrected.csv")
    assert np.all(data["maxh"] <= 1e-9)
    ref = cli.read_trajectory_csv(tmp_path / "reference.csv")
    assert np.max(ref["dist"]) == pytest.approx(line["rho_in"], rel=1e-6)


def test_track_run(tmp_path, capsys):
    code = cli.run(["track", "run", "--problem", "moving-wall-1d",
                    "--x0", "0.5", "--x1", "0.4", "--horizon", "2",
                    "--dt", "2e-3", "--out", str(tmp_path)])
    assert code == 0
    dev = cli.read_trajectory_like(tmp_path / "deviations.csv")
    assert np.all(dev["deviation"] <= dev["bound"] + 1e-12)


def test_value_solve_field_roundtrip(tmp_path, capsys):
    code = cli.run(["value", "solve", "--problem", "moving-wall-1d",
                    "--lambda", "6", "--points", "46", "--horizon", "2",
                    "--out", str(tmp_path)])
    assert code == 0
    field = cli.read_field(tmp_path, "field")
    assert field.lam == 6.0
    v = val.evaluate_value(field, 0.0, [0.0])
    assert np.isfinite(v)


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# pinned settings\nproblem = moving-wall-1d\nt0 = 0.0\n"
                   "x0 = 1.3\ndelta = 0.2\n")
    code = cli.run(["geom", "active", "--config", str(cfg), "--delta", "0.1"])
    assert code == 0
    line = _capture(capsys)
    # flag wins over config for delta; config supplies problem and x0
    assert line["radius_delta"] == 0.1
    assert line["x"] == [1.3]


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nope = 1\n")
    assert cli.run(["geom", "dist", "--config", str(cfg)]) == 1


def test_pipeline_deterministic(tmp_path, capsys):
    args = ["pipeline", "--problem", "moving-wall-1d", "--lambda", "6",
            "--points", "61", "--seed", "3"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.run(args + ["--out", str(out1)]) == 0
    assert cli.run(args + ["--out", str(out2)]) == 0
    files1 = sorted(fp.relative_to(out1) for fp in out1.rglob("*") if fp.is_file())
    files2 = sorted(fp.relative_to(out2) for fp in out2.rglob("*") if fp.is_file())
    assert files1 and files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


def test_pipeline_artifacts_parse_back(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.run(["pipeline", "--problem", "moving-wall-1d", "--lambda", "6",
                    "--points", "61", "--out", str(out)]) == 0
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert verdicts["assumptions"] is True
    assert verdicts["ipc"] is True
    field = cli.read_field(out, "field_relaxed")
    assert field.relaxed
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["ok"]
    assert (out / "summary.json").exists()


@pytest.mark.parametrize("name", registered_problems())
def test_pipeline_deterministic_on_every_problem(name, tmp_path, capsys):
    args = ["pipeline"] + _certify_args(name)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.run(args + ["--out", str(out1)]) == 0
    assert cli.run(args + ["--out", str(out2)]) == 0
    tree = _tree(out1)
    assert "summary.json" in tree and tree == _tree(out2)
    # The bytes are those of the row-at-a-time writer, not only stable.
    csvs = [rel for rel in tree if rel.endswith(".csv")]
    assert "field.csv" in csvs and "field_relaxed.csv" in csvs
    for rel in csvs:
        lines = tree[rel].decode().splitlines()
        names = lines[0].split(",")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        data = np.array(rows).reshape(len(rows), len(names))
        write_csv_rows(tmp_path / "rows.csv", {c: data[:, j] for j, c in enumerate(names)})
        assert (tmp_path / "rows.csv").read_bytes() == tree[rel], rel


@pytest.mark.parametrize("action", ["lipschitz", "decay", "relax", "time-lip"])
@pytest.mark.parametrize("lam", ["6", "120"])
def test_analyze_action(action, lam, tmp_path, capsys):
    """Below the tracking rate the lipschitz and time-lip checks skip with a
    reason; decay and relax still run.  At lambda 120 every check runs."""
    args = SKIPPING_ARGS if lam == "6" else _certify_args("moving-wall-1d")
    assert cli.run(["analyze", action] + args + ["--out", str(tmp_path)]) == 0
    line = _capture(capsys)
    assert line["cmd"] == f"analyze {action}" and line["ok"] is True
    results = json.loads((tmp_path / "summary.json").read_text())["results"]
    if lam == "6" and action in ("lipschitz", "time-lip"):
        assert "lambda=6.0" in line["skipped"]
        assert results == {"skipped": {"reason": line["skipped"]}}
    else:
        assert "skipped" not in line
        [(key, entry)] = results.items()
        assert entry["passed"] is True


@pytest.mark.parametrize("args, named", [
    (["--problem", "moving-wall-1d", "--ntime", "0"], "n_time=0"),
    (["--problem", "moving-wall-1d", "--ntime", "-3"], "n_time=-3"),
    (["--problem", "corridor-2d", "--ndirs", "0"], "n_dirs=0"),
])
def test_ipc_verify_names_bad_sampling_option(args, named, capsys):
    assert cli.run(["ipc", "verify"] + args) == 1
    assert named in _capture(capsys)["error"]


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_analyze_lipschitz_rejects_empty_pair_budget(budget, tmp_path, capsys):
    args = ["--problem", "moving-wall-1d", "--lambda", "120", "--grid", "0.05,0.05",
            "--pair-budget", budget, "--out", str(tmp_path)]
    assert cli.run(["analyze", "lipschitz"] + args) == 1
    assert f"pair_budget={budget}" in _capture(capsys)["error"]
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("name", registered_problems())
@pytest.mark.parametrize("cmd", ["nft", "track"])
def test_run_defaults_on_every_problem(cmd, name, capsys):
    assert cli.run([cmd, "run", "--problem", name]) == 0
    assert _capture(capsys)["cmd"] == f"{cmd} run"


@pytest.mark.parametrize("name", registered_problems())
@pytest.mark.parametrize("cmd", ["value solve", "pipeline"])
def test_value_paths_at_defaults_run_or_name_lambda(cmd, name, tmp_path, capsys):
    """At defaults, a discount at or below a1 leaves the automatic horizon
    undefined: the error names the option to raise and the threshold."""
    code = cli.run(cmd.split() + ["--problem", name, "--out", str(tmp_path)])
    line = _capture(capsys)
    if code != 0:
        a1 = get_problem(name).data.a1
        assert code == 1
        assert f"raise --lambda above {name}'s a1 = {a1}" in line["error"]
        assert "--horizon" in line["error"]
    else:
        assert line["cmd"] == cmd and line["ok"] is True


def test_grid_too_coarse_hint_uses_the_per_axis_reach(tmp_path, capsys):
    # the default grid's dt is sized by the Euclidean M = sqrt 2, but the
    # fastest sampled control moves only 1 * dt along the constrained axis
    args = ["pipeline", "--problem", "corridor-2d", "--lambda", "6", "--out", str(tmp_path)]
    assert cli.run(args) == 2
    line = _capture(capsys)
    assert line["kind"] == "GridTooCoarse"
    assert "feasible node [-2.      0.3375] at t=4.0658" in line["error"]
    assert "axis 1 reach 0.03536 against step 0.0375" in line["error"]
    assert "axis 0" not in line["error"]
    assert "raise dt to at least 0.0375, or refine axis 1 to a step of at most 0.03536" in line["error"]


@pytest.mark.parametrize("dt", ["0", "-0.001"])
@pytest.mark.parametrize("cmd", ["nft", "track"])
def test_run_rejects_nonpositive_dt(cmd, dt, capsys):
    assert cli.run([cmd, "run", "--problem", "moving-wall-1d", "--dt", dt]) == 1
    assert "dt" in _capture(capsys)["error"]


@pytest.mark.parametrize("t1", ["0.5", "1"])
def test_nft_run_rejects_t1_not_after_t0(t1, capsys):
    args = ["nft", "run", "--problem", "moving-wall-1d", "--t0", "1", "--t1", t1]
    assert cli.run(args) == 1
    err = _capture(capsys)["error"]
    assert "t0=1.0" in err and f"t1={float(t1)}" in err


def _tree(root):
    return {str(fp.relative_to(root)): fp.read_bytes()
            for fp in sorted(root.rglob("*")) if fp.is_file()}


def _oracle_run(argv):
    args = cli._build_parser().parse_args(argv)
    cfg = cli.resolve_config(args)
    if args.command == "pipeline":
        return oracles.cli_pipeline(cfg)
    return oracles.cli_analyze(cfg, args.action)


@pytest.mark.parametrize("command", ["pipeline", "analyze lipschitz", "analyze decay",
                                     "analyze relax", "analyze time-lip"])
@pytest.mark.parametrize("case", sorted(CERTIFY_GRID) + ["skipping"])
def test_checks_match_separate_copies(case, command, tmp_path, capsys):
    """analyze and pipeline give the same exit code, stdout and artifact bytes
    as the reference copies in which each command carries its own checks."""
    args = SKIPPING_ARGS if case == "skipping" else _certify_args(case)
    argv = command.split() + args
    want_code = _oracle_run(argv + ["--out", str(tmp_path / "old")])
    want_out = capsys.readouterr().out
    got_code = cli.run(argv + ["--out", str(tmp_path / "new")])
    got_out = capsys.readouterr().out
    assert got_code == want_code
    assert got_out == want_out
    want, got = _tree(tmp_path / "old"), _tree(tmp_path / "new")
    assert want and sorted(got) == sorted(want)
    for rel in want:
        assert got[rel] == want[rel], rel


def test_pipeline_honours_probes(tmp_path, capsys):
    """pipeline's time check runs at every --probes point, as analyze time-lip
    does; the reference copy checked the anchor only.  Nothing else moves."""
    args = _certify_args("moving-wall-1d") + ["--probes", "0.1;-0.5"]
    assert cli.run(["pipeline"] + args + ["--out", str(tmp_path / "pipe")]) == 0
    assert cli.run(["analyze", "time-lip"] + args + ["--out", str(tmp_path / "tl")]) == 0
    assert _oracle_run(["pipeline"] + args + ["--out", str(tmp_path / "old")]) == 0

    def summary(name):
        return json.loads((tmp_path / name / "summary.json").read_text())["results"]

    entry = summary("pipe")["time_lipschitz"]
    assert entry == summary("tl")["time_lipschitz"]
    assert entry["probe_passed"] == [True, True]
    old = summary("old")
    assert len(old["time_lipschitz"]["probe_passed"]) == 1
    assert {k: v for k, v in summary("pipe").items() if k != "time_lipschitz"} == \
        {k: v for k, v in old.items() if k != "time_lipschitz"}
    new_tree, old_tree = _tree(tmp_path / "pipe"), _tree(tmp_path / "old")
    assert sorted(new_tree) == sorted(old_tree)
    assert [k for k in new_tree if new_tree[k] != old_tree[k]] == ["summary.json"]


def _config_file(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_config_numbers_without_default(tmp_path, capsys):
    """lam and t1 default to None; a config file still gives them as numbers."""
    solve = ["value", "solve", "--problem", "moving-wall-1d", "--points", "46",
             "--horizon", "2"]
    assert cli.run(solve + ["--lambda", "6"]) == 0
    want = _capture(capsys)
    assert cli.run(solve + ["--config", _config_file(tmp_path, "lam = 6\n")]) == 0
    assert _capture(capsys) == want

    nft = ["nft", "run", "--problem", "moving-wall-1d", "--dt", "2e-3"]
    assert cli.run(nft + ["--t1", "2"]) == 0
    want = _capture(capsys)
    assert cli.run(nft + ["--config", _config_file(tmp_path, "t1 = 2\n")]) == 0
    assert _capture(capsys) == want


def test_config_number_unreadable(tmp_path, capsys):
    cfg = _config_file(tmp_path, "lam = abc\n")
    assert cli.run(["value", "solve", "--config", cfg]) == 1
    err = _capture(capsys)["error"]
    assert "'lam'" in err and "'abc'" in err


def test_nft_run_rejects_interval_under_half_step(capsys):
    args = ["nft", "run", "--problem", "moving-wall-1d", "--t0", "0", "--t1", "0.0004"]
    assert cli.run(args) == 1
    err = _capture(capsys)["error"]
    assert "--t0" in err and "--t1" in err and "--dt=0.001" in err


def test_nft_run_reports_branch_per_piece(tmp_path, capsys):
    args = ["nft", "run", "--problem", "moving-wall-1d", "--t0", repr(math.pi),
            "--t1", repr(math.pi + 1), "--x0", "0.95", "--uref", "0.0", "--dt", "2e-3"]
    assert cli.run(args + ["--out", str(tmp_path)]) == 0
    pieces = _capture(capsys)["pieces"]
    assert set(pieces) == {"pass", "push", "restart"} and pieces["restart"] >= 1
    assert json.loads((tmp_path / "nft_result.json").read_text())["pieces"] == pieces


# lambda 0.1 sits below moving-wall's growth threshold a1 = 2.8.
LOW_DISCOUNT_ARGS = ["--problem", "moving-wall-1d", "--lambda", "0.1", "--horizon", "2",
                     "--points", "41"]


def test_pipeline_skips_decay_below_threshold(tmp_path, capsys):
    assert cli.run(["pipeline"] + LOW_DISCOUNT_ARGS + ["--out", str(tmp_path)]) == 0
    verdicts = json.loads((tmp_path / "verdicts.json").read_text())
    assert verdicts["decay"] == "skipped: need lambda > a1 (2.8)"
    assert (tmp_path / "summary.json").exists()


def test_analyze_decay_skips_below_threshold(tmp_path, capsys):
    assert cli.run(["analyze", "decay"] + LOW_DISCOUNT_ARGS + ["--out", str(tmp_path)]) == 0
    line = _capture(capsys)
    assert line["ok"] is True and line["skipped"] == "need lambda > a1 (2.8)"
