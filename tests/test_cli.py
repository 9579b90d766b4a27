import argparse
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from feastube import analysis as ana
from feastube import cli
from feastube.errors import GridTooCoarse
from feastube.problem import ControlSamples, SamplingSpec, get_problem, registered_problems
from feastube import value as val

import oracles
from oracles import write_csv_rows
from util import (CERTIFY_GRID, certify_args, read_field, read_trajectory_csv,
                  read_trajectory_like)

ROOT = Path(__file__).resolve().parent.parent

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
    if meaning == "not used by this command":     # neither offered nor accepted
        assert "--horizon" not in text
        assert cli.run([command, *ACTIONS[command], "--horizon", "9"]) == 1
        assert "--horizon" in capsys.readouterr().err
    else:
        assert f"--horizon HORIZON {meaning}" in text


# One action of each subcommand, and the options each one reads during a run.
ACTIONS = {"geom": ["dist"], "ipc": ["verify"], "nft": ["run"], "track": ["run"],
           "value": ["solve"], "analyze": ["decay"], "pipeline": []}
_MARGIN_OPTIONS = {"problem", "set", "lambda", "config",
                   "rmin", "delta", "ntime", "ndirs", "level", "out"}
_FIELD_OPTIONS = {"problem", "set", "lambda", "config", "grid", "points", "t0", "level",
                  "tol", "mixture-grid", "horizon", "out"}
_CHECK_OPTIONS = _FIELD_OPTIONS | {"rmin", "delta", "ntime", "ndirs", "seed", "pair-budget",
                                   "probes", "tol-decay"}
OPTIONS = {
    "geom": {"problem", "set", "lambda", "config", "t0", "x0", "delta"},
    "ipc": _MARGIN_OPTIONS,
    "nft": _MARGIN_OPTIONS | {"t0", "t1", "x0", "uref", "dt"},
    "track": _MARGIN_OPTIONS | {"t0", "horizon", "x0", "x1", "dt"},
    "value": _FIELD_OPTIONS | {"relaxed"},
    "analyze": _CHECK_OPTIONS,
    "pipeline": _CHECK_OPTIONS,
}


def _accepted_flags(command):
    [sub] = [a for a in cli._build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    return {a.option_strings[0][2:] for a in sub.choices[command]._actions
            if a.option_strings and a.dest != "help"}


def _config_key(option):
    return "lam" if option == "lambda" else option.replace("-", "_")


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_subcommand_accepts_and_resolves_only_its_options(command):
    assert _accepted_flags(command) == OPTIONS[command]
    args = cli._build_parser().parse_args([command, *ACTIONS[command]])
    resolved = {_config_key(o) for o in OPTIONS[command]} - {"config"}
    assert set(cli.resolve_config(args)) == resolved


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_flag_the_subcommand_does_not_read_is_refused(command, capsys):
    """Covers ``value solve --dt 0.5`` and ``ipc verify --t0 3``, which once
    ran at the default dt and on [0, 2 pi]."""
    unread = sorted(set().union(*OPTIONS.values()) - OPTIONS[command])
    assert unread
    for option in unread:
        assert cli.run([command, *ACTIONS[command], f"--{option}", "0.5"]) == 1
        assert f"--{option}" in capsys.readouterr().err


def test_unread_flag_prints_the_subcommands_usage(capsys):
    assert cli.run(["value", "solve", "--dt", "0.5"]) == 1
    err = capsys.readouterr().err
    assert "--dt" in err
    assert err.startswith("usage: feastube value ") and "--mixture-grid" in err
    assert "{geom," not in err


def test_bad_flag_after_a_good_run_prints_the_subcommands_usage(tmp_path, capsys):
    # the parser is built once per process; a good run leaves nothing in it
    assert cli._build_parser() is cli._build_parser()
    assert cli.run(["pipeline", *certify_args("moving-wall-1d"), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert cli.run(["value", "solve", "--dt", "0.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: feastube value ") and "--mixture-grid" in err
    assert "--dt" in err and "{geom," not in err


@pytest.mark.parametrize("argv, message", [
    (["value", "solve", "--horizon", "abc"], "--horizon expects a number or 'auto', got 'abc'"),
    (["geom", "dist", "--x0", "abc"], "--x0 expects 1 number(s) separated by commas, got 'abc'"),
    (["value", "solve", "--grid", "0.1"],
     "--grid DX,DT expects 2 number(s) separated by commas, got '0.1'"),
    (["value", "solve", "--grid", "0,0.1"],
     "--grid DX,DT expects two positive finite steps, got '0,0.1'"),
    (["value", "solve", "--points", "1"], "--points expects an integer >= 2, got 1"),
    (["value", "solve", "--relaxed", "--mixture-grid", "0"],
     "--mixture-grid expects an integer >= 1, got 0"),
    (["value", "solve", "--tol", "0"], "--tol expects a positive number, got 0.0"),
])
def test_malformed_value_names_its_option(argv, message, capsys):
    """These once printed ``could not convert string to float: 'abc'``,
    ``not enough values to unpack``, an ``OverflowError`` traceback,
    ``degenerate grid`` after a divide-by-zero warning, ``mixture resolution
    must be >= 1`` and ``tol and dt must be positive``."""
    assert cli.run(argv) == 1
    assert _capture(capsys) == {"error": message}


@pytest.mark.parametrize("command, key", [
    ("geom", "out"), ("ipc", "t0"), ("nft", "horizon"), ("track", "t1"),
    ("value", "dt"), ("analyze", "relaxed"), ("pipeline", "x0"),
])
def test_config_key_the_subcommand_does_not_read_is_refused(command, key, tmp_path, capsys):
    cfg = _config_file(tmp_path, f"problem = moving-wall-1d\n{key} = 1\n")
    assert cli.run([command, *ACTIONS[command], "--config", cfg]) == 1
    err = _capture(capsys)["error"]
    assert f"config key {key!r}" in err and repr(command) in err


def test_config_file_switches_relaxed(tmp_path, capsys):
    solve = ["value", "solve", "--problem", "moving-wall-1d", "--lambda", "6",
             "--points", "46", "--horizon", "2"]
    assert cli.run(solve + ["--relaxed"]) == 0
    want = _capture(capsys)
    assert want["relaxed"] is True
    assert cli.run(solve + ["--config", _config_file(tmp_path, "relaxed = true\n")]) == 0
    assert _capture(capsys) == want
    assert cli.run(solve + ["--config", _config_file(tmp_path, "relaxed = yes\n")]) == 1
    assert "'relaxed'" in _capture(capsys)["error"]


def test_pipeline_records_the_options_it_reads(tmp_path, capsys):
    assert cli.run(["pipeline"] + SKIPPING_ARGS + ["--out", str(tmp_path)]) == 0
    recorded = json.loads((tmp_path / "config.json").read_text())
    assert set(recorded) == {_config_key(o) for o in OPTIONS["pipeline"]} - {"config", "out"}
    assert len(recorded) == 18 and recorded["horizon"] == "auto" and recorded["set"] == []


def test_readme_command_lines_parse():
    lines = [line.split("#", 1)[0].split()
             for line in (ROOT / "README.md").read_text().splitlines()
             if line.startswith("feastube ")]
    assert len(lines) >= 8
    parser = cli._build_parser()
    for words in lines:
        try:
            parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {' '.join(words)}")


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


# corridor-2d pinched to width 0.01: no inward margin at t = 0
PINCHED = ["--problem", "corridor-2d", "--set", "width=0.01", "--delta", "0.1"]


@pytest.mark.parametrize("argv", [["analyze", "decay", "--lambda", "6"],
                                  ["nft", "run"], ["track", "run"]])
def test_failed_margins_print_one_line_with_the_worst_sample(argv, capsys):
    assert cli.run([*argv, *PINCHED]) == 2
    [text] = capsys.readouterr().out.splitlines()
    line = json.loads(text)
    assert set(line) == {"cmd", "ok", "reason", "worst"}
    assert line["cmd"] == " ".join(argv[:2]) and line["ok"] is False
    assert line["reason"] == "margin verification failed"
    assert line["worst"]["t"] == 0.0 and line["worst"]["r"] <= 1e-9


def test_pipeline_stops_at_failed_margins(tmp_path, capsys):
    assert cli.run(["pipeline", *PINCHED, "--out", str(tmp_path)]) == 2
    verdicts = {"assumptions": True, "ipc": False}
    assert _capture(capsys) == {"cmd": "pipeline", "ok": False, "verdicts": verdicts}
    assert sorted(f.name for f in tmp_path.iterdir()) == \
        ["assumptions.json", "certificate.json", "config.json", "verdicts.json"]
    assert json.loads((tmp_path / "verdicts.json").read_text()) == verdicts
    assert json.loads((tmp_path / "certificate.json").read_text())["ok"] is False


@pytest.mark.parametrize("argv", [
    ["nft", "run", "--t0", "3.14", "--x0", "0.95"],
    ["track", "run", "--horizon", "2"],
])
def test_failed_construction_names_what_to_change(argv, capsys):
    assert cli.run([*argv, "--problem", "moving-wall-1d", "--dt", "0.2"]) == 2
    assert _capture(capsys) == {
        "cmd": " ".join(argv[:2]), "ok": False,
        "reason": "grid step 0.2 exceeds the ledger step 0.0781; reduce dt"}


def test_toolkit_error_prints_its_kind(capsys):
    argv = ["value", "solve", "--problem", "corridor-2d", "--lambda", "6",
            "--grid", "0.1,0.025", "--horizon", "0.2"]
    assert cli.run(argv) == 2
    line = _capture(capsys)
    assert set(line) == {"error", "kind"} and line["kind"] == "GridTooCoarse"
    assert line["error"].startswith(
        "feasible node [-2.  -0.5] at t=0.0 has no stencil-feasible velocity")


@pytest.mark.parametrize("argv, kind, message", [
    (["value", "solve", "--problem", "quadratic-cost-1d"], "DiscountTooSmall",
     "need lambda > a1 (2.0), got 1.0: raise --lambda above quadratic-cost-1d's a1 = 2.0"),
    (["nft", "run", "--problem", "moving-wall-1d", "--t0", "0", "--x0", "5"], "InfeasibleStart",
     "reference start infeasible at t0=0.0"),
])
def test_toolkit_error_that_is_a_value_error_prints_its_kind(argv, kind, message, tmp_path,
                                                             capsys):
    # a toolkit error that also subclasses ValueError prints its kind and
    # keeps the exit code of a setting to change
    assert cli.run([*argv, "--out", str(tmp_path)]) == 1
    line = _capture(capsys)
    assert set(line) == {"error", "kind"} and line["kind"] == kind
    assert line["error"].startswith(message)


def test_unknown_problem_is_usage_error(capsys):
    assert cli.run(["geom", "dist", "--problem", "no-such"]) == 1
    line = _capture(capsys)
    assert set(line) == {"error", "kind"} and line["kind"] == "UnknownProblem"


def test_nft_run_roundtrip(tmp_path, capsys):
    code = cli.run(["nft", "run", "--problem", "moving-wall-1d",
                    "--t0", str(math.pi), "--t1", str(math.pi + 1),
                    "--x0", "0.95", "--uref", "0.0", "--dt", "2e-3",
                    "--out", str(tmp_path)])
    assert code == 0
    line = _capture(capsys)
    assert line["ok"]
    data = read_trajectory_csv(tmp_path / "corrected.csv")
    assert np.all(data["maxh"] <= 1e-9)
    ref = read_trajectory_csv(tmp_path / "reference.csv")
    assert np.max(ref["dist"]) == pytest.approx(line["rho_in"], rel=1e-6)


def test_track_run(tmp_path, capsys):
    code = cli.run(["track", "run", "--problem", "moving-wall-1d",
                    "--x0", "0.5", "--x1", "0.4", "--horizon", "2",
                    "--dt", "2e-3", "--out", str(tmp_path)])
    assert code == 0
    dev = read_trajectory_like(tmp_path / "deviations.csv")
    assert np.all(dev["deviation"] <= dev["bound"] + 1e-12)


def test_value_solve_field_roundtrip(tmp_path, capsys):
    argv = ["value", "solve", "--problem", "moving-wall-1d",
            "--lambda", "6", "--points", "46", "--horizon", "2"]
    code = cli.run(argv + ["--out", str(tmp_path)])
    assert code == 0
    field = read_field(tmp_path, "field")
    assert field.lam == 6.0
    v = val.evaluate_value(field, 0.0, [0.0])
    assert np.isfinite(v)
    want = _solved_field(argv, relaxed=False)
    assert field.values.shape == want.values.shape
    assert np.array_equal(field.values.view(np.int64), want.values.view(np.int64))


def _solved_field(argv, relaxed):
    """The field ``solve_value`` returns at the settings of ``argv``."""
    cfg = cli.resolve_config(cli._build_parser().parse_args(argv))
    p = cli._problem_from(cfg)
    return val.solve_value(p, cfg["lam"], cli._grid_from(cfg, p), relaxed=relaxed,
                           tol=cfg["tol"], level=cfg["level"],
                           mixture_grid=cfg["mixture_grid"], horizon=cli._horizon_arg(cfg))


def _edge_field(ndim, relaxed):
    axes = tuple(np.linspace(-1.0 - d, 0.5 + d, 5 + 2 * d) for d in range(ndim))
    rng = np.random.default_rng(ndim)
    values = rng.normal(size=(4, *(len(a) for a in axes)))
    flat = values.reshape(-1)
    flat[:4] = [-0.0, 0.0, np.inf, -np.inf]
    flat[-1] = 5e-324
    return val.ValueField(relaxed=relaxed, lam=6.5, t0=0.25, dt=0.1, T=0.55, axes=axes,
                          values=values, tail_bound=1.0 / 3.0, a1=0.7, a2=2.0,
                          x0_bound=1.5, problem_name="corridor-2d" if ndim == 2 else "hover-1d",
                          level=1 if relaxed else 0, mixture_grid=4 if relaxed else 2)


@pytest.mark.parametrize("relaxed", [False, True])
@pytest.mark.parametrize("ndim", [1, 2])
def test_field_roundtrip_is_bit_exact(ndim, relaxed, tmp_path):
    field = _edge_field(ndim, relaxed)
    cli.write_field(tmp_path, "f", field)
    assert sorted(fp.name for fp in tmp_path.iterdir()) == ["f.json", "f.npy"]
    back = read_field(tmp_path, "f")
    assert back.values.dtype == np.float64 and back.values.shape == field.values.shape
    assert np.array_equal(back.values.view(np.int64), field.values.view(np.int64))
    assert len(back.axes) == ndim
    for a, b in zip(back.axes, field.axes):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
    for f in dataclasses.fields(val.ValueField):
        if f.name not in ("axes", "values"):
            assert getattr(back, f.name) == getattr(field, f.name), f.name
    # the values load without feastube, time first, in C order
    raw = np.load(tmp_path / "f.npy", allow_pickle=False)
    assert raw.dtype == np.dtype("<f8") and raw.flags.c_contiguous
    assert np.array_equal(raw.view(np.int64), field.values.view(np.int64))
    cli.write_field(tmp_path, "g", back)
    assert (tmp_path / "g.npy").read_bytes() == (tmp_path / "f.npy").read_bytes()


def test_read_field_names_a_shape_apart_from_its_header(tmp_path):
    field = _edge_field(2, False)
    cli.write_field(tmp_path, "f", field)
    np.save(tmp_path / "f.npy", field.values[:, :-1], allow_pickle=False)
    with pytest.raises(ValueError) as err:
        read_field(tmp_path, "f")
    msg = str(err.value)
    assert str(tmp_path / "f.npy") in msg
    assert str((4, 5, 7)) in msg and str((4, 4, 7)) in msg


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


def test_pipeline_runs_alike_around_another_run(tmp_path, capsys):
    # a run between two identical runs, with repeated and other flags, does
    # not reach the second through the parser they share
    args = ["pipeline", *certify_args("hover-1d")]
    assert cli.run(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.run(["pipeline", "--problem", "hover-1d", "--lambda", "6", "--points", "41",
                    "--set", "halfwidth=0.4", "--set", "lambda=3", "--probes", "0.1;-0.1",
                    "--mixture-grid", "2", "--out", str(tmp_path / "other")]) in (0, 2)
    assert cli.run(args + ["--out", str(tmp_path / "b")]) == 0
    tree = _tree(tmp_path / "a")
    assert "config.json" in tree and tree == _tree(tmp_path / "b")


@pytest.mark.parametrize("probes", [None, "0.1;-0.1;0.0"])
def test_hover_pipeline_evaluates_the_field_once_per_path_and_probe(probes, tmp_path,
                                                                     monkeypatch, capsys):
    calls = []
    evaluate = ana.evaluate_value
    monkeypatch.setattr(ana, "evaluate_value", lambda *a: calls.append(a) or evaluate(*a))
    args = ["pipeline", *certify_args("hover-1d"), "--out", str(tmp_path)]
    assert cli.run(args + (["--probes", probes] if probes else [])) == 0
    n_probes = 3 if probes else 1
    assert 0 < len(calls) <= 1 + n_probes


def test_pipeline_artifacts_parse_back(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.run(["pipeline", "--problem", "moving-wall-1d", "--lambda", "6",
                    "--points", "61", "--out", str(out)]) == 0
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert verdicts["assumptions"] is True
    assert verdicts["ipc"] is True
    field = read_field(out, "field_relaxed")
    assert field.relaxed
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["ok"]
    assert (out / "summary.json").exists()


@pytest.mark.parametrize("name", registered_problems())
def test_pipeline_deterministic_on_every_problem(name, tmp_path, capsys):
    args = ["pipeline"] + certify_args(name)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.run(args + ["--out", str(out1)]) == 0
    assert cli.run(args + ["--out", str(out2)]) == 0
    tree = _tree(out1)
    assert "summary.json" in tree and tree == _tree(out2)
    # Each field is its header plus one .npy of the values solve_value returns.
    assert not [rel for rel in tree if rel.startswith("field") and rel.endswith(".csv")]
    for rel, relaxed in (("field", False), ("field_relaxed", True)):
        assert f"{rel}.json" in tree and f"{rel}.npy" in tree
        got = np.load(out1 / f"{rel}.npy", allow_pickle=False)
        want = _solved_field(args, relaxed).values
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), rel
    # The bytes are those of the row-at-a-time writer, not only stable.
    csvs = [rel for rel in tree if rel.endswith(".csv")]
    assert csvs
    for rel in csvs:
        lines = tree[rel].decode().splitlines()
        names = lines[0].split(",")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        data = np.array(rows).reshape(len(rows), len(names))
        write_csv_rows(tmp_path / "rows.csv", {c: data[:, j] for j, c in enumerate(names)})
        assert (tmp_path / "rows.csv").read_bytes() == tree[rel], rel


def test_pipeline_writes_each_artifact_once(tmp_path, capsys):
    assert cli.run(["pipeline", *certify_args("corridor-2d"), "--out", str(tmp_path)]) == 0
    assert sorted(fp.name for fp in tmp_path.iterdir()) == [
        "assumptions.json", "certificate.json", "config.json",
        "decay.csv", "field.json", "field.npy", "field_relaxed.json",
        "field_relaxed.npy", "lipschitz.csv", "nft_constants.json",
        "summary.json", "tracking_constants.json", "verdicts.json",
    ]


@pytest.mark.parametrize("action", ["lipschitz", "decay", "relax", "time-lip"])
@pytest.mark.parametrize("lam", ["6", "120"])
def test_analyze_action(action, lam, tmp_path, capsys):
    """Below the tracking rate the lipschitz and time-lip checks skip with a
    reason; decay and relax still run.  At lambda 120 every check runs."""
    args = SKIPPING_ARGS if lam == "6" else certify_args("moving-wall-1d")
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
@pytest.mark.parametrize("cmd", ["geom dist", "geom active", "ipc verify"])
def test_queries_at_defaults_on_every_problem(cmd, name, capsys):
    assert cli.run(cmd.split() + ["--problem", name]) == 0
    assert _capture(capsys)["cmd"] == cmd


@pytest.mark.parametrize("name", registered_problems())
@pytest.mark.parametrize("cmd", ["value solve", "pipeline"])
def test_value_paths_at_defaults_run_or_name_lambda(cmd, name, tmp_path, capsys):
    """At defaults, a discount at or below a1 leaves the automatic horizon
    undefined: the error names the option to raise and the threshold."""
    code = cli.run(cmd.split() + ["--problem", name, "--out", str(tmp_path)])
    line = _capture(capsys)
    if code != 0:
        a1 = get_problem(name).data.a1
        assert code == 1 and line["kind"] == "DiscountTooSmall"
        assert f"raise --lambda above {name}'s a1 = {a1}" in line["error"]
        assert "--horizon" in line["error"]
    else:
        assert line["cmd"] == cmd and line["ok"] is True


def test_grid_too_coarse_hint_uses_the_per_axis_reach(tmp_path, capsys):
    # The default dt lets the fastest sampled control along the constrained
    # axis 1 (speed 1) cross one of its 0.0375 steps: the default run passes.
    args = ["pipeline", "--problem", "corridor-2d", "--lambda", "6", "--out", str(tmp_path)]
    assert cli.run(args) == 0
    line = _capture(capsys)
    assert line["ok"] and all(v is True or v.startswith("skipped")
                              for v in line["verdicts"].values())
    assert json.loads((tmp_path / "field.json").read_text())["dt"] == 0.0375
    # The dt that the Euclidean M = sqrt 2 gave moves 1 * dt along axis 1
    # only; the hint names that axis's reach against its step.
    p = get_problem("corridor-2d")
    with pytest.raises(GridTooCoarse) as err:
        val.solve_value(p, 6.0, val.grid_for(p, 81, 4 / 80 / math.sqrt(2)), relaxed=True)
    msg = str(err.value)
    assert "feasible node [-2.      0.3375] at t=4.0658" in msg
    assert "axis 1 reach 0.03536 against step 0.0375" in msg
    assert "axis 0" not in msg
    assert "raise dt to at least 0.0375, or refine axis 1 to a step of at most 0.03536" in msg


def test_default_dt_crosses_one_cell_per_step():
    # 1-D: the box width over 80 steps over speed 1, as the Euclidean rule
    # gave (a linspace step would read 0.05624999999999991 on moving-wall)
    for name, dt in (("moving-wall-1d", 0.05625), ("quadratic-cost-1d", 0.0625),
                     ("hover-1d", 0.015)):
        assert val.cell_crossing_dt(get_problem(name), (81,)) == dt
    assert val.cell_crossing_dt(get_problem("corridor-2d"), (81, 81)) == 0.0375
    # a constrained axis that no sampled control moves along is named
    still = get_problem("corridor-2d")
    still = dataclasses.replace(still, controls=ControlSamples(2, lambda t, l: np.array([[1.0, 0.0]])))
    with pytest.raises(ValueError, match="constrained axis 1 at t=0.0"):
        val.cell_crossing_dt(still, (81, 81))


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
    args = SKIPPING_ARGS if case == "skipping" else certify_args(case)
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
    args = certify_args("moving-wall-1d") + ["--probes", "0.1;-0.5"]
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


def test_pipeline_checks_assumptions_at_its_own_level(tmp_path, monkeypatch):
    """pipeline samples the controls for its assumption check at --level, and
    at level 1 below that, so the default --level 0 checks level 1 as before."""
    levels, real = [], cli.verify_data_assumptions

    def recording(p, samples, seed):
        levels.append(samples.level)
        return real(p, samples, seed)

    monkeypatch.setattr(cli, "verify_data_assumptions", recording)
    for level, checked in ((2, 2), (0, 1), (1, 1)):
        out = tmp_path / str(level)
        args = ["pipeline", *certify_args("moving-wall-1d"), "--level", str(level)]
        assert cli.run(args + ["--out", str(out)]) == 0
        want = real(get_problem("moving-wall-1d"), SamplingSpec(level=checked), seed=7)
        assert json.loads((out / "assumptions.json").read_text()) == \
            json.loads(json.dumps(want.to_jsonable()))
        assert levels.pop() == checked and not levels


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
