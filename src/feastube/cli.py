"""Command-line entry point: reproducible runs with serialized artifacts.

Precedence for settings is built-in defaults < config file < command-line
flags.  The config file is flat ``key = value`` text with ``#`` comments.
A run is a pure function of its resolved configuration (seeded sampling,
deterministic solvers, stable serialization), so identical configurations
produce byte-identical artifact directories.

Exit codes: 0 success, 1 usage or configuration error, 2 a verification or
theorem check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis as ana
from . import geometry as geo
from . import trajectory as tj
from . import value as val
from .errors import (
    CorrectionFailed,
    DiscountBelowThreshold,
    FeastubeError,
    ViabilityLost,
)
from .ipc import verify_ipc
from .problem import SamplingSpec, get_problem, verify_data_assumptions
from .value import GridSpec, ValueField


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def write_trajectory_csv(path: Path, p, traj: tj.Trajectory) -> None:
    cols: dict[str, np.ndarray] = {"t": traj.times}
    for d in range(p.n):
        cols[f"x_{d + 1}"] = traj.states[:, d]
    if traj.controls is not None:
        ctrl = np.vstack([traj.controls, traj.controls[-1:]])  # pad final node
        for d in range(ctrl.shape[1]):
            cols[f"u_{d + 1}"] = ctrl[:, d]
    cols["maxh"] = geo.violations_along(p, traj.times, traj.states)
    cols["dist"] = geo.distances_upper_along(p, traj.times, traj.states)
    ana.write_csv(path, cols)


def read_trajectory_like(path: Path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.array([[float(v) for v in line.split(",")] for line in fh])
    return {name: data[:, j] for j, name in enumerate(header)}


def read_trajectory_csv(path: Path) -> dict[str, np.ndarray]:
    cols = read_trajectory_like(path)
    out = {
        "t": cols["t"],
        "states": np.column_stack([v for k, v in cols.items() if k.startswith("x_")]),
        "maxh": cols["maxh"],
        "dist": cols["dist"],
    }
    ucols = [v for k, v in cols.items() if k.startswith("u_")]
    if ucols:
        out["controls"] = np.column_stack(ucols)
    return out


def write_field(outdir: Path, name: str, field: ValueField) -> None:
    header = {
        "lambda": field.lam, "t0": field.t0, "dt": field.dt, "T": field.T,
        "tail_bound": field.tail_bound, "relaxed": field.relaxed,
        "a1": field.a1, "a2": field.a2, "x0_bound": field.x0_bound,
        "problem": field.problem_name, "level": field.level,
        "mixture_grid": field.mixture_grid,
        "grid": {
            "lo": [float(a[0]) for a in field.axes],
            "hi": [float(a[-1]) for a in field.axes],
            "shape": [int(len(a)) for a in field.axes],
        },
    }
    ana.write_json(outdir / f"{name}.json", header)
    nodes = field.grid_nodes()
    nt = field.values.shape[0]
    P = nodes.shape[0]
    cols = {"t": np.repeat(field.times, P)}
    for d in range(nodes.shape[1]):
        cols[f"x_{d + 1}"] = np.tile(nodes[:, d], nt)
    cols["value"] = field.values.reshape(nt, P).ravel()
    ana.write_csv(outdir / f"{name}.csv", cols)


def read_field(outdir: Path, name: str) -> ValueField:
    header = json.loads((outdir / f"{name}.json").read_text())
    g = header["grid"]
    axes = tuple(
        np.linspace(lo, hi, s) for lo, hi, s in zip(g["lo"], g["hi"], g["shape"])
    )
    data = read_trajectory_like(outdir / f"{name}.csv")
    nt = int(round((header["T"] - header["t0"]) / header["dt"])) + 1
    values = data["value"].reshape((nt,) + tuple(g["shape"]))
    return ValueField(
        relaxed=header["relaxed"], lam=header["lambda"], t0=header["t0"],
        dt=header["dt"], T=header["T"], axes=axes, values=values,
        tail_bound=header["tail_bound"], a1=header["a1"], a2=header["a2"],
        x0_bound=header["x0_bound"], problem_name=header["problem"],
        level=header["level"], mixture_grid=header["mixture_grid"],
    )


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "problem": "moving-wall-1d",
    "lam": None,          # None: use the problem's own discount
    "seed": 0,
    "out": None,
    "t0": 0.0,
    "t1": None,
    "horizon": "auto",
    "tol": 1e-3,
    "grid": None,         # "dx,dt"
    "points": 81,
    "dt": 1e-3,
    "delta": 0.5,
    "rmin": 0.5,
    "ntime": 40,
    "ndirs": 24,
    "level": 0,
    "mixture_grid": 4,
    "x0": None,
    "x1": None,
    "uref": None,
    "probes": None,
    "pair_budget": 400,
    "tol_decay": 1e-2,
}


def _parse_config_file(path: str) -> dict:
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {raw!r} is not key = value")
        k, v = (s.strip() for s in line.split("=", 1))
        out[k.replace("-", "_")] = v
    return out


def _coerce_like(default, raw):
    if raw is None or not isinstance(raw, str):
        return raw
    if isinstance(default, bool):
        return raw.lower() in ("1", "true", "yes", "on")
    if isinstance(default, int) and not isinstance(default, bool):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    file_cfg = _parse_config_file(args.config) if getattr(args, "config", None) else {}
    for k, v in file_cfg.items():
        if k in ("set", "sets"):
            continue
        if k not in cfg:
            raise ValueError(f"unknown config key {k!r}")
        cfg[k] = _coerce_like(_DEFAULTS.get(k), v)
    overrides = []
    if "set" in file_cfg:
        overrides.extend(s.strip() for s in file_cfg["set"].split(";") if s.strip())
    for k, v in vars(args).items():
        if k in ("command", "action", "config"):
            continue
        if v is not None and k in cfg:
            cfg[k] = v
    overrides.extend(getattr(args, "set", None) or [])
    cfg["set"] = overrides
    return cfg


def _problem_from(cfg: dict):
    overrides = list(cfg["set"])
    if cfg["lam"] is not None:
        overrides.append(f"lambda={cfg['lam']}")
    return get_problem(cfg["problem"], overrides)


def _vector(text, n, fallback=None):
    if text is None:
        return fallback
    vals = [float(v) for v in str(text).split(",")]
    if len(vals) != n:
        raise ValueError(f"expected {n} components, got {text!r}")
    return np.array(vals)


def _grid_from(cfg: dict, p) -> GridSpec:
    if cfg["grid"]:
        dx, dt = (float(v) for v in str(cfg["grid"]).split(","))
        shape = tuple(
            max(2, int(round((p.box[d, 1] - p.box[d, 0]) / dx)) + 1) for d in range(p.n)
        )
        return GridSpec(p.box[:, 0], p.box[:, 1], shape, dt, cfg["t0"])
    extent = float(np.max(p.box[:, 1] - p.box[:, 0]))
    pts = int(cfg["points"])
    dt = extent / (pts - 1) / max(p.data.M, 1e-9)  # keep one step >= one cell
    return GridSpec(p.box[:, 0], p.box[:, 1], (pts,) * p.n, dt, cfg["t0"])


def _horizon_arg(cfg: dict):
    h = cfg["horizon"]
    if h in (None, "auto"):
        return None
    return float(h)


def _emit(line: dict) -> None:
    print(json.dumps(line, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_geom(cfg: dict, action: str) -> int:
    p = _problem_from(cfg)
    x = _vector(cfg["x0"], p.n, np.asarray(p.anchor(cfg["t0"])))
    if action == "dist":
        res = geo.distance_to_omega(p, cfg["t0"], x, oracle=p.n <= 2)
        _emit({"cmd": "geom dist", "t": cfg["t0"], "x": list(map(float, x)),
               **res.to_jsonable()})
        return 0
    if action == "active":
        rep = geo.active_set(p, cfg["t0"], x, cfg["delta"])
        _emit({"cmd": "geom active", "t": cfg["t0"], "x": list(map(float, x)),
               **rep.to_jsonable()})
        return 0
    raise ValueError(f"unknown geom action {action!r}")


def _ipc_certificate(cfg: dict, p, horizon=None):
    horizon = horizon or (0.0, 2 * math.pi)
    return verify_ipc(
        p, horizon, r_min=cfg["rmin"], delta=cfg["delta"],
        n_time=cfg["ntime"], n_dirs=cfg["ndirs"], level=cfg["level"],
    )


def _cmd_ipc(cfg: dict) -> int:
    p = _problem_from(cfg)
    ver = _ipc_certificate(cfg, p)
    if cfg["out"]:
        outdir = Path(cfg["out"])
        outdir.mkdir(parents=True, exist_ok=True)
        ana.write_json(outdir / "certificate.json", ver.to_jsonable())
    _emit({"cmd": "ipc verify", "ok": ver.ok,
           "r": None if ver.certificate is None else ver.certificate.r,
           "worst": ver.worst, "n_samples": ver.n_samples})
    return 0 if ver.ok else 2


def _cmd_nft(cfg: dict) -> int:
    p = _problem_from(cfg)
    t0 = cfg["t0"]
    t1 = cfg["t1"] if cfg["t1"] is not None else t0 + 1.0
    x0 = _vector(cfg["x0"], p.n, np.asarray(p.anchor(t0)))
    uref = _vector(cfg["uref"], p.controls.dim, p.default_control)
    if not cfg["dt"] > 0:
        raise ValueError(f"need dt > 0, got dt={cfg['dt']}")
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got t0={t0}, t1={t1}")
    steps = int(round((t1 - t0) / cfg["dt"]))
    ref = tj.integrate_controls(p, t0, x0, np.tile(uref, (steps, 1)), cfg["dt"])
    ver = _ipc_certificate(cfg, p, (t0, t1 + 1.0))
    if not ver.ok:
        _emit({"cmd": "nft run", "ok": False, "reason": "margin verification failed",
               "worst": ver.worst})
        return 2
    try:
        res = tj.nft_correct(p, ver.certificate, ref, level=cfg["level"])
    except (CorrectionFailed, ViabilityLost) as exc:
        _emit({"cmd": "nft run", "ok": False, "reason": str(exc)})
        return 2
    if cfg["out"]:
        outdir = Path(cfg["out"])
        outdir.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(outdir / "reference.csv", p, ref)
        write_trajectory_csv(outdir / "corrected.csv", p, res.corrected)
        ana.write_json(outdir / "nft_constants.json", res.constants.to_jsonable())
        ana.write_json(outdir / "nft_result.json", res.to_jsonable())
    _emit({"cmd": "nft run", "ok": True, **res.to_jsonable()})
    return 0


def _cmd_track(cfg: dict) -> int:
    p = _problem_from(cfg)
    t0 = cfg["t0"]
    horizon = 5.0 if cfg["horizon"] in (None, "auto") else float(cfg["horizon"])
    x0 = _vector(cfg["x0"], p.n, np.asarray(p.anchor(t0)))
    x1 = _vector(cfg["x1"], p.n, np.asarray(p.anchor(t0)) * 0.5)
    ver = _ipc_certificate(cfg, p, (t0, t0 + horizon + 1.0))
    if not ver.ok:
        _emit({"cmd": "track run", "ok": False, "reason": "margin verification failed"})
        return 2
    ref = tj.viable_trajectory(p, ver.certificate, t0, x0, t0 + horizon, cfg["dt"])
    try:
        run = tj.track_feasible(p, ver.certificate, ref, x1, horizon, level=cfg["level"])
    except (CorrectionFailed, ViabilityLost) as exc:
        _emit({"cmd": "track run", "ok": False, "reason": str(exc)})
        return 2
    bound = run.bound(run.trajectory.times)
    ok = bool(np.all(run.deviations <= bound + 1e-12))
    if cfg["out"]:
        outdir = Path(cfg["out"])
        outdir.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(outdir / "reference.csv", p, ref)
        write_trajectory_csv(outdir / "tracking.csv", p, run.trajectory)
        ana.write_csv(outdir / "deviations.csv",
                      {"t": run.trajectory.times, "deviation": run.deviations,
                       "bound": bound})
        ana.write_json(outdir / "tracking_constants.json", run.constants.to_jsonable())
    _emit({"cmd": "track run", "ok": ok, **run.to_jsonable()})
    return 0 if ok else 2


def _cmd_value(cfg: dict) -> int:
    p = _problem_from(cfg)
    lam = cfg["lam"] if cfg["lam"] is not None else p.lam
    grid = _grid_from(cfg, p)
    field = val.solve_value(
        p, lam, grid, relaxed=bool(cfg.get("relaxed")), tol=cfg["tol"],
        level=cfg["level"], mixture_grid=cfg["mixture_grid"],
        horizon=_horizon_arg(cfg),
    )
    if cfg["out"]:
        outdir = Path(cfg["out"])
        outdir.mkdir(parents=True, exist_ok=True)
        write_field(outdir, "field_relaxed" if field.relaxed else "field", field)
    finite = int(np.isfinite(field.values[0]).sum())
    _emit({"cmd": "value solve", "ok": True, "T": field.T,
           "tail_bound": field.tail_bound, "finite_at_t0": finite,
           "relaxed": field.relaxed})
    return 0


def _tracking_constants(cfg: dict, p, ver, horizon: float):
    cons = tj.derive_nft_constants(p, ver.certificate, 1.0)
    return tj.derive_tracking_constants(p, cons.beta, horizon), cons


def _cmd_analyze(cfg: dict, action: str) -> int:
    p = _problem_from(cfg)
    lam = cfg["lam"] if cfg["lam"] is not None else p.lam
    ver = _ipc_certificate(cfg, p)
    if not ver.ok:
        _emit({"cmd": f"analyze {action}", "ok": False,
               "reason": "margin verification failed"})
        return 2
    grid = _grid_from(cfg, p)
    results: dict[str, object] = {}
    skipped = None
    if action == "lipschitz":
        field = val.solve_value(p, lam, grid, relaxed=True, tol=cfg["tol"],
                                level=cfg["level"], mixture_grid=cfg["mixture_grid"],
                                horizon=_horizon_arg(cfg))
        tc, _ = _tracking_constants(cfg, p, ver, field.T)
        try:
            prof = ana.lipschitz_profile(field, tc, pair_budget=cfg["pair_budget"],
                                         seed=cfg["seed"])
            results["lipschitz"] = prof
            ok = prof.passed
        except DiscountBelowThreshold as exc:
            skipped, ok = str(exc), True
    elif action == "decay":
        field = val.solve_value(p, lam, grid, relaxed=True, tol=cfg["tol"],
                                level=cfg["level"], mixture_grid=cfg["mixture_grid"],
                                horizon=_horizon_arg(cfg))
        traj = tj.viable_trajectory(p, ver.certificate, field.t0,
                                    np.asarray(p.anchor(field.t0)), field.T, field.dt)
        dec = ana.decay_check(p, field, traj, tol_decay=cfg["tol_decay"])
        results["decay"] = dec
        ok = dec.passed
    elif action == "relax":
        fV = val.solve_value(p, lam, grid, relaxed=False, tol=cfg["tol"],
                             level=cfg["level"], horizon=_horizon_arg(cfg))
        fVs = val.solve_value(p, lam, grid, relaxed=True, tol=cfg["tol"],
                              level=cfg["level"], mixture_grid=cfg["mixture_grid"],
                              horizon=_horizon_arg(cfg))
        gap = ana.relaxation_gap(fV, fVs)
        results["relaxation"] = gap
        ok = gap.passed
    elif action == "time-lip":
        field = val.solve_value(p, lam, grid, relaxed=True, tol=cfg["tol"],
                                level=cfg["level"], mixture_grid=cfg["mixture_grid"],
                                horizon=_horizon_arg(cfg))
        tc, _ = _tracking_constants(cfg, p, ver, field.T)
        probes = (np.array([_vector(s, p.n) for s in str(cfg["probes"]).split(";")])
                  if cfg["probes"] else np.asarray(p.anchor(field.t0))[None, :])
        N = _time_lip_bound(p, field, probes, cfg["level"])
        try:
            tl = ana.time_lipschitz_check(field, p, tc, N, probes, level=cfg["level"])
            results["time_lipschitz"] = tl
            ok = tl.passed
        except DiscountBelowThreshold as exc:
            skipped, ok = str(exc), True
    else:
        raise ValueError(f"unknown analyze action {action!r}")
    if cfg["out"]:
        emitted = {k: v for k, v in results.items()}
        if skipped:
            emitted["skipped"] = {"reason": skipped}
        ana.emit_report(emitted, Path(cfg["out"]))
    line = {"cmd": f"analyze {action}", "ok": ok}
    if skipped:
        line["skipped"] = skipped
    _emit(line)
    return 0 if ok else 2


def _time_lip_bound(p, field, probes, level) -> float:
    return ana.velocity_cost_sup(field, p, probes, level) * 1.05 + 0.1


def _cmd_pipeline(cfg: dict) -> int:
    if not cfg["out"]:
        raise ValueError("pipeline needs --out")
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    p = _problem_from(cfg)
    lam = cfg["lam"] if cfg["lam"] is not None else p.lam
    ana.write_json(outdir / "config.json",
                   {k: (list(v) if isinstance(v, (list, tuple)) else v)
                    for k, v in sorted(cfg.items()) if k != "out"})

    report = verify_data_assumptions(p, SamplingSpec(), seed=cfg["seed"])
    ana.write_json(outdir / "assumptions.json", report.to_jsonable())
    verdicts = {"assumptions": report.ok}

    ver = _ipc_certificate(cfg, p)
    ana.write_json(outdir / "certificate.json", ver.to_jsonable())
    verdicts["ipc"] = ver.ok
    if not ver.ok:
        ana.write_json(outdir / "verdicts.json", verdicts)
        _emit({"cmd": "pipeline", "ok": False, "verdicts": verdicts})
        return 2

    cons = tj.derive_nft_constants(p, ver.certificate, 1.0)
    ana.write_json(outdir / "nft_constants.json", cons.to_jsonable())

    grid = _grid_from(cfg, p)
    fV = val.solve_value(p, lam, grid, relaxed=False, tol=cfg["tol"],
                         level=cfg["level"], horizon=_horizon_arg(cfg))
    fVs = val.solve_value(p, lam, grid, relaxed=True, tol=cfg["tol"],
                          level=cfg["level"], mixture_grid=cfg["mixture_grid"],
                          horizon=_horizon_arg(cfg))
    write_field(outdir, "field", fV)
    write_field(outdir, "field_relaxed", fVs)

    tc = tj.derive_tracking_constants(p, cons.beta, fVs.T)
    ana.write_json(outdir / "tracking_constants.json", tc.to_jsonable())

    results: dict[str, object] = {}
    try:
        prof = ana.lipschitz_profile(fVs, tc, pair_budget=cfg["pair_budget"],
                                     seed=cfg["seed"])
        results["lipschitz"] = prof
        verdicts["lipschitz"] = prof.passed
    except DiscountBelowThreshold as exc:
        verdicts["lipschitz"] = f"skipped: {exc}"

    traj = tj.viable_trajectory(p, ver.certificate, fVs.t0,
                                np.asarray(p.anchor(fVs.t0)), fVs.T, fVs.dt)
    dec = ana.decay_check(p, fVs, traj, tol_decay=cfg["tol_decay"])
    results["decay"] = dec
    verdicts["decay"] = dec.passed

    gap = ana.relaxation_gap(fV, fVs)
    results["relaxation"] = gap
    verdicts["relaxation"] = gap.passed

    probes = np.asarray(p.anchor(fVs.t0))[None, :]
    try:
        tl = ana.time_lipschitz_check(fVs, p, tc, _time_lip_bound(p, fVs, probes, cfg["level"]),
                                      probes, level=cfg["level"])
        results["time_lipschitz"] = tl
        verdicts["time_lipschitz"] = tl.passed
    except DiscountBelowThreshold as exc:
        verdicts["time_lipschitz"] = f"skipped: {exc}"

    ana.emit_report(results, outdir)
    ana.write_json(outdir / "verdicts.json", verdicts)
    ok = all(v is True or isinstance(v, str) for v in verdicts.values())
    _emit({"cmd": "pipeline", "ok": ok, "verdicts": verdicts})
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="feastube", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--problem")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE")
        sp.add_argument("--lambda", dest="lam", type=float)
        sp.add_argument("--grid", metavar="DX,DT")
        sp.add_argument("--horizon")
        sp.add_argument("--tol", type=float)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out")
        sp.add_argument("--config")
        sp.add_argument("--level", type=int)
        sp.add_argument("--points", type=int)
        sp.add_argument("--dt", type=float)
        sp.add_argument("--t0", type=float)
        sp.add_argument("--t1", type=float)
        sp.add_argument("--delta", type=float)
        sp.add_argument("--rmin", type=float)
        sp.add_argument("--ntime", type=int)
        sp.add_argument("--ndirs", type=int)
        sp.add_argument("--mixture-grid", dest="mixture_grid", type=int)
        sp.add_argument("--x0")
        sp.add_argument("--x1")
        sp.add_argument("--uref")
        sp.add_argument("--probes")
        sp.add_argument("--pair-budget", dest="pair_budget", type=int)
        sp.add_argument("--tol-decay", dest="tol_decay", type=float)

    g = sub.add_parser("geom", help="constraint-set geometry queries")
    g.add_argument("action", choices=["dist", "active"])
    common(g)

    i = sub.add_parser("ipc", help="inward-margin verification")
    i.add_argument("action", choices=["verify"])
    common(i)

    n = sub.add_parser("nft", help="feasibility repair of a reference path")
    n.add_argument("action", choices=["run"])
    common(n)

    t = sub.add_parser("track", help="exponential tracking between starts")
    t.add_argument("action", choices=["run"])
    common(t)

    v = sub.add_parser("value", help="discounted value field solving")
    v.add_argument("action", choices=["solve"])
    v.add_argument("--relaxed", action="store_true", default=None)
    common(v)

    a = sub.add_parser("analyze", help="theorem-envelope certification")
    a.add_argument("action", choices=["lipschitz", "decay", "relax", "time-lip"])
    common(a)

    pl = sub.add_parser("pipeline", help="full chained run with artifacts")
    common(pl)
    return ap


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = resolve_config(args)
        if args.command == "geom":
            return _cmd_geom(cfg, args.action)
        if args.command == "ipc":
            return _cmd_ipc(cfg)
        if args.command == "nft":
            return _cmd_nft(cfg)
        if args.command == "track":
            return _cmd_track(cfg)
        if args.command == "value":
            cfg["relaxed"] = bool(getattr(args, "relaxed", False))
            return _cmd_value(cfg)
        if args.command == "analyze":
            return _cmd_analyze(cfg, args.action)
        if args.command == "pipeline":
            return _cmd_pipeline(cfg)
        parser.print_usage()
        return 1
    except (ValueError, KeyError, OSError) as exc:
        _emit({"error": str(exc)})
        return 1
    except FeastubeError as exc:
        _emit({"error": str(exc), "kind": type(exc).__name__})
        return 2


def main() -> None:
    sys.exit(run())
