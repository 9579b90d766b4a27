"""Command-line entry point: reproducible runs with serialized artifacts.

Precedence for settings is built-in defaults < config file < command-line
flags.  The config file is flat ``key = value`` text with ``#`` comments;
each value is read with the type of the option of the same name.
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
from functools import cached_property
from pathlib import Path

import numpy as np

from . import analysis as ana
from . import geometry as geo
from . import trajectory as tj
from . import value as val
from .errors import (
    CorrectionFailed,
    DiscountBelowThreshold,
    DiscountTooSmall,
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


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    file_cfg = _parse_config_file(args.config) if getattr(args, "config", None) else {}
    types = _option_types()
    for k, v in file_cfg.items():
        if k in ("set", "sets"):
            continue
        if k not in cfg:
            raise ValueError(f"unknown config key {k!r}")
        try:
            cfg[k] = types.get(k, str)(v)
        except ValueError:
            raise ValueError(
                f"config key {k!r}: cannot read {v!r} as {types[k].__name__}") from None
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
    shape = (int(cfg["points"]),) * p.n
    dt = val.cell_crossing_dt(p, shape, cfg["t0"], cfg["level"])   # one step >= one cell
    return GridSpec(p.box[:, 0], p.box[:, 1], shape, dt, cfg["t0"])


def _horizon_arg(cfg: dict):
    h = cfg["horizon"]
    if h in (None, "auto"):
        return None
    return float(h)


def _emit(line: dict) -> None:
    print(json.dumps(line, sort_keys=True))


def _outdir(cfg: dict) -> Path:
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_geom(cfg: dict, args) -> int:
    p = _problem_from(cfg)
    x = _vector(cfg["x0"], p.n, np.asarray(p.anchor(cfg["t0"])))
    if args.action == "dist":
        res = geo.distance_to_omega(p, cfg["t0"], x, oracle=p.n <= 2)
        _emit({"cmd": "geom dist", "t": cfg["t0"], "x": list(map(float, x)),
               **res.to_jsonable()})
        return 0
    if args.action == "active":
        rep = geo.active_set(p, cfg["t0"], x, cfg["delta"])
        _emit({"cmd": "geom active", "t": cfg["t0"], "x": list(map(float, x)),
               **rep.to_jsonable()})
        return 0
    raise ValueError(f"unknown geom action {args.action!r}")


def _ipc_certificate(cfg: dict, p, horizon=None):
    horizon = horizon or (0.0, 2 * math.pi)
    return verify_ipc(
        p, horizon, r_min=cfg["rmin"], delta=cfg["delta"],
        n_time=cfg["ntime"], n_dirs=cfg["ndirs"], level=cfg["level"],
    )


def _cmd_ipc(cfg: dict, args) -> int:
    p = _problem_from(cfg)
    ver = _ipc_certificate(cfg, p)
    if cfg["out"]:
        ana.write_json(_outdir(cfg) / "certificate.json", ver.to_jsonable())
    _emit({"cmd": "ipc verify", "ok": ver.ok,
           "r": None if ver.certificate is None else ver.certificate.r,
           "worst": ver.worst, "n_samples": ver.n_samples})
    return 0 if ver.ok else 2


def _cmd_nft(cfg: dict, args) -> int:
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
    if steps < 1:
        raise ValueError(f"--t1 - --t0 = {t1 - t0} is under half a step of "
                         f"--dt={cfg['dt']}; lengthen the interval or lower --dt")
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
        outdir = _outdir(cfg)
        write_trajectory_csv(outdir / "reference.csv", p, ref)
        write_trajectory_csv(outdir / "corrected.csv", p, res.corrected)
        ana.write_json(outdir / "nft_constants.json", res.constants.to_jsonable())
        ana.write_json(outdir / "nft_result.json", res.to_jsonable())
    _emit({"cmd": "nft run", "ok": True, **res.to_jsonable()})
    return 0


def _cmd_track(cfg: dict, args) -> int:
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
        outdir = _outdir(cfg)
        write_trajectory_csv(outdir / "reference.csv", p, ref)
        write_trajectory_csv(outdir / "tracking.csv", p, run.trajectory)
        ana.write_csv(outdir / "deviations.csv",
                      {"t": run.trajectory.times, "deviation": run.deviations,
                       "bound": bound})
        ana.write_json(outdir / "tracking_constants.json", run.constants.to_jsonable())
    _emit({"cmd": "track run", "ok": ok, **run.to_jsonable()})
    return 0 if ok else 2


class _Run:
    """One run's inputs, each built at most once and only when first asked for."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.p = _problem_from(cfg)
        self._fields: dict[bool, ValueField] = {}

    @cached_property
    def ver(self):
        return _ipc_certificate(self.cfg, self.p)

    def field(self, relaxed: bool) -> ValueField:
        if relaxed not in self._fields:
            cfg, p = self.cfg, self.p
            horizon = _horizon_arg(cfg)
            try:
                self._fields[relaxed] = val.solve_value(
                    p, p.lam, _grid_from(cfg, p), relaxed=relaxed,
                    tol=cfg["tol"], level=cfg["level"], mixture_grid=cfg["mixture_grid"],
                    horizon=horizon,
                )
            except DiscountTooSmall as exc:  # only the automatic horizon needs lambda > a1
                raise DiscountTooSmall(
                    f"{exc}: raise --lambda above {p.name}'s a1 = {p.data.a1}, or give "
                    f"--horizon to end the sweep at a set time (its tail is then uncertified)"
                ) from exc
        return self._fields[relaxed]

    @cached_property
    def nft(self):
        return tj.derive_nft_constants(self.p, self.ver.certificate, 1.0)

    @cached_property
    def tracking(self):
        return tj.derive_tracking_constants(self.p, self.nft.beta, self.field(True).T)


def _cmd_value(cfg: dict, args) -> int:
    field = _Run(cfg).field(bool(args.relaxed))
    if cfg["out"]:
        write_field(_outdir(cfg), "field_relaxed" if field.relaxed else "field", field)
    finite = int(np.isfinite(field.values[0]).sum())
    _emit({"cmd": "value solve", "ok": True, "T": field.T,
           "tail_bound": field.tail_bound, "finite_at_t0": finite,
           "relaxed": field.relaxed})
    return 0


# ---------------------------------------------------------------------------
# the four checks of the value function: one analyze action, one pipeline stage
# ---------------------------------------------------------------------------

def _check_lipschitz(run: _Run):
    return ana.lipschitz_profile(run.field(True), run.tracking,
                                 pair_budget=run.cfg["pair_budget"], seed=run.cfg["seed"])


def _check_decay(run: _Run):
    p, field = run.p, run.field(True)
    traj = tj.viable_trajectory(p, run.ver.certificate, field.t0,
                                np.asarray(p.anchor(field.t0)), field.T, field.dt)
    return ana.decay_check(p, field, traj, tol_decay=run.cfg["tol_decay"])


def _check_relax(run: _Run):
    return ana.relaxation_gap(run.field(False), run.field(True))


def _check_time_lip(run: _Run):
    p, field, level = run.p, run.field(True), run.cfg["level"]
    probes = (np.array([_vector(s, p.n) for s in str(run.cfg["probes"]).split(";")])
              if run.cfg["probes"] else np.asarray(p.anchor(field.t0))[None, :])
    bound_N = ana.velocity_cost_sup(field, p, probes, level) * 1.05 + 0.1
    return ana.time_lipschitz_check(field, p, run.tracking, bound_N, probes, level=level)


# analyze action: (summary key, check), in pipeline order
_STAGES = {
    "lipschitz": ("lipschitz", _check_lipschitz),
    "decay": ("decay", _check_decay),
    "relax": ("relaxation", _check_relax),
    "time-lip": ("time_lipschitz", _check_time_lip),
}


def _run_stage(run: _Run, action: str):
    """``(summary key, result, None)``, or ``(summary key, None, reason)`` when
    the discount is too low for the check (``DiscountBelowThreshold``)."""
    key, check = _STAGES[action]
    try:
        return key, check(run), None
    except DiscountBelowThreshold as exc:
        return key, None, str(exc)


def _cmd_analyze(cfg: dict, args) -> int:
    cmd = f"analyze {args.action}"
    run = _Run(cfg)
    if not run.ver.ok:
        _emit({"cmd": cmd, "ok": False, "reason": "margin verification failed"})
        return 2
    key, res, skipped = _run_stage(run, args.action)
    if cfg["out"]:
        ana.emit_report({"skipped": {"reason": skipped}} if skipped else {key: res},
                        Path(cfg["out"]))
    ok = True if skipped else res.passed
    _emit({"cmd": cmd, "ok": ok, **({"skipped": skipped} if skipped else {})})
    return 0 if ok else 2


def _cmd_pipeline(cfg: dict, args) -> int:
    if not cfg["out"]:
        raise ValueError("pipeline needs --out")
    outdir = _outdir(cfg)
    run = _Run(cfg)
    ana.write_json(outdir / "config.json",
                   {k: (list(v) if isinstance(v, (list, tuple)) else v)
                    for k, v in sorted(cfg.items()) if k != "out"})

    report = verify_data_assumptions(run.p, SamplingSpec(), seed=cfg["seed"])
    ana.write_json(outdir / "assumptions.json", report.to_jsonable())
    verdicts = {"assumptions": report.ok}

    ana.write_json(outdir / "certificate.json", run.ver.to_jsonable())
    verdicts["ipc"] = run.ver.ok
    if not run.ver.ok:
        ana.write_json(outdir / "verdicts.json", verdicts)
        _emit({"cmd": "pipeline", "ok": False, "verdicts": verdicts})
        return 2

    ana.write_json(outdir / "nft_constants.json", run.nft.to_jsonable())
    write_field(outdir, "field", run.field(False))
    write_field(outdir, "field_relaxed", run.field(True))
    ana.write_json(outdir / "tracking_constants.json", run.tracking.to_jsonable())

    results: dict[str, object] = {}
    for action in _STAGES:
        key, res, skipped = _run_stage(run, action)
        if skipped:
            verdicts[key] = f"skipped: {skipped}"
        else:
            results[key], verdicts[key] = res, res.passed

    ana.emit_report(results, outdir)
    ana.write_json(outdir / "verdicts.json", verdicts)
    ok = all(v is True or isinstance(v, str) for v in verdicts.values())
    _emit({"cmd": "pipeline", "ok": ok, "verdicts": verdicts})
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_HORIZON_END = ("end time of the value sweep, on the clock of --t0: the sweep takes "
                "(HORIZON - t0) / dt steps; 'auto' (the default) picks it from the tail "
                "envelope at --tol")
_HORIZON_HELP = {
    "value": _HORIZON_END, "analyze": _HORIZON_END, "pipeline": _HORIZON_END,
    "track": "length of the tracked path: it runs from --t0 to --t0 + HORIZON (default 5)",
}


def _add_common(sp, command: str = "") -> None:
    """The options every subcommand takes; every dest but ``config`` is a config key."""
    sp.add_argument("--problem")
    sp.add_argument("--set", action="append", metavar="KEY=VALUE")
    sp.add_argument("--lambda", dest="lam", type=float)
    sp.add_argument("--grid", metavar="DX,DT")
    sp.add_argument("--horizon", help=_HORIZON_HELP.get(command, "not used by this command"))
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
    sp.add_argument("--ntime", type=int, help="times sampled by the margin check (>= 1)")
    sp.add_argument("--ndirs", type=int,
                    help="boundary rays per sampled time (>= 1): ignored in 1-D, which "
                         "always casts two; equally spaced angles in 2-D; for n >= 3, "
                         "max(NDIRS, 4n) random directions plus the 2n axis directions")
    sp.add_argument("--mixture-grid", dest="mixture_grid", type=int)
    sp.add_argument("--x0")
    sp.add_argument("--x1")
    sp.add_argument("--uref")
    sp.add_argument("--probes")
    sp.add_argument("--pair-budget", dest="pair_budget", type=int)
    sp.add_argument("--tol-decay", dest="tol_decay", type=float)


def _option_types() -> dict:
    """Config key -> the ``type`` its command-line option parses with."""
    sp = argparse.ArgumentParser()
    _add_common(sp)
    return {a.dest: a.type for a in sp._actions if a.type is not None}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="feastube", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("geom", help="constraint-set geometry queries")
    g.add_argument("action", choices=["dist", "active"])
    _add_common(g, "geom")

    i = sub.add_parser("ipc", help="inward-margin verification")
    i.add_argument("action", choices=["verify"])
    _add_common(i, "ipc")

    n = sub.add_parser("nft", help="feasibility repair of a reference path")
    n.add_argument("action", choices=["run"])
    _add_common(n, "nft")

    t = sub.add_parser("track", help="exponential tracking between starts")
    t.add_argument("action", choices=["run"])
    _add_common(t, "track")

    v = sub.add_parser("value", help="discounted value field solving")
    v.add_argument("action", choices=["solve"])
    v.add_argument("--relaxed", action="store_true", default=None)
    _add_common(v, "value")

    a = sub.add_parser("analyze", help="theorem-envelope certification")
    a.add_argument("action", choices=["lipschitz", "decay", "relax", "time-lip"])
    _add_common(a, "analyze")

    pl = sub.add_parser("pipeline", help="full chained run with artifacts")
    _add_common(pl, "pipeline")
    return ap


_COMMANDS = {
    "geom": _cmd_geom, "ipc": _cmd_ipc, "nft": _cmd_nft, "track": _cmd_track,
    "value": _cmd_value, "analyze": _cmd_analyze, "pipeline": _cmd_pipeline,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](resolve_config(args), args)
    except (ValueError, KeyError, OSError) as exc:
        _emit({"error": str(exc)})
        return 1
    except FeastubeError as exc:
        _emit({"error": str(exc), "kind": type(exc).__name__})
        return 2


def main() -> None:
    sys.exit(run())
