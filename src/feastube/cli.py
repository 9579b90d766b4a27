"""Command-line entry point: reproducible runs with serialized artifacts.

Each subcommand accepts only the options it reads (``_OPTIONS``).  Precedence
for settings is built-in defaults < config file < command-line flags.  The
config file is flat ``key = value`` text with ``#`` comments; each key names
an option of the subcommand, and its value is read with that option's type.
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
from functools import cache, cached_property
from pathlib import Path
from typing import Callable, NamedTuple

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
    np.save(outdir / f"{name}.npy", np.ascontiguousarray(field.values, dtype="<f8"),
            allow_pickle=False)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# One row per option: its flag, the subcommands that read it, its default, its
# type, which also reads its config-file value (``bool``: a switch; ``list``: a
# repeatable flag, ``;``-separated in a config file), its help and metavar.
_FIELD = ("value", "analyze", "pipeline")          # solve value fields
_CHECKS = ("analyze", "pipeline")                  # check them
_MARGIN = ("ipc", "nft", "track") + _CHECKS        # verify inward margins
_ALL = ("geom",) + _MARGIN + ("value",)


class _Option(NamedTuple):
    flag: str
    commands: tuple[str, ...]
    default: object
    type: Callable
    help: str
    metavar: str | None = None

    @property
    def key(self) -> str:
        """The config key, which is also the argparse dest."""
        return "lam" if self.flag == "--lambda" else self.flag[2:].replace("-", "_")


_OPTIONS = (
    _Option("--problem", _ALL, "moving-wall-1d", str, "registered problem name"),
    _Option("--set", _ALL, (), list, "override a problem datum; repeatable", "KEY=VALUE"),
    _Option("--lambda", _ALL, None, float, "discount rate; the problem's own by default"),
    _Option("--config", _ALL, None, str, "file of 'key = value' lines and '#' comments; a "
            "key is an option of this subcommand without dashes ('lam' for --lambda)"),
    _Option("--t0", ("geom", "nft", "track") + _FIELD, 0.0, float,
            "start time of the path or value field; time of the geom query"),
    _Option("--t1", ("nft",), None, float, "end time of the reference; T0 + 1 by default"),
    _Option("--x0", ("geom", "nft", "track"), None, str,
            "start state or geom query point X,...; the anchor at --t0 by default"),
    _Option("--x1", ("track",), None, str,
            "start X,... of the tracking run; half the anchor at --t0 by default"),
    _Option("--uref", ("nft",), None, str,
            "constant reference control U,...; the problem's default control by default"),
    _Option("--dt", ("nft", "track"), 1e-3, float, "RK4 step of the path"),
    _Option("--horizon", ("track",), 5.0, float,
            "length of the tracked path: it runs from --t0 to --t0 + HORIZON"),
    _Option("--horizon", _FIELD, "auto", str, "end time of the value sweep, on the clock "
            "of --t0: the sweep takes (HORIZON - t0) / dt steps; 'auto' picks it from the "
            "tail envelope at --tol"),
    _Option("--grid", _FIELD, None, str, "space step DX on every axis of the working box "
            "and time step DT of the value grid; by default --points nodes per axis and "
            "the dt at which one step of the fastest sampled control along each "
            "constrained axis (at --t0 and the anchor) crosses one space step (--dt is the "
            "path step of nft and track only)", "DX,DT"),
    _Option("--points", _FIELD, 81, int,
            "value grid nodes per axis when --grid is not given; dt as --grid says"),
    _Option("--tol", _FIELD, 1e-3, float, "tail tolerance of the automatic horizon"),
    _Option("--mixture-grid", _FIELD, 4, int, "resolution of relaxed mixture weights"),
    _Option("--relaxed", ("value",), False, bool, "solve the mixture-relaxed field"),
    _Option("--delta", ("geom",) + _MARGIN, 0.5, float, "radius of the active set"),
    _Option("--rmin", _MARGIN, 0.5, float, "inward margin the margin check must reach"),
    _Option("--ntime", _MARGIN, 40, int, "times sampled by the margin check (>= 1)"),
    _Option("--ndirs", _MARGIN, 24, int, "boundary rays per sampled time (>= 1): ignored "
            "in 1-D, which always casts two; equally spaced angles in 2-D; for n >= 3, "
            "max(NDIRS, 4n) random directions plus the 2n axis directions"),
    _Option("--level", _MARGIN + ("value",), 0, int, "control sampling level"),
    _Option("--out", _MARGIN + ("value",), None, str, "directory for the run's artifacts"),
    _Option("--seed", _CHECKS, 0, int, "seed of the sampled checks"),
    _Option("--pair-budget", _CHECKS, 400, int, "random node pairs of the Lipschitz check"),
    _Option("--probes", _CHECKS, None, str,
            "points X,...;X,... of the time-regularity check; the anchor by default"),
    _Option("--tol-decay", _CHECKS, 1e-2, float, "bound on the decay check's last sample"),
)


def _options(command: str) -> dict[str, _Option]:
    """The options ``command`` reads, by config key."""
    return {o.key: o for o in _OPTIONS if command in o.commands}


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


def _read(o: _Option, text: str):
    """A config-file value, read as the option's type."""
    if o.type is list:
        return [s.strip() for s in text.split(";") if s.strip()]
    try:
        return o.type(text) if o.type is not bool else {"true": True, "false": False}[text]
    except (KeyError, ValueError):
        raise ValueError(
            f"config key {o.key!r}: cannot read {text!r} as {o.type.__name__}") from None


def resolve_config(args: argparse.Namespace) -> dict:
    """Every option the subcommand reads except ``config``: its default, else
    the config file's value, else the flag's; ``set`` lists the file's
    overrides, then the flags'."""
    options = _options(args.command)
    del options["config"]
    cfg = {k: o.default for k, o in options.items()}
    given = vars(args)
    if "config" in given:
        for k, v in _parse_config_file(given["config"]).items():
            if k not in options:
                raise ValueError(f"config key {k!r} is not an option of {args.command!r}, "
                                 f"which reads: {', '.join(sorted(options))}")
            cfg[k] = _read(options[k], v)
    cfg.update((k, given[k]) for k in options.keys() & given.keys() if k != "set")
    cfg["set"] = [*cfg["set"], *given.get("set", ())]
    return cfg


def _problem_from(cfg: dict):
    overrides = list(cfg["set"])
    if cfg["lam"] is not None:
        overrides.append(f"lambda={cfg['lam']}")
    return get_problem(cfg["problem"], overrides)


def _vector(text, n, flag, fallback=None):
    """``text`` read as ``n`` comma-separated numbers; errors name ``flag``."""
    if text is None:
        return fallback
    try:
        vals = [float(v) for v in str(text).split(",")]
    except ValueError:
        vals = None
    if vals is None or len(vals) != n:
        raise ValueError(f"{flag} expects {n} number(s) separated by commas, got {text!r}")
    return np.array(vals)


def _grid_from(cfg: dict, p) -> GridSpec:
    if cfg["grid"]:
        dx, dt = map(float, _vector(cfg["grid"], 2, "--grid DX,DT"))
        if not (0 < dx < math.inf and 0 < dt < math.inf):
            raise ValueError(f"--grid DX,DT expects two positive finite steps, got {cfg['grid']!r}")
        shape = tuple(
            max(2, int(round((p.box[d, 1] - p.box[d, 0]) / dx)) + 1) for d in range(p.n)
        )
        return GridSpec(p.box[:, 0], p.box[:, 1], shape, dt, cfg["t0"])
    if cfg["points"] < 2:
        raise ValueError(f"--points expects an integer >= 2, got {cfg['points']}")
    shape = (int(cfg["points"]),) * p.n
    dt = val.cell_crossing_dt(p, shape, cfg["t0"], cfg["level"])   # one step >= one cell
    return GridSpec(p.box[:, 0], p.box[:, 1], shape, dt, cfg["t0"])


def _horizon_arg(cfg: dict):
    h = cfg["horizon"]
    try:
        return None if h == "auto" else float(h)
    except ValueError:
        raise ValueError(f"--horizon expects a number or 'auto', got {h!r}") from None


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
    x = _vector(cfg["x0"], p.n, "--x0", np.asarray(p.anchor(cfg["t0"])))
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
    x0 = _vector(cfg["x0"], p.n, "--x0", np.asarray(p.anchor(t0)))
    uref = _vector(cfg["uref"], p.controls.dim, "--uref", p.default_control)
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
    horizon = cfg["horizon"]
    x0 = _vector(cfg["x0"], p.n, "--x0", np.asarray(p.anchor(t0)))
    x1 = _vector(cfg["x1"], p.n, "--x1", np.asarray(p.anchor(t0)) * 0.5)
    ver = _ipc_certificate(cfg, p, (t0, t0 + horizon + 1.0))
    if not ver.ok:
        _emit({"cmd": "track run", "ok": False, "reason": "margin verification failed",
               "worst": ver.worst})
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
            if not cfg["tol"] > 0:
                raise ValueError(f"--tol expects a positive number, got {cfg['tol']}")
            if cfg["mixture_grid"] < 1:
                raise ValueError(f"--mixture-grid expects an integer >= 1, got {cfg['mixture_grid']}")
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
    field = _Run(cfg).field(cfg["relaxed"])
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
    probes = (np.array([_vector(s, p.n, "--probes")
                        for s in str(run.cfg["probes"]).split(";")])
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
        _emit({"cmd": cmd, "ok": False, "reason": "margin verification failed",
               "worst": run.ver.worst})
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
                   {k: v for k, v in sorted(cfg.items()) if k != "out"})

    report = verify_data_assumptions(run.p, SamplingSpec(level=max(1, cfg["level"])),
                                     seed=cfg["seed"])
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

_COMMANDS = {   # subcommand: (handler, actions, help)
    "geom": (_cmd_geom, ["dist", "active"], "constraint-set geometry queries"),
    "ipc": (_cmd_ipc, ["verify"], "inward-margin verification"),
    "nft": (_cmd_nft, ["run"], "feasibility repair of a reference path"),
    "track": (_cmd_track, ["run"], "exponential tracking between starts"),
    "value": (_cmd_value, ["solve"], "discounted value field solving"),
    "analyze": (_cmd_analyze, list(_STAGES), "theorem-envelope certification"),
    "pipeline": (_cmd_pipeline, [], "full chained run with artifacts"),
}


class _SubcommandParser(argparse.ArgumentParser):
    """Refuses an argument it does not know itself, so the usage printed with
    the error lists the subcommand's own options."""

    def parse_known_args(self, args=None, namespace=None):
        known, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return known, extra


@cache
def _build_parser() -> argparse.ArgumentParser:
    """Each subcommand's parser takes only the options it reads; a flag left
    out leaves no attribute, so ``resolve_config`` sees only flags given.
    Built once per process: a parse keeps nothing in the parser."""
    ap = argparse.ArgumentParser(prog="feastube", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    for command, (_, actions, summary) in _COMMANDS.items():
        sp = sub.add_parser(command, help=summary, argument_default=argparse.SUPPRESS)
        if actions:
            sp.add_argument("action", choices=actions)
        for o in _options(command).values():
            if o.type is bool:
                kind = {"action": "store_true"}
            else:
                kind = {"action": "append"} if o.type is list else {"type": o.type}
                kind["metavar"] = o.metavar
            plain = o.default is None or o.type in (bool, list)
            default = "" if plain else f" (default {o.default})"
            sp.add_argument(o.flag, dest=o.key, help=o.help + default, **kind)
    return ap


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command][0](resolve_config(args), args)
    except FeastubeError as exc:
        _emit({"error": str(exc), "kind": type(exc).__name__})
        return 1 if isinstance(exc, (ValueError, KeyError, OSError)) else 2
    except (ValueError, KeyError, OSError) as exc:
        _emit({"error": str(exc)})
        return 1


def main() -> None:
    sys.exit(run())
