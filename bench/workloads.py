"""Seeded workloads of the feastube benchmark: inputs, timed ops and checks.

Each workload is built in two steps.  ``prepare`` is the set-up a user of
the library pays before asking questions: problem construction plus the
certificates and constants the ops take as inputs.  ``make_ops`` then draws
the seeded inputs and returns the fixed op set of one pass.  An op is one
call into feastube that is timed; its check runs afterwards, outside the
timed region, and also returns a digest of the op's output so that output
changes are visible without counting as failures.

The seed only reaches the generators here: the program receives references,
grids and argument lists, never the seed itself (the CLI's own ``--seed``
for its sampling is one of those arguments).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from feastube import cli, ipc, problem, value
from feastube import geometry as geo
from feastube import trajectory as tj

from tracer import Tracer, installed

WORKLOADS = ("repair", "value", "certify")

# Certificate settings per problem (the acceptance-suite settings).
IPC_SAMPLING = {
    "moving-wall-1d": (50, 2),
    "corridor-2d": (24, 16),
    "hover-1d": (8, 2),
    "quadratic-cost-1d": (8, 2),
}

# 1000-step c03-style references per problem.  Twelve, so that the per-op
# median falls in a dense part of their cost distribution and moves little
# from one seed to the next.
REFS_PER_PROBLEM = 12
# Moving-wall hold references: ten of 2k steps, so that the per-op tail
# percentile (ten samples beyond it) falls among the long references and the
# slowest 1000-step ones, and one each of 4k and 8k steps for the quadratic
# growth of the repair cost.
HOLD_STEPS = (2000,) * 10 + (4000, 8000)
REF_DT = 1e-3
# Hover sweeps: eight seeded time origins, each solved plain and relaxed with
# mixture grids 1, 2 and 4.  The step count of each kind is set so that every
# hover op costs about the same (0.15 to 0.2 s on a 2-vCPU x86-64 VM), which
# puts the per-op median and tail of the value workload inside one dense
# class of samples instead of on a gap between op kinds.
HOVER_ORIGINS = 8
HOVER_STEPS = {0: 700, 1: 600, 2: 480, 4: 345}     # mixture grid (0: plain): steps

# Discount above every problem's tracking threshold K (48.97 to 81.21), so
# the Lipschitz and time-Lipschitz analyses run instead of skipping.  The
# problems' default discounts and the default grid fail (three defaults sit
# below a1; corridor-2d raises GridTooCoarse), so certify passes both.
CERTIFY_LAMBDA = 120.0
CERTIFY_RUNS = {               # problem: (--grid DX,DT, horizon length)
    "moving-wall-1d": ("0.05,0.05", 4.0),
    "quadratic-cost-1d": ("0.05,0.05", 4.0),
    "hover-1d": ("0.01,0.01", 2.0),
    "corridor-2d": ("0.1,0.1", 1.0),
}


@dataclass
class Outcome:
    ok: bool
    digest: str
    nodes: int                 # path nodes plus space-time field nodes produced
    reason: str = ""
    dist_over_rho: float | None = None


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


@dataclass
class Context:
    """Set-up shared by the ops of one workload."""

    workload: str
    problems: dict = field(default_factory=dict)
    certs: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)   # (problem, interval) -> NftConstants
    workdir: Path | None = None


def _digest(a) -> str:
    a = np.ascontiguousarray(a, dtype=float)
    h = hashlib.sha256(str(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()[:16]


def _dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(path)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def prepare(workload: str, workdir: Path) -> Context:
    """Problem construction, certificates and constants for one workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    ctx = Context(workload, workdir=workdir)
    if workload == "repair":
        for name in problem.registered_problems():
            p = problem.get_problem(name)
            n_time, n_dirs = IPC_SAMPLING[name]
            ver = ipc.verify_ipc(p, (0.0, 2 * math.pi), r_min=0.9, delta=0.5,
                                 n_time=n_time, n_dirs=n_dirs)
            if not ver.ok:
                raise RuntimeError(f"{name}: margin verification failed: {ver.worst}")
            ctx.problems[name] = p
            ctx.certs[name] = ver.certificate
            ctx.constants[name, 1.0] = tj.derive_nft_constants(p, ver.certificate, 1.0)
        wall = ctx.problems["moving-wall-1d"]
        for steps in sorted(set(HOLD_STEPS)):
            span = steps * REF_DT
            ctx.constants["moving-wall-1d", span] = tj.derive_nft_constants(
                wall, ctx.certs["moving-wall-1d"], span)
    elif workload == "value":
        ctx.problems["corridor-2d"] = problem.get_problem("corridor-2d", {"lambda": 6.0})
        ctx.problems["hover-1d"] = problem.get_problem("hover-1d")
    return ctx


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------

def violating_reference(p, rng, t_mid, depth, side, steps=1000, dt=REF_DT):
    """Unit-interval reference that starts a small depth inside a boundary
    point and drifts outward across it (the acceptance-c03 recipe).

    The start time, depth and boundary point are design points with a small
    seeded jitter; the drift and its random steps are seeded as in c03.
    """
    u0 = p.controls.at(0.0, 0)
    for attempt in range(20):
        jitter = 0.02 if attempt == 0 else 0.2   # widened only to find a violation
        t0 = float(t_mid + rng.uniform(-jitter, jitter))
        pts = geo.sample_boundary_points(p, t0, 8)
        if not pts:
            continue
        xb = pts[(side + attempt) % len(pts)]
        hv = geo.eval_constraints(p, t0, xb)
        gvec = np.asarray(p.constraints[int(np.argmax(hv))].grad(t0, xb),
                          dtype=float).reshape(-1)
        gvec = gvec / np.linalg.norm(gvec)
        x0 = xb - (depth + 0.1 * float(rng.uniform(-jitter, jitter))) * gvec
        if not geo.is_feasible(p, t0, x0) or geo.clearance_proxy(p, t0, x0) < 0.04:
            continue
        scores = (u0 @ gvec) + 0.15 * rng.standard_normal(len(u0))
        drift = int(np.argmax(scores))
        idx = np.where(rng.random(steps) < 0.85, drift, rng.integers(0, len(u0), steps))
        ref = tj.integrate(p, t0, x0, idx.tolist(), steps, dt)
        rho = float(geo.distances_upper_along(p, ref.times, ref.states).max())
        if rho > 5e-3:
            return ref
    raise RuntimeError(f"could not build a violating reference for {p.name}")


def hold_reference(p, rng, steps, dt=REF_DT):
    """Moving-wall reference that holds its position while the wall
    ``1 + 0.4 sin t`` sweeps down through it (acceptance c04, made longer).

    It starts about 1 s before the wall reaches 0.9 and holds about 0.05
    above that level, so it sees one violation episode early on and a long
    tail that the repair re-projects after each corrected piece.
    """
    t_cross = math.pi + math.asin(0.25)
    t0 = t_cross - 1.0 + float(rng.uniform(-0.01, 0.01))
    level = 0.95 + float(rng.uniform(-0.01, 0.01))
    hold = int(np.argmin(np.abs(p.controls.at(t0, 0)[:, 0])))
    return tj.integrate(p, t0, [level], [hold] * steps, steps, dt)


def _repair_op(ctx: Context, name: str, ref, interval: float, label: str) -> Op:
    cert = ctx.certs[name]
    cons = ctx.constants[name, interval]

    def call():
        return tj.nft_correct(ctx.problems[name], cert, ref, constants=cons)

    def check(res) -> Outcome:
        p = ctx.problems[name]
        out = res.corrected
        digest = _digest(out.states)
        nodes = len(out.times)
        ratio = res.sup_dist / res.rho_in
        if not np.array_equal(out.states[0], ref.states[0]):
            return Outcome(False, digest, nodes, "anchor moved", ratio)
        viol = float(geo.violations_along(p, out.times, out.states).max())
        if viol > geo.TOL_FEAS:
            return Outcome(False, digest, nodes, f"violation {viol:.3e}", ratio)
        if not res.sup_dist <= res.beta_used * res.rho_in:
            return Outcome(False, digest, nodes, "sup_dist above beta*rho", ratio)
        return Outcome(True, digest, nodes, "", ratio)

    return Op(label, call, check)


def _spread_out(*groups: list[Op]) -> list[Op]:
    """Merge op lists so that each is spread evenly over the pass.

    The machine's speed drifts over seconds; spreading every kind of op over
    the whole pass makes each per-op percentile average over that drift
    instead of catching one slow or fast stretch.
    """
    keyed = [((j + 0.5) / len(g), k, op) for k, g in enumerate(groups) for j, op in enumerate(g)]
    return [op for *_, op in sorted(keyed, key=lambda x: x[:2])]


def _repair_ops(ctx: Context, rng) -> list[Op]:
    groups = []
    n = REFS_PER_PROBLEM
    for name in problem.registered_problems():
        p = ctx.problems[name]
        ops = []
        # Design points: n start times evenly over one period, paired by a
        # fixed shuffle with n depths evenly over the recipe's 0.05-0.35 range
        # (the depth sets how much of the interval is spent outside, hence
        # the repair cost), and boundary points taken in turn.  The seed
        # jitters each point and draws the drift, so every seed repairs the
        # same mix of references and the per-op cost distribution is steady.
        depth_rank = np.random.default_rng(0).permutation(n)
        for i in range(n):
            t_mid = 2 * math.pi * (i + 0.5) / n
            depth = 0.05 + 0.3 * (depth_rank[i] + 0.5) / n
            ref = violating_reference(p, rng, t_mid, depth, i)
            ops.append(_repair_op(ctx, name, ref, 1.0, f"repair/{name}/{i}"))
        groups.append(ops)
    wall = ctx.problems["moving-wall-1d"]
    holds = []
    for i, steps in enumerate(HOLD_STEPS):
        ref = hold_reference(wall, rng, steps)
        holds.append(_repair_op(ctx, "moving-wall-1d", ref, steps * REF_DT,
                                f"repair/moving-wall-1d/hold-{steps}-{i}"))
    return _spread_out(*groups, holds)


# ---------------------------------------------------------------------------
# value
# ---------------------------------------------------------------------------

def _value_op(ctx, name, lam, grid, horizon, relaxed, mixture_grid, label, rng,
              plains) -> Op:
    """One sweep, checked on the first, the last and three seeded slices.  A
    relaxed sweep is also checked against the plain sweep of the same grid
    and horizon, solved by the check (once per run, kept in ``plains``)."""
    slices = sorted(int(i) for i in rng.choice(
        int(round((horizon - grid.t0) / grid.dt)), size=3, replace=False))

    def call():
        return value.solve_value(ctx.problems[name], lam, grid, relaxed=relaxed,
                                 mixture_grid=mixture_grid, horizon=horizon)

    def check(f) -> Outcome:
        p = ctx.problems[name]
        digest = _digest(f.values)
        nodes = int(f.values.size)
        pts = f.grid_nodes()
        for i in [0, *slices, len(f.times) - 1]:
            t = float(f.times[i])
            feas = geo.feasible_mask(p, t, pts)
            if not np.array_equal(np.isfinite(f.values[i].ravel()), feas):
                return Outcome(False, digest, nodes, f"finite set != feasible set at t={t}")
        for i in slices:
            res = value.bellman_residual(p, f, i)
            if res > value.TOL_DP:
                return Outcome(False, digest, nodes, f"bellman residual {res:.3e} at slice {i}")
        if relaxed:
            if label not in plains:
                plains[label] = value.solve_value(p, lam, grid, relaxed=False, horizon=horizon)
            plain = plains[label].values
            both = np.isfinite(plain) & np.isfinite(f.values)
            gap = plain[both] - f.values[both]
            if gap.size and gap.min() < -value.TOL_DP:
                return Outcome(False, digest, nodes, f"relaxed above plain by {-gap.min():.3e}")
        return Outcome(True, digest, nodes)

    return Op(label, call, check)


def _value_ops(ctx: Context, rng) -> list[Op]:
    plains: dict = {}
    corridor, hover = [], []
    # Large slices: corridor-2d at lambda 6, 41 x 61 nodes, dt 0.1, 47 steps
    # (what tol 1e-3 selects from t0 = 0); 369 relaxed candidates per slice.
    c = ctx.problems["corridor-2d"]
    t0 = float(rng.uniform(0.0, 2 * math.pi))
    g = value.GridSpec(c.box[:, 0], c.box[:, 1], (41, 61), 0.1, t0)
    h = t0 + 47 * 0.1
    corridor.append(_value_op(ctx, "corridor-2d", 6.0, g, h, False, 4,
                              "value/corridor-2d/plain", rng, plains))
    corridor.append(_value_op(ctx, "corridor-2d", 6.0, g, h, True, 4,
                              "value/corridor-2d/relaxed-4", rng, plains))
    # Tiny slices: hover-1d at 241 nodes, dt 0.0025.
    hv = ctx.problems["hover-1d"]
    for k in range(HOVER_ORIGINS):
        t0 = float(rng.uniform(0.0, 2 * math.pi))
        g = value.GridSpec(hv.box[:, 0], hv.box[:, 1], (241,), 0.0025, t0)
        for mg, steps in HOVER_STEPS.items():
            kind = f"relaxed-{mg}" if mg else "plain"
            hover.append(_value_op(ctx, "hover-1d", hv.lam, g, t0 + steps * 0.0025, mg > 0,
                                   mg or 4, f"value/hover-1d/{k}/{kind}", rng, plains))
    return _spread_out(corridor, hover)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _field_nodes(outdir: Path, name: str) -> int:
    head = json.loads((outdir / f"{name}.json").read_text())
    nt = int(round((head["T"] - head["t0"]) / head["dt"])) + 1
    return nt * int(np.prod(head["grid"]["shape"]))


def _cli_op(ctx: Context, label: str, argv: list[str], kind: str) -> Op:
    outdir = ctx.workdir / label.replace("/", "_")

    def call():
        if outdir.exists():
            shutil.rmtree(outdir)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.run(argv + ["--out", str(outdir)])
        return rc, buf.getvalue()

    def check(result) -> Outcome:
        rc, printed = result
        try:
            if rc != 0:
                return Outcome(False, "", 0, f"exit code {rc}: {printed.strip()[-300:]}")
            digest = _dir_digest(outdir)
            if kind == "pipeline":
                verdicts = json.loads((outdir / "verdicts.json").read_text())
                nodes = _field_nodes(outdir, "field") + _field_nodes(outdir, "field_relaxed")
                bad = [k for k, v in verdicts.items() if v is False]
                if bad:
                    return Outcome(False, digest, nodes, f"false verdicts: {bad}")
            else:
                with open(outdir / "tracking.csv") as fh:
                    nodes = sum(1 for _ in fh) - 1
                if not json.loads(printed.strip().splitlines()[-1]).get("ok"):
                    return Outcome(False, digest, nodes, "tracking bound not met")
            return Outcome(True, digest, nodes)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    return Op(label, call, check)


def _certify_ops(ctx: Context, rng) -> list[Op]:
    ops = []
    for name, (grid, horizon) in CERTIFY_RUNS.items():
        t0 = float(rng.uniform(0.0, 2 * math.pi))
        argv = ["pipeline", "--problem", name, "--lambda", str(CERTIFY_LAMBDA),
                "--grid", grid, "--horizon", repr(t0 + horizon), "--t0", repr(t0),
                "--seed", str(int(rng.integers(0, 2**31)))]
        ops.append(_cli_op(ctx, f"certify/pipeline/{name}", argv, "pipeline"))
    for k in range(2):
        t0 = float(rng.uniform(0.0, 2 * math.pi))
        x1 = float(rng.uniform(-1.5, 0.5))
        argv = ["track", "run", "--problem", "moving-wall-1d", "--t0", repr(t0),
                "--x1", repr(x1), "--horizon", "3"]
        ops.append(_cli_op(ctx, f"certify/track/moving-wall-1d/{k}", argv, "track"))
    return ops


def make_ops(ctx: Context, seed: int) -> list[Op]:
    """The fixed op set of one pass, drawn from ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(ctx.workload)])
    build = {"repair": _repair_ops, "value": _value_ops, "certify": _certify_ops}
    return build[ctx.workload](ctx, rng)


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    op: str
    seconds: float
    outcome: Outcome
    probe_s: float             # speed probe time taken just before the op


_PROBE_X = np.linspace(0.0, 1.0, 64)


def speed_probe() -> float:
    """Median time of three runs of a fixed kernel of small numpy calls and
    Python arithmetic, the mix that feastube's own loops are made of.  The
    kernel touches no feastube code, so its time tracks only how fast the
    machine runs at the moment."""
    times = []
    for _ in range(3):
        start = perf_counter()
        x, acc = _PROBE_X, 0.0
        for i in range(800):
            x = np.sin(x) * 0.5 + 0.25 * np.maximum(x, 0.1)
            acc += float(x.sum()) + (i * i) % 7
        times.append(perf_counter() - start)
    return sorted(times)[1]


def _run_op(op: Op, tracer: Tracer | None, index: int) -> Sample:
    result, error = None, None
    probe_s = speed_probe()
    start = perf_counter()
    try:
        if tracer is None:
            result = op.call()
        else:
            tracer.op, tracer.active = index, True
            try:
                with tracer.span("op"):
                    result = op.call()
            finally:
                tracer.active = False
    except Exception:  # an op that raises is a failed op, not a crash
        error = traceback.format_exc(limit=3)
    elapsed = perf_counter() - start
    if error is not None:
        return Sample(op.name, elapsed, Outcome(False, "", 0, "raised: " + error), probe_s)
    try:
        outcome = op.check(result)
    except Exception:
        outcome = Outcome(False, "", 0, "check raised: " + traceback.format_exc(limit=3))
    return Sample(op.name, elapsed, outcome, probe_s)


def run_pass(ctx: Context, ops: list[Op], tracer: Tracer | None = None) -> list[Sample]:
    """Run every op once, closed loop, timing only the call.

    With a tracer the ops see counted copies of the problems and spans are
    recorded inside each call; checks always run untraced.
    """
    if tracer is None:
        return [_run_op(op, None, i) for i, op in enumerate(ops)]
    raw = ctx.problems
    ctx.problems = {n: tracer.instrument(p) for n, p in raw.items()}
    try:
        with installed(tracer):
            return [_run_op(op, tracer, i) for i, op in enumerate(ops)]
    finally:
        ctx.problems = raw
