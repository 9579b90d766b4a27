#!/usr/bin/env python3
"""feastube benchmark: seeded workloads, checked outputs, metrics by name.

    python3 bench/run.py --workload repair --seed 1 --seconds 20 --trace 0

Workloads (single process, one thread, closed loop, one op at a time):

* ``repair``  -- ``trajectory.nft_correct`` on c03-style 1000-step violating
  references of every registered problem plus moving-wall references of
  2k, 4k and 8k steps.
* ``value``   -- plain and relaxed ``value.solve_value`` sweeps: corridor-2d
  on 41 x 61 nodes (large slices) and hover-1d on 241 nodes (tiny slices).
* ``certify`` -- ``cli.run`` in-process: ``pipeline`` on every registered
  problem at an explicit ``--lambda`` and ``--grid``, and ``track run``.

A run repeats the workload's fixed op set ``round(seconds / nominal pass
seconds)`` times (at least once).  The count is fixed before timing, so two
commits compared at the same ``--seconds`` do the same work and the sample
count behind every percentile is the same.

``--trace 0`` reports the end-to-end metrics: wall time of one op set
(median over passes), median and tail per-op time, output nodes per second,
set-up time (median of fresh-process repetitions) and peak RSS.  The
per-op times behind the first four are adjusted for the machine's speed at
the time of each op, measured by a probe that runs no feastube code (see
``_summarise``); the report keeps the times as measured under ``raw_*``.
``--trace 1`` runs one untraced pass and then one traced pass, and reports
the per-layer metrics of the traced pass plus the tracing overhead.

Every op's output is checked outside the timed region.  The last line of
standard output is the result JSON; a fuller report (environment, digests,
sample counts, failures) goes to ``.bench_out/`` in the repository root,
together with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

_PROCESS_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Length of one pass of each op set on a 2-CPU x86-64 VM (Python 3.11,
# numpy 2.4); only used to turn --seconds into a pass count.
NOMINAL_PASS_S = {"repair": 35.0, "value": 10.5, "certify": 7.0}
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# Speed adjustment.  The VM above changes speed by up to 2x over seconds to
# minutes, as other guests load the host; a 30 s run sits in one such phase.
# workloads.speed_probe times a fixed kernel before every op.  An op's time
# is scaled by (PROBE_REF_S / p) ** SPEED_EXPONENT, where p is the median
# probe of the op and PROBE_WINDOW ops on each side.  PROBE_REF_S is the
# probe's time on the VM at its usual speed.  SPEED_EXPONENT is how strongly
# op times follow the probe: a least-squares fit of log op time on log probe
# time over 12 runs of value and repair gave 0.4 to 0.7.
PROBE_REF_S = 0.0032
PROBE_WINDOW = 2
SPEED_EXPONENT = 0.6

END_TO_END = ("wall_s", "op_p50_s", "op_tail_s", "nodes_per_s", "setup_s", "peak_rss_mb")
UNITS = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "nodes_per_s": "1/s",
         "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics.  Each spanned function reports .s (inclusive time) and
# .self_s; those mapped to True also report .calls.
SPANNED = {
    "problem.verify_data_assumptions": False,
    "geometry.eval_constraints": True,
    "geometry.clearance_proxy": True,
    "geometry.violations_along": True,
    "geometry.distances_upper_along": True,
    "geometry.feasible_mask": True,
    "geometry.sample_boundary_points": True,
    "simplex.solve_matrix_game": True,
    "ipc.inward_margin": True,
    "ipc.verify_ipc": False,
    "trajectory.nft_correct": False,
    "trajectory.filippov_project": True,
    "trajectory.viable_trajectory": False,
    "trajectory.track_feasible": False,
    "value.solve_value": False,
    "value.evaluate_value": True,
    "analysis.lipschitz_profile": False,
    "analysis.decay_check": False,
    "analysis.time_lipschitz_check": False,
    "analysis.write_csv": False,
    "cli.write_field": False,
    "cli.write_trajectory_csv": False,
}
COUNTED = {                          # name: unit
    "problem.f.calls": "count",
    "problem.f.rows": "count",
    "problem.f.rows_per_call": "rows/call",
    "problem.h.calls": "count",
    "problem.h.points": "count",
    "problem.cost.calls": "count",
    "trajectory.filippov_project.steps": "count",
    "trajectory.viable_trajectory.steps": "count",
    "trajectory.steps_per_ref_node": "steps/node",
    "trajectory.dist_over_rho_p50": "ratio",
    "value.field_nodes": "count",
    "value.solve_value.us_per_node": "us/node",
    "analysis.write_csv.bytes": "B",
    "trace.overhead_s": "s",
}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    names = {}
    for fn, with_calls in SPANNED.items():
        if with_calls:
            names[f"{fn}.calls"] = "count"
        names[f"{fn}.s"] = "s"
        names[f"{fn}.self_s"] = "s"
    names.update(COUNTED)
    return names


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("repair", "value", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _git_commit() -> str | None:
    """HEAD of the repository at ROOT; None outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((SRC / "feastube").rglob("*.py")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def _environment(args, np) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _setup_time(args) -> float:
    """Median set-up time over fresh processes: import plus prepare()."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{done.stderr[-2000:]}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _timings(walls: list[float], per_op: list[float], nodes: int, prefix: str = "") -> dict:
    tail, _ = _tail(per_op)
    wall = statistics.median(walls)
    return {f"{prefix}wall_s": wall, f"{prefix}op_p50_s": statistics.median(per_op),
            f"{prefix}op_tail_s": tail, f"{prefix}nodes_per_s": nodes / wall,
            f"{prefix}pass_walls_s": walls}


def _summarise(passes) -> dict:
    """Timing metrics of the passes at the probe's reference speed, and the
    same metrics as measured (``raw_*``).

    Each op's time is scaled by the speed probes around it (see
    SPEED_EXPONENT), so a stretch in which the machine runs slow or fast
    counts at about its usual speed.  A change to feastube moves the scaled
    times as much as the raw ones, because the probe runs no feastube code.
    """
    flat = [x for samples in passes for x in samples]
    probes = [x.probe_s for x in flat]
    h = PROBE_WINDOW
    scaled = [x.seconds * (PROBE_REF_S / statistics.median(probes[max(0, i - h):i + h + 1]))
              ** SPEED_EXPONENT for i, x in enumerate(flat)]
    sizes = [len(samples) for samples in passes]
    starts = [sum(sizes[:k]) for k in range(len(sizes))]
    nodes = sum(x.outcome.nodes for x in passes[0])
    out = _timings([sum(scaled[a:a + n]) for a, n in zip(starts, sizes)], scaled, nodes)
    out.update(_timings([sum(x.seconds for x in samples) for samples in passes],
                        [x.seconds for x in flat], nodes, "raw_"))
    out.update(tail_percentile=_tail(scaled)[1], samples=len(flat), nodes_per_pass=nodes,
               probe_p50_s=statistics.median(probes), probe_max_s=max(probes))
    return out


def _per_layer(tracer, wall_traced: float, wall_untraced: float) -> dict:
    c = tracer.counts
    out = {}
    for fn, with_calls in SPANNED.items():
        if with_calls:
            out[f"{fn}.calls"] = tracer.calls.get(fn, 0)
        out[f"{fn}.s"] = tracer.inclusive.get(fn, 0.0)
        out[f"{fn}.self_s"] = tracer.self_time.get(fn, 0.0)
    for key in ("problem.f.calls", "problem.f.rows", "problem.h.calls", "problem.h.points",
                "problem.cost.calls", "trajectory.filippov_project.steps",
                "trajectory.viable_trajectory.steps", "value.field_nodes",
                "analysis.write_csv.bytes"):
        out[key] = c.get(key, 0)
    calls = c.get("problem.f.calls", 0)
    out["problem.f.rows_per_call"] = c.get("problem.f.rows", 0) / calls if calls else 0.0
    ref_nodes = c.get("trajectory.ref_nodes", 0)
    steps = c.get("trajectory.filippov_project.steps", 0) + c.get(
        "trajectory.viable_trajectory.steps", 0)
    out["trajectory.steps_per_ref_node"] = steps / ref_nodes if ref_nodes else 0.0
    ratios = tracer.repair_ratios
    out["trajectory.dist_over_rho_p50"] = statistics.median(ratios) if ratios else 0.0
    field_nodes = c.get("value.field_nodes", 0)
    out["value.solve_value.us_per_node"] = (
        1e6 * tracer.inclusive.get("value.solve_value", 0.0) / field_nodes
        if field_nodes else 0.0)
    out["trace.overhead_s"] = wall_traced - wall_untraced
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:                 # before numpy is imported anywhere
        os.environ[var] = "1"
    if not (SRC / "feastube" / "__init__.py").is_file():
        print(f"error: no feastube sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np
    import feastube
    if Path(feastube.__file__).resolve().parent != (SRC / "feastube").resolve():
        print(f"error: imported feastube from {feastube.__file__}", file=sys.stderr)
        return 2
    import workloads as wl
    from tracer import Tracer

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    if args.setup_only:
        wl.prepare(args.workload, workdir)
        print(repr(time.perf_counter() - _PROCESS_START))
        return 0

    report = {"environment": _environment(args, np)}
    if args.trace == 0:
        report["setup_runs"] = SETUP_REPEATS
        setup_s = _setup_time(args)
    t = time.perf_counter()
    ctx = wl.prepare(args.workload, workdir)
    ops = wl.make_ops(ctx, args.seed)
    report["inputs_s"] = time.perf_counter() - t
    workdir.mkdir(parents=True, exist_ok=True)

    n_pass = 1 if args.trace else max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    passes = [wl.run_pass(ctx, ops) for _ in range(n_pass)]
    if args.trace:
        tracer = Tracer()
        passes.append(wl.run_pass(ctx, ops, tracer))
        spans = OUT / f"spans-{args.workload}.npz"
        tracer.write_spans(spans, [op.name for op in ops])
        report["spans_file"] = str(spans.relative_to(ROOT))
        report["span_count"] = len(tracer.span_start)
        report["layer_calls"] = dict(sorted(tracer.calls.items()))
        report["counts"] = dict(sorted(tracer.counts.items()))
    shutil.rmtree(workdir, ignore_errors=True)

    samples = [x for p in passes for x in p]
    failed = [x for x in samples if not x.outcome.ok]
    report["fail_ratio"] = len(failed) / len(samples)
    report["failures"] = [{"op": x.op, "reason": x.outcome.reason} for x in failed[:20]]
    report["digests"] = {x.op: x.outcome.digest for x in passes[0]}
    report["op_seconds"] = {x.op: [p[i].seconds for p in passes]
                            for i, x in enumerate(passes[0])}
    report["digests_stable"] = all(
        [x.outcome.digest for x in p] == [x.outcome.digest for x in passes[0]]
        for p in passes)
    ratios = [x.outcome.dist_over_rho for x in passes[0] if x.outcome.dist_over_rho is not None]
    report["dist_over_rho_p50"] = statistics.median(ratios) if ratios else None

    if args.trace:
        untraced = _summarise(passes[:-1])
        traced = _summarise(passes[-1:])
        report["untraced"], report["traced"] = untraced, traced
        values = _per_layer(tracer, traced["wall_s"], untraced["wall_s"])
        units = per_layer_names()
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        summary = _summarise(passes)
        report["summary"] = summary
        summary["setup_s"] = setup_s
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: {"value": summary[k], "unit": UNITS[k]} for k in END_TO_END}
    report["metrics"] = metrics

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True, default=float) + "\n")
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print("environment:", json.dumps(report["environment"], sort_keys=True))
    print(f"report: {path.relative_to(ROOT)}")
    result = {"correct": not failed, "attempted": len(samples), "failed": len(failed),
              "metrics": metrics}
    if not all(math.isfinite(float(m["value"])) for m in metrics.values()):
        result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
