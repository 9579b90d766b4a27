"""Certification of quantitative conclusions on computed fields and paths.

Each check compares an empirical quantity against its closed-form envelope,
with a scheme tolerance ``C_GRID * (dx + dt)`` absorbing the discretization
error of the field (the constant is calibrated on the constant-cost closed
form and pinned by a test).  Every verdict serializes all inputs of its
inequality, so a pass can be re-derived from the emitted CSV alone.

A check costs a fixed number of array calls per chunk of slices or per
probe, not per slice or time: the Lipschitz profile takes its slices in
chunks of about ``_PAIR_CHUNK`` pairs (only its seeded draws go slice by
slice), and the time-regularity check evaluates the model once per run of
times that share their control samples and its quotients once per stride.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    DiscountBelowThreshold,
    GridMismatch,
    OutOfGrid,
    ProbeInfeasible,
    TrajectoryOutOfGrid,
)
from .problem import ProblemDefinition, row_norms
from .trajectory import TrackingConstants, Trajectory
from .value import TOL_DP, ValueField, evaluate_value

Array = np.ndarray

# Scheme-error rate per unit of (dx + dt), calibrated on the constant-cost
# closed form; envelope comparisons add C_GRID * (dx + dt).
C_GRID = 2.0


def scheme_tolerance(field: ValueField) -> float:
    return C_GRID * (field.dx_max + field.dt)


def _envelope_rate(field: ValueField, constants: TrackingConstants) -> tuple[float, float]:
    """(b, K) of the spatial regularity envelope b * exp(-(lam - K) t)."""
    K = max(constants.K, field.a1)
    lam = field.lam
    if lam <= K:
        raise DiscountBelowThreshold(
            f"lambda={lam} must exceed the growth threshold K={K}"
        )
    b = lam * constants.C / (lam - K) + 1.0
    return b, K


# ---------------------------------------------------------------------------
# spatial regularity
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LipschitzProfile:
    times: Array
    empirical: Array
    bound: Array
    b: float
    C: float
    K: float
    tol: float
    passed: bool

    def series(self) -> dict:
        return {"t": self.times, "empirical": self.empirical, "bound": self.bound}

    def to_jsonable(self) -> dict:
        worst = int(np.argmax(self.empirical - self.bound))
        return {
            "passed": self.passed,
            "b": float(self.b), "C": float(self.C), "K": float(self.K),
            "tol": float(self.tol),
            "worst": {
                "t": float(self.times[worst]),
                "empirical": float(self.empirical[worst]),
                "bound": float(self.bound[worst]),
            },
        }


# Pairs (and nodes) that lipschitz_profile holds at a time: it takes the
# slices in chunks of about this many, so memory stays flat in their number.
_PAIR_CHUNK = 1 << 15


def _neighbor_steps(shape: tuple, coords: Array) -> list[tuple[int, Array, Array, Array]]:
    """Per axis of the grid ``shape``, in order, ``(stride, pair, dist, far)``
    over the nodes ``a`` below ``P - stride``: whether ``(a, a + stride)`` are
    neighbors along the axis, their distance, and whether it is at least
    1e-14.  ``coords`` are the nodes as ``row_norms`` takes them: (P,) on a
    1-D grid, (P, n) otherwise."""
    P = len(coords)
    steps = []
    for d in range(len(shape)):
        stride = int(np.prod(shape[d + 1:], dtype=int))
        pair = (np.arange(P - stride) // stride) % shape[d] + 1 < shape[d]
        dist = row_norms(coords[:P - stride] - coords[stride:])
        steps.append((stride, pair, dist, dist >= 1e-14))
    return steps


def _slice_pairs(m: list, n: list, budget: int, rng) -> tuple[Array, list, list]:
    """Seeded random pairs of finite nodes, slice by slice in order.  A slice
    with ``m`` finite nodes, at least two, and ``n`` neighbor pairs draws
    pairs until it holds ``budget`` distinct ones, or until a draw has none.

    Returns the pairs as positions in the list of every slice's finite
    nodes, slice after slice (N, 2), with the coincident ones kept; the
    slices that drew any; and how many rows each drew."""
    draws, slices, counts = [], [], []
    for c, (first, size, got) in enumerate(zip(accumulate(m, initial=0), m, n)):
        if got >= budget or size < 2:
            continue
        total = 0
        while got < budget:
            # the stream of rng.choice over the slice's finite nodes
            x = rng.integers(first, first + size, (budget - got, 2))
            k = int(np.count_nonzero(x[:, 0] != x[:, 1]))
            if not k:
                break
            draws.append(x)
            got, total = got + k, total + len(x)
        if total:
            slices.append(c)
            counts.append(total)
    return (np.concatenate(draws) if draws else np.empty((0, 2), dtype=np.int64)), slices, counts


def _slice_maxima(V: Array, coords: Array, steps: list, budget: int, rng) -> Array:
    """The largest quotient of each slice of ``V`` (C, P), 0 where none.

    A slice's pairs are its finite axis neighbors, axis by axis in node
    order, then its random pairs (``_slice_pairs``), cut to ``budget``.  The
    neighbor quotients of all slices come from one expression per axis, and
    the random ones from one gather; a coincident pair is 0 apart and scores
    0, like any pair under 1e-14 apart."""
    C, P = V.shape
    fin = np.isfinite(V)
    best = np.zeros(C)
    n = np.zeros(C, dtype=np.int64)                   # neighbor pairs per slice
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for stride, pair, dist, far in steps:
            held = fin[:, :P - stride] & fin[:, stride:] & pair
            count = np.count_nonzero(held, axis=1)
            if (n + count > budget).any():           # pairs past the budget are cut
                held &= np.cumsum(held, axis=1) + n[:, None] <= budget
                count = np.minimum(count, budget - n)
            q = np.abs(V[:, :P - stride] - V[:, stride:]) / dist
            best = np.maximum(best, np.max(q, axis=1, where=held & far, initial=0.0))
            n += count
        ab, slices, counts = _slice_pairs(np.count_nonzero(fin, axis=1).tolist(), n.tolist(),
                                          budget, rng)
        if slices:
            node = np.flatnonzero(fin)
            vals, at = V.ravel()[node], coords[node % P]
            a, b = ab[:, 0], ab[:, 1]
            dist = row_norms(at[a] - at[b])
            q = np.where(dist >= 1e-14, np.abs(vals[a] - vals[b]) / dist, 0.0)
            starts = np.cumsum(counts) - counts
            best[slices] = np.maximum(best[slices], np.maximum.reduceat(q, starts))
    return best


def lipschitz_profile(
    field: ValueField,
    constants: TrackingConstants,
    pair_budget: int = 2000,
    seed: int = 0,
) -> LipschitzProfile:
    """Per-time empirical Lipschitz quotients against the decay envelope.

    Quotients are maximized over feasible node pairs (nearest neighbors
    first, then seeded random pairs up to the budget) and must stay below
    ``b * exp(-(lam - K) t) * (1 + tol)``, with ``tol`` the field's
    ``scheme_tolerance``.  A time with no pair at least 1e-14 apart
    scores 0.  The slices are taken in chunks of many (``_slice_maxima``);
    only the random draws are made slice by slice, in slice order, and each
    distance rounds as the 1-D ``np.linalg.norm`` of its pair.
    """
    if pair_budget < 1:
        raise ValueError(f"need pair_budget >= 1, got pair_budget={pair_budget}")
    b, K = _envelope_rate(field, constants)
    tol = scheme_tolerance(field)
    rng = np.random.default_rng(seed)
    nodes = field.grid_nodes()
    P, n = nodes.shape
    coords = nodes[:, 0].copy() if n == 1 else nodes
    steps = _neighbor_steps(field.values.shape[1:], coords)
    times = field.times
    per = max(1, _PAIR_CHUNK // max(pair_budget, P))
    emp = np.concatenate([
        _slice_maxima(field.values[lo:lo + per].reshape(-1, P), coords, steps, pair_budget, rng)
        for lo in range(0, len(times), per)])
    bound = b * np.exp(-(field.lam - K) * times)
    passed = bool(np.all(emp <= bound * (1.0 + tol) + 1e-15))
    return LipschitzProfile(times, emp, bound, b, constants.C, K, tol, passed)


# ---------------------------------------------------------------------------
# decay along trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DecayResult:
    times: Array
    values: Array
    envelope: Array
    tail_bound: float
    tol: float
    tol_decay: float
    final_value: float
    passed: bool

    def series(self) -> dict:
        return {"t": self.times, "value": self.values, "envelope": self.envelope}

    def to_jsonable(self) -> dict:
        return {
            "passed": self.passed,
            "final_value": float(self.final_value),
            "tol_decay": float(self.tol_decay),
            "tail_bound": float(self.tail_bound),
            "tol": float(self.tol),
            "max_value": float(np.max(np.abs(self.values))),
        }


def decay_check(
    p: ProblemDefinition,
    field: ValueField,
    traj: Trajectory,
    tol_decay: float = 1e-2,
) -> DecayResult:
    """Field values along a feasible path against the closed-form decay
    envelope; the final sample must fall below ``tol_decay``.

    The path is read at the field's times by one ``state_at`` call, and the
    field there by one ``evaluate_value`` call.  A +inf value raises
    TrajectoryOutOfGrid naming its time, and a state off the grid raises
    OutOfGrid, whichever comes first along the path."""
    a1, a2, lam = field.a1, field.a2, field.lam
    if lam <= a1:
        raise DiscountBelowThreshold(f"need lambda > a1 ({a1})")
    x0n = float(np.linalg.norm(traj.states[0]))
    times = field.times[(field.times >= traj.t0 - 1e-9) & (field.times <= traj.t1 + 1e-9)]
    if times.size == 0:
        raise TrajectoryOutOfGrid("trajectory does not overlap the field horizon")
    states = traj.state_at(times)

    def along(n: int) -> Array:
        """The values at the first ``n`` times; TrajectoryOutOfGrid at the first +inf."""
        vals = np.atleast_1d(evaluate_value(field, times[:n], states[:n]))
        holes = ~np.isfinite(vals)
        if holes.any():
            raise TrajectoryOutOfGrid(
                f"field is infeasible along the path at t={times[holes.argmax()]}; the path "
                "must stay clear of the stencil-clipped boundary layer"
            )
        return vals

    try:
        vals = along(len(times))
    except OutOfGrid as exc:
        if exc.row:                  # a hole before the path leaves the grid comes first
            along(exc.row)
        raise
    env = (1.0 + x0n) * math.exp(a2) * (a1 * times + a1 / (lam - a1) + a2) * np.exp(
        -(lam - a1) * times
    )
    env = env + np.where(times > 1e-12, 1.0 / np.maximum(times, 1e-12), np.inf)
    tol = scheme_tolerance(field)
    ok_env = bool(np.all(np.abs(vals) <= env + field.tail_bound + tol + 1e-15))
    final = float(abs(vals[-1]))
    passed = ok_env and final <= tol_decay
    return DecayResult(times, vals, env, field.tail_bound, tol, tol_decay, final, passed)


# ---------------------------------------------------------------------------
# relaxation gap
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GapResult:
    max_gap: float
    mean_gap: float
    min_gap: float
    n_common: int
    ordering_ok: bool

    @property
    def passed(self) -> bool:
        return self.ordering_ok

    def to_jsonable(self) -> dict:
        return {
            "max_gap": float(self.max_gap),
            "mean_gap": float(self.mean_gap),
            "min_gap": float(self.min_gap),
            "n_common": int(self.n_common),
            "ordering_ok": self.ordering_ok,
            "passed": self.passed,
            "gap_tol": None,
        }


def relaxation_gap(fieldV: ValueField, fieldVstar: ValueField) -> GapResult:
    """Statistics of V - V* over common feasible nodes.

    Mixtures can only lower the minimum, so the gap must be nonnegative up
    to the solver tolerance.
    """
    if not fieldV.compatible_with(fieldVstar):
        raise GridMismatch("fields must share grid, horizon, and discount")
    common = np.isfinite(fieldV.values) & np.isfinite(fieldVstar.values)
    if not common.any():
        return GapResult(0.0, 0.0, 0.0, 0, True)
    d = fieldV.values[common] - fieldVstar.values[common]
    return GapResult(float(d.max()), float(d.mean()), float(d.min()),
                     int(common.sum()), bool(d.min() >= -TOL_DP))


# ---------------------------------------------------------------------------
# regularity in time
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TimeLipschitzResult:
    gate_ok: bool
    sampled_sup: float
    bound_N: float
    probes: Array
    probe_passed: tuple[bool, ...]
    worst: dict
    tol: float

    @property
    def passed(self) -> bool:
        return self.gate_ok and all(self.probe_passed)

    def to_jsonable(self) -> dict:
        return {
            "passed": self.passed,
            "gate_ok": self.gate_ok,
            "sampled_sup": float(self.sampled_sup),
            "bound_N": float(self.bound_N),
            "probe_passed": list(self.probe_passed),
            "worst": self.worst,
            "tol": float(self.tol),
        }


def velocity_cost_sup(field: ValueField, p: ProblemDefinition, probes, level: int = 0) -> float:
    """Sampled sup of ``|f| + |L|`` over the probes (shape ``(k, n)``), the
    sampled controls and 9 times spanning the field's horizon; a NaN counts
    as unbounded.  One ``velocities`` and one ``costs`` call per run of the
    times that share their samples (``ControlSamples.runs``)."""
    times = np.linspace(field.t0, field.T, 9)
    X = np.asarray(probes, dtype=float)[None]
    sup = 0.0
    for a, b, u in p.controls.runs(times.tolist(), level):
        ts = times[a:b, None]
        _, fv = p.velocities(ts, X, level, u)
        lv = p.costs(ts, X, level, u)
        mag = np.linalg.norm(fv, axis=-1) + np.abs(lv)
        sup = max(sup, float(np.where(np.isnan(mag), np.inf, mag).max()))
    return sup


def time_lipschitz_check(
    field: ValueField,
    p: ProblemDefinition,
    constants: TrackingConstants,
    bound_N: float,
    probes,
    level: int = 0,
) -> TimeLipschitzResult:
    """Difference quotients in time at fixed probes against the rate
    ``(b exp(-(lam-K) t) + 2 exp(-lam t)) * N`` with window base ``t``.

    ``bound_N`` must be finite and dominate the sampled sup of |f| + |L|;
    otherwise the gate fails and the probe checks are skipped.  A probe's
    values at the field's times come from one ``evaluate_value`` call, and
    the quotients of all probes from one array expression per stride; the
    witness is the first worst slack in (probe, stride, time) order.
    """
    b, K = _envelope_rate(field, constants)
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    sup = velocity_cost_sup(field, p, probes, level)
    tol = scheme_tolerance(field)
    if not (math.isfinite(bound_N) and bound_N >= sup):
        return TimeLipschitzResult(False, sup, bound_N, probes, (), {}, tol)

    times = field.times
    vals = np.empty((len(probes), len(times)))
    for row, x in zip(vals, probes):
        row[:] = evaluate_value(field, times, np.broadcast_to(x, (len(times), len(x))))
        if not np.all(np.isfinite(row)):
            raise ProbeInfeasible(f"probe {x} leaves the feasible set")
    strides = [s for s in (1, 2, 4) if s < len(times)]
    worst = {"slack": -math.inf}
    if not strides:
        return TimeLipschitzResult(True, sup, bound_N, probes, (True,) * len(probes), worst, tol)
    rate = np.array([(b * math.exp(-(field.lam - K) * t) + 2 * math.exp(-field.lam * t)) * bound_N
                     for t in times.tolist()])
    # every window (t_lo, t_hi), stride after stride: a column of lhs
    t_lo = np.concatenate([times[:-s] for s in strides])
    t_hi = np.concatenate([times[s:] for s in strides])
    lhs = np.concatenate([np.abs(vals[:, s:] - vals[:, :-s]) for s in strides], axis=1)
    rhs = np.concatenate([rate[:-s] for s in strides]) * (t_hi - t_lo) + tol
    passed = tuple(bool(ok) for ok in ~(lhs > rhs + 1e-15).any(axis=1))
    slack = lhs - rhs
    j, i = np.unravel_index(int(np.argmax(np.where(np.isnan(slack), -math.inf, slack))),
                            slack.shape)
    if slack[j, i] > -math.inf:
        worst = {"slack": slack[j, i], "t": float(t_lo[i]), "t2": float(t_hi[i]),
                 "x": [float(a) for a in probes[j]],
                 "lhs": float(lhs[j, i]), "rhs": float(rhs[i])}
    return TimeLipschitzResult(True, sup, bound_N, probes, passed, worst, tol)


# ---------------------------------------------------------------------------
# deterministic report emission
# ---------------------------------------------------------------------------

# Rows formatted and written at a time, so that memory stays flat in the
# length of the file.
_CSV_BLOCK = 4096


def _column_text(a: Array) -> list[str]:
    """``repr`` of each value of a 1-D float column, each distinct bit
    pattern formatted once (keying on bits keeps -0.0 apart from 0.0)."""
    bits, inverse = np.unique(a.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return texts[inverse].tolist()


def write_csv(path: Path, columns: Mapping[str, Array]) -> None:
    """Write equal-length 1-D columns as CSV.

    The first line is the column names joined by ``,``; each following line
    is one row, the Python ``repr`` of each value as a float joined by ``,``.
    Every line ends with ``\\n``.  Raises ``ValueError`` naming a column that
    is not 1-D or whose length differs from the first column's.
    """
    names = list(columns)
    if not names:
        raise ValueError("write_csv needs at least one column")
    cols = [np.asarray(columns[c], dtype=float) for c in names]
    for name, a in zip(names, cols):
        if a.ndim != 1:
            raise ValueError(f"column {name!r} has shape {a.shape}; need a 1-D column")
        if a.size != cols[0].size:
            raise ValueError(f"column {name!r} has {a.size} rows; "
                             f"column {names[0]!r} has {cols[0].size}")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, cols[0].size, _CSV_BLOCK):
            texts = [_column_text(a[start:start + _CSV_BLOCK]) for a in cols]
            fh.write("\n".join(map(",".join, zip(*texts))))
            fh.write("\n")


def write_json(path: Path, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")


def emit_report(results: Mapping[str, object], path) -> list[Path]:
    """Write a JSON summary and one CSV per series-bearing result, whose
    columns are its series.  Byte-deterministic for equal inputs."""
    outdir = Path(path)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    summary = {}
    for name in sorted(results):
        res = results[name]
        summary[name] = res.to_jsonable() if hasattr(res, "to_jsonable") else res
        if hasattr(res, "series"):
            csv_path = outdir / f"{name}.csv"
            write_csv(csv_path, res.series())
            written.append(csv_path)
    spath = outdir / "summary.json"
    write_json(spath, {"n_results": len(summary), "results": summary})
    written.append(spath)
    return written
