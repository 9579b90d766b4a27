"""Certification of quantitative conclusions on computed fields and paths.

Each check compares an empirical quantity against its closed-form envelope,
with a scheme tolerance ``C_GRID * (dx + dt)`` absorbing the discretization
error of the field (the constant is calibrated on the constant-cost closed
form and pinned by a test).  Every verdict serializes all inputs of its
inequality, so a pass can be re-derived from the emitted CSV alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    DiscountBelowThreshold,
    GridMismatch,
    ProbeInfeasible,
    TrajectoryOutOfGrid,
)
from .problem import ProblemDefinition
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


def _slice_pairs(field: ValueField, i: int, budget: int, rng) -> list[tuple[int, int]]:
    """Node-index pairs: grid neighbors first, then seeded random pairs."""
    flat = field.values[i].ravel()
    fin = np.where(np.isfinite(flat))[0]
    if fin.size < 2:
        return []
    shape = field.values[i].shape
    pairs: list[tuple[int, int]] = []
    finite_set = np.zeros(flat.size, dtype=bool)
    finite_set[fin] = True
    for d in range(len(shape)):
        stride = int(np.prod(shape[d + 1:], dtype=int))
        for a in fin:
            b = a + stride
            idx_d = (a // stride) % shape[d]
            if idx_d + 1 < shape[d] and b < flat.size and finite_set[b]:
                pairs.append((int(a), int(b)))
    while len(pairs) < budget and fin.size >= 2:
        extra = rng.choice(fin, size=(budget - len(pairs), 2))
        pairs.extend((int(a), int(b)) for a, b in extra if a != b)
        if not np.any(extra[:, 0] != extra[:, 1]):
            break
    return pairs[:budget]


def lipschitz_profile(
    field: ValueField,
    constants: TrackingConstants,
    pair_budget: int = 2000,
    tol: float | None = None,
    seed: int = 0,
) -> LipschitzProfile:
    """Per-time empirical Lipschitz quotients against the decay envelope.

    Quotients are maximized over feasible node pairs (nearest neighbors
    first, then seeded random pairs up to the budget) and must stay below
    ``b * exp(-(lam - K) t) * (1 + tol)``.
    """
    b, K = _envelope_rate(field, constants)
    tol = scheme_tolerance(field) if tol is None else tol
    rng = np.random.default_rng(seed)
    nodes = field.grid_nodes()
    times = field.times
    emp = np.zeros(len(times))
    for i in range(len(times)):
        flat = field.values[i].ravel()
        best = 0.0
        for a, bdx in _slice_pairs(field, i, pair_budget, rng):
            dist = float(np.linalg.norm(nodes[a] - nodes[bdx]))
            if dist < 1e-14:
                continue
            q = abs(flat[a] - flat[bdx]) / dist
            if q > best:
                best = q
        emp[i] = best
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
    envelope; the final sample must fall below ``tol_decay``."""
    a1, a2, lam = field.a1, field.a2, field.lam
    if lam <= a1:
        raise DiscountBelowThreshold(f"need lambda > a1 ({a1})")
    x0n = float(np.linalg.norm(traj.states[0]))
    times = field.times[(field.times >= traj.t0 - 1e-9) & (field.times <= traj.t1 + 1e-9)]
    if times.size == 0:
        raise TrajectoryOutOfGrid("trajectory does not overlap the field horizon")
    vals = np.empty(len(times))
    for i, t in enumerate(times):
        v = evaluate_value(field, float(t), traj.state_at(float(t)))
        if not math.isfinite(v):
            raise TrajectoryOutOfGrid(
                f"field is infeasible along the path at t={t}; the path must "
                "stay clear of the stencil-clipped boundary layer"
            )
        vals[i] = v
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
    passed: bool
    gap_tol: float | None

    def to_jsonable(self) -> dict:
        return {
            "max_gap": float(self.max_gap),
            "mean_gap": float(self.mean_gap),
            "min_gap": float(self.min_gap),
            "n_common": int(self.n_common),
            "ordering_ok": self.ordering_ok,
            "passed": self.passed,
            "gap_tol": None if self.gap_tol is None else float(self.gap_tol),
        }


def relaxation_gap(
    fieldV: ValueField, fieldVstar: ValueField, gap_tol: float | None = None
) -> GapResult:
    """Statistics of V - V* over common feasible nodes.

    Mixtures can only lower the minimum, so the gap must be nonnegative up
    to the solver tolerance; an optional cap bounds how large it may be.
    """
    if not fieldV.compatible_with(fieldVstar):
        raise GridMismatch("fields must share grid, horizon, and discount")
    common = np.isfinite(fieldV.values) & np.isfinite(fieldVstar.values)
    if not common.any():
        return GapResult(0.0, 0.0, 0.0, 0, True, True, gap_tol)
    d = fieldV.values[common] - fieldVstar.values[common]
    ordering_ok = bool(d.min() >= -TOL_DP)
    passed = ordering_ok and (gap_tol is None or float(d.max()) <= gap_tol)
    return GapResult(float(d.max()), float(d.mean()), float(d.min()),
                     int(common.sum()), ordering_ok, passed, gap_tol)


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
    as unbounded."""
    sup = 0.0
    for t in np.linspace(field.t0, field.T, 9):
        _, fv = p.velocities(float(t), probes, level)
        lv = p.costs(float(t), probes, level)
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

    ``bound_N`` must dominate the sampled sup of |f| + |L|; otherwise the
    gate fails and the probe checks are skipped.
    """
    b, K = _envelope_rate(field, constants)
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    sup = velocity_cost_sup(field, p, probes, level)
    tol = scheme_tolerance(field)
    if bound_N < sup:
        return TimeLipschitzResult(False, sup, bound_N, probes, (), {}, tol)

    times = field.times
    strides = [s for s in (1, 2, 4) if s < len(times)]
    passed: list[bool] = []
    worst = {"slack": -math.inf}
    for x in probes:
        vals = np.array([evaluate_value(field, float(t), x) for t in times])
        if not np.all(np.isfinite(vals)):
            raise ProbeInfeasible(f"probe {x} leaves the feasible set")
        ok = True
        for s in strides:
            for i in range(len(times) - s):
                t_lo, t_hi = float(times[i]), float(times[i + s])
                lhs = abs(vals[i + s] - vals[i])
                rate = (b * math.exp(-(field.lam - K) * t_lo)
                        + 2 * math.exp(-field.lam * t_lo)) * bound_N
                rhs = rate * (t_hi - t_lo) + tol
                if lhs - rhs > worst["slack"]:
                    worst = {"slack": lhs - rhs, "t": t_lo, "t2": t_hi,
                             "x": [float(a) for a in x],
                             "lhs": float(lhs), "rhs": float(rhs)}
                if lhs > rhs + 1e-15:
                    ok = False
        passed.append(ok)
    return TimeLipschitzResult(True, sup, bound_N, probes, tuple(passed), worst, tol)


# ---------------------------------------------------------------------------
# deterministic report emission
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    return repr(float(v))


def write_csv(path: Path, columns: Mapping[str, Array]) -> None:
    names = list(columns)
    rows = np.column_stack([np.asarray(columns[c], dtype=float) for c in names])
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path: Path, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")


def emit_report(results: Mapping[str, object], path) -> list[Path]:
    """Write a JSON summary, one CSV per series-bearing result, and one x-y
    plot-data file per series column.  Byte-deterministic for equal inputs."""
    outdir = Path(path)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    summary = {}
    for name in sorted(results):
        res = results[name]
        summary[name] = res.to_jsonable() if hasattr(res, "to_jsonable") else res
        if hasattr(res, "series"):
            cols = res.series()
            csv_path = outdir / f"{name}.csv"
            write_csv(csv_path, cols)
            written.append(csv_path)
            names = list(cols)
            xcol = names[0]
            for ycol in names[1:]:
                pp = outdir / f"plot_{name}_{ycol}.csv"
                write_csv(pp, {xcol: cols[xcol], ycol: cols[ycol]})
                written.append(pp)
    spath = outdir / "summary.json"
    write_json(spath, {"n_results": len(summary), "results": summary})
    written.append(spath)
    return written
