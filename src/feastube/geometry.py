"""Constraint-set geometry: membership, active sets, distances, moving-set rate.

The feasible set at time ``t`` is the intersection of the sublevel sets
``h_i(t, .) <= 0``.  Everything here derives from one kernel,
``ProblemDefinition.constraint_values`` (see ``problem``), the only caller of
``h``.  Distances are certified upper bounds (multi-start descent plus
segment refinement); upper bounds only strengthen every downstream hypothesis
that consumes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptySourceSet,
    InfeasibleInput,
    ProjectionFailed,
)
from .problem import ProblemDefinition

TOL_FEAS = 1e-9
TOL_BOUNDARY = 1e-8

Array = np.ndarray


def _worst(p: ProblemDefinition, t, X) -> Array:
    """max_i h_i over the last axis; -inf when there are no constraints."""
    return p.constraint_values(t, X).max(axis=-1, initial=-np.inf)


def eval_constraints(p: ProblemDefinition, t: float, x) -> Array:
    """Vector of constraint values ``h_i(t, x)``; membership iff max <= 0."""
    return p.constraint_values(t, x)


def max_violation(p: ProblemDefinition, t: float, x) -> float:
    """max_i h_i(t, x); -inf when there are no constraints."""
    return float(p.constraint_values(t, x).max()) if p.m else -math.inf


def is_feasible(p: ProblemDefinition, t: float, x, tol: float = TOL_FEAS) -> bool:
    return max_violation(p, t, x) <= tol


def feasible_mask(p: ProblemDefinition, t: float | Array, pts: Array,
                  tol: float = TOL_FEAS) -> Array:
    """Vectorized membership over points of shape (..., n).

    ``t`` is a scalar or an array that broadcasts against the points' leading
    axes, so that one call covers many times: ``t`` of shape (k, 1) with
    ``pts`` of shape (1, P, n) gives the (k, P) membership of P points at k
    times.
    """
    return _worst(p, t, pts) <= tol


def violations_along(p: ProblemDefinition, times, states) -> Array:
    """Per-node max_i h_i along a path, one kernel call over all nodes."""
    return _worst(p, np.asarray(times, dtype=float), states)


def _bisect(holds, s_in, s_out, iters: int) -> Array:
    """Batched bisection of parameters from ``s_in``, where ``holds`` is true,
    and ``s_out``, where it is false (the two broadcast to one shape).

    Each of the ``iters`` levels halves every bracket with one call of
    ``holds`` on the array of midpoints, which says where it holds.  Returns
    the final parameters where it holds.
    """
    s_in, s_out = (np.array(s, dtype=float) for s in np.broadcast_arrays(s_in, s_out))
    for _ in range(iters):
        mid = 0.5 * (s_in + s_out)
        ok = np.asarray(holds(mid))
        np.copyto(s_in, mid, where=ok)
        np.copyto(s_out, mid, where=~ok)
    return s_in


def distances_upper_along(p: ProblemDefinition, times, states) -> Array:
    """Per-node upper bound on the feasible-set distance along a path.

    Violating nodes are bisected toward the anchor simultaneously (one
    vectorized constraint evaluation per bisection level); an infeasible
    anchor at one of their times raises ``InfeasibleInput``.
    """
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    out = np.zeros(len(times))
    bad = np.where(violations_along(p, times, states) > TOL_FEAS)[0]
    if bad.size:
        xs, ts = states[bad], times[bad]
        anchors = np.stack([np.asarray(p.anchor(float(t)), dtype=float) for t in ts])
        off = _worst(p, ts, anchors) > TOL_FEAS
        if off.any():
            raise InfeasibleInput(f"anchor infeasible at t={ts[np.argmax(off)]}")
        span = anchors - xs
        hi = _bisect(lambda s: _worst(p, ts, xs + s[:, None] * span) <= TOL_FEAS,
                     np.ones(len(span)), 0.0, 50)
        out[bad] = hi * np.linalg.norm(span, axis=1)
    return out


def clearance_proxy(p: ProblemDefinition, t, x):
    """Certified lower bound on the distance from a feasible x to the boundary.

    Uses min_i (-h_i)/grad_bound_i; exact for affine constraints.  One point
    gives a float; points of shape ``(..., n)``, with ``t`` broadcasting
    against their leading axes, give an array.
    """
    gb = np.maximum(p.grad_bounds(), 1e-12)
    clear = np.min(-p.constraint_values(t, x) / gb, axis=-1, initial=np.inf)
    return float(clear) if clear.ndim == 0 else clear


@dataclass(frozen=True)
class ActiveSetReport:
    indices: frozenset[int]
    radius_delta: float
    conservative: bool = True

    def to_jsonable(self) -> dict:
        return {
            "indices": sorted(self.indices),
            "radius_delta": float(self.radius_delta),
            "conservative": self.conservative,
        }


def active_set(
    p: ProblemDefinition,
    t: float,
    x,
    delta: float,
    tol_boundary: float = TOL_BOUNDARY,
) -> ActiveSetReport:
    """Conservative superset of the constraints active within a delta-ball.

    Index i (0-based) is included iff ``h_i(t,x) + delta * grad_bound_i >=
    -tol_boundary``; any constraint whose boundary meets B(x, delta) passes
    this test, so the report is a superset of the exact delta-active set.
    """
    idx = _active_indices(p, eval_constraints(p, t, x), delta, tol_boundary)
    return ActiveSetReport(frozenset(idx), float(delta))


def _active_indices(p: ProblemDefinition, hv: Array, delta: float,
                    tol_boundary: float = TOL_BOUNDARY) -> list[int]:
    """``active_set``'s indices, ascending, from the constraint values ``hv``."""
    if delta < 0 or tol_boundary < 0:
        raise ValueError("delta and tol_boundary must be nonnegative")
    return [i for i, c in enumerate(p.constraints)
            if hv[i] + delta * c.grad_bound >= -tol_boundary]


@dataclass(frozen=True)
class DistanceResult:
    distance: float
    witness: Array
    certified: bool

    def to_jsonable(self) -> dict:
        return {
            "distance": float(self.distance),
            "witness": [float(v) for v in np.asarray(self.witness).reshape(-1)],
            "certified": self.certified,
        }


def _segment_refine(p, t, x, Y, iters: int = 60) -> Array:
    """Pull feasible rows of Y toward x along their segments, staying feasible."""
    span = Y - x  # x + s*span: infeasible at s = 0, feasible at s = 1
    s = _bisect(lambda s: _worst(p, t, x + s[:, None] * span) <= TOL_FEAS,
                np.ones(len(span)), 0.0, iters)
    return x + s[:, None] * span


def distance_to_omega(
    p: ProblemDefinition,
    t: float,
    x,
    budget: int = 400,
    oracle: bool = False,
    oracle_points: int = 401,
) -> DistanceResult:
    """Upper bound on the distance from x to the feasible set at time t.

    Feasible inputs return distance 0 immediately.  Otherwise runs descent on
    the violation from 8 deterministic seeded starts, refines each feasible
    hit along the segment back to x, and keeps the best witness.  With
    ``oracle=True`` a dense grid over the problem box confirms the result
    (certified when the bound matches the grid optimum within one cell).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if is_feasible(p, t, x):
        return DistanceResult(0.0, x, True)

    rng = np.random.default_rng(0xFEA5)
    extent = float(np.max(p.box[:, 1] - p.box[:, 0]))
    dirs = rng.standard_normal((7, p.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    starts = [x] + [x + r * d for r, d in zip(np.linspace(0.1, 0.9, 7) * extent, dirs)]
    starts.append(np.asarray(p.anchor(t), dtype=float))

    hits = []
    per_start = max(budget // len(starts), 8)
    for y0 in starts:
        y = np.array(y0, dtype=float)
        for _ in range(per_start):
            hv = eval_constraints(p, t, y)
            i = int(np.argmax(hv))
            if hv[i] <= 0.0:
                break
            g = np.asarray(p.constraints[i].grad(t, y), dtype=float).reshape(-1)
            gg = float(g @ g)
            if gg < 1e-16:
                break
            y = y - (hv[i] / gg) * g  # Newton step onto the level set
        if is_feasible(p, t, y):
            hits.append(y)
    if not hits:
        raise ProjectionFailed(f"no feasible witness found at t={t} within budget")
    refined = _segment_refine(p, t, x, np.array(hits))
    best = refined[int(np.argmin([np.linalg.norm(y - x) for y in refined]))]

    dist = float(np.linalg.norm(best - x))
    certified = False
    if oracle:
        axes = [np.linspace(p.box[d, 0], p.box[d, 1], oracle_points) for d in range(p.n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([m.ravel() for m in mesh])
        feas = feasible_mask(p, t, pts)
        if feas.any():
            norms = np.linalg.norm(pts[feas] - x, axis=1)
            gd = float(norms.min())
            step = max(float(a[1] - a[0]) for a in axes)
            certified = abs(dist - gd) <= step * math.sqrt(p.n) + 1e-12
            # keep the tighter of the two upper bounds
            if gd < dist:
                best, dist = pts[feas][int(np.argmin(norms))], gd
    return DistanceResult(dist, best, certified)


def distance_upper(p: ProblemDefinition, t: float, x) -> float:
    """Cheap certified upper bound on the feasible-set distance.

    Bisects the segment from x to the problem anchor; intended for inner
    loops that only need an upper bound (which can only strengthen the
    violation measure they feed).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if is_feasible(p, t, x):
        return 0.0
    a = np.asarray(p.anchor(t), dtype=float)
    if not is_feasible(p, t, a):  # anchor contract violated
        return distance_to_omega(p, t, x).distance
    y = _segment_refine(p, t, x, a[None, :])[0]
    return float(np.linalg.norm(y - x))


def _directions(n: int, count: int = 24) -> Array:
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        ang = 2 * math.pi * np.arange(count) / count
        return np.column_stack([np.cos(ang), np.sin(ang)])
    rng = np.random.default_rng(0xD1E5)
    d = rng.standard_normal((max(count, 4 * n), n))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return np.vstack([np.eye(n), -np.eye(n), d])


def boundary_tube_membership(p: ProblemDefinition, t: float, x, eta: float) -> bool:
    """True iff a feasible x lies within eta of the constraint boundary.

    The boundary is located by sign changes of max_i h_i along sampled rays
    with bisection refinement; a sampled check, not a proof of absence.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    x = np.asarray(x, dtype=float).reshape(-1)
    v0 = max_violation(p, t, x)
    if v0 > TOL_FEAS:
        raise InfeasibleInput(f"x is infeasible at t={t} (max h = {v0:.3e})")
    if p.m == 0:
        return False
    if v0 >= -TOL_BOUNDARY:
        return True  # already on the boundary
    # Analytic prescreen: no boundary can be closer than min_i (-h_i)/L_i.
    if clearance_proxy(p, t, x) > eta:
        return False
    return bool((_worst(p, t, x + eta * _directions(p.n)) > 0.0).any())


def excess(A, B, t: float | None = None) -> float:
    """One-sided set distance: max over a in A of dist(a, B).

    ``B`` is either a finite point set (array-like of shape (k, n)) or a
    constraint region given as a ProblemDefinition together with ``t``.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.size == 0:
        raise EmptySourceSet("excess needs a nonempty source set")
    if isinstance(B, ProblemDefinition):
        if t is None:
            raise ValueError("region excess needs the time t")
        return max(distance_to_omega(B, t, a).distance for a in A)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.size == 0:
        raise EmptySourceSet("excess target set is empty")
    return float(max(np.min(np.linalg.norm(B - a, axis=1)) for a in A))


@dataclass(frozen=True)
class OmegaLipschitzReport:
    L_hat: float
    bound: float
    passed: bool
    worst: dict

    def to_jsonable(self) -> dict:
        return {"L_hat": float(self.L_hat), "bound": float(self.bound),
                "passed": self.passed, "worst": self.worst}


def omega_lipschitz_estimate(
    p: ProblemDefinition,
    horizon: tuple[float, float],
    time_samples: int = 25,
    space_samples: int = 60,
    tol: float = 0.05,
    seed: int = 0,
) -> OmegaLipschitzReport:
    """Estimate the Lipschitz rate of the moving feasible set.

    L_hat = max over sampled (s, t, x in Omega(s)) of dist(x, Omega(t)) /
    |s - t|, compared against the declared rate with relative slack
    ``tol``.
    """
    t0, t1 = horizon
    if not t1 > t0:
        raise ValueError("horizon must be nondegenerate")
    ts = np.linspace(t0, t1, time_samples)
    rng = np.random.default_rng(seed)
    lo, hi = p.box[:, 0], p.box[:, 1]
    pts = lo + rng.random((space_samples, p.n)) * (hi - lo)

    L_hat, worst = 0.0, {}
    pairs = [(i, i + k) for k in (1, 2, 4) for i in range(len(ts) - k)]
    pairs += [(j, i) for i, j in pairs]  # set-valued Lipschitz is two-sided
    for i, j in pairs:
        s, t = float(ts[i]), float(ts[j])
        sel = pts[feasible_mask(p, s, pts)]
        for x in sel:
            d = distance_upper(p, t, x)
            ratio = d / abs(t - s)
            if ratio > L_hat:
                L_hat = ratio
                worst = {"s": s, "t": t, "x": [float(v) for v in x],
                         "distance": float(d), "ratio": float(ratio)}
    passed = L_hat <= p.data.omega_lip * (1.0 + tol) + 1e-12
    return OmegaLipschitzReport(L_hat, p.data.omega_lip, passed, worst)


def boundary_samples(
    p: ProblemDefinition, times, n_dirs: int = 24, ray_factor: float = 1.5
) -> tuple[Array, Array]:
    """Boundary points of the feasible set at every time in ``times``.

    Casts rays from the problem anchor at each time toward sampled
    directions and bisects the sign change of max_i h_i; rays that never
    leave the set within ``ray_factor`` times the box diagonal are skipped.
    Works for the star-shaped benchmark sets.  ``n_dirs`` is ignored in 1-D
    (always the two rays +-1); in 2-D it is the number of equally spaced
    angles; for n >= 3 the rays are the 2n axis directions plus
    ``max(n_dirs, 4n)`` seeded random ones.

    Returns ``(ts, X)``: row ``j`` of ``X`` is a boundary point at time
    ``ts[j]``, in time-major order (all rays of the first time, in direction
    order, then the next time).  Every ray of every time is bisected in one
    row-batched ``_bisect``.  An infeasible anchor raises
    ``InfeasibleInput`` naming the first such time.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    if p.m == 0 or times.size == 0:
        return np.empty(0), np.empty((0, p.n))
    anchors = np.stack([np.asarray(p.anchor(float(t)), dtype=float) for t in times])
    off = _worst(p, times, anchors) > TOL_FEAS
    if off.any():
        raise InfeasibleInput(f"anchor infeasible at t={times[np.argmax(off)]}")
    R = ray_factor * float(np.linalg.norm(p.box[:, 1] - p.box[:, 0]))
    dirs = _directions(p.n, n_dirs)
    ts = np.repeat(times, len(dirs))
    base = np.repeat(anchors, len(dirs), axis=0)
    rays = np.tile(dirs, (len(times), 1))
    leave = _worst(p, ts, base + R * rays) > 0.0
    ts, base, rays = ts[leave], base[leave], rays[leave]
    s = _bisect(lambda s: _worst(p, ts, base + s[:, None] * rays) <= 0.0,
                np.zeros(len(rays)), R, 60)
    return ts, base + s[:, None] * rays


def sample_boundary_points(
    p: ProblemDefinition, t: float, n_dirs: int = 24, ray_factor: float = 1.5
) -> list[Array]:
    """Boundary points of the feasible set at time t, as a list of rows of
    ``boundary_samples(p, [t], n_dirs, ray_factor)``."""
    return list(boundary_samples(p, [t], n_dirs, ray_factor)[1])
