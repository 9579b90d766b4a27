"""Constraint-set geometry: membership, active sets, distances, boundary samples.

The feasible set at time ``t`` is the intersection of the sublevel sets
``h_i(t, .) <= 0``.  Everything here derives from one kernel,
``ProblemDefinition.constraint_values`` (see ``problem``), the only caller of
``h``.  Its ``(..., m)`` values are reduced to the worst constraint, or
to the clearance, by m - 1 elementwise ``np.maximum`` (``np.minimum``)
calls over the constraint columns (``problem._fold``): numpy's max over
the short trailing axis cost several times the kernel itself on the value
sweep's batches.  Distances are certified upper bounds (multi-start descent plus
segment refinement); upper bounds only strengthen every downstream hypothesis
that consumes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleInput, ProjectionFailed
from .problem import ProblemDefinition, _fold

TOL_FEAS = 1e-9
TOL_BOUNDARY = 1e-8

Array = np.ndarray


def _worst(p: ProblemDefinition, t, X) -> Array:
    """max_i h_i, folded column by column; -inf when there are no constraints."""
    return _fold(np.maximum, p.constraint_values(t, X), -np.inf)


def eval_constraints(p: ProblemDefinition, t: float, x) -> Array:
    """Vector of constraint values ``h_i(t, x)``; membership iff max <= 0."""
    return p.constraint_values(t, x)


def max_violation(p: ProblemDefinition, t: float, x) -> float:
    """max_i h_i(t, x); -inf when there are no constraints."""
    return float(_worst(p, t, x))


def is_feasible(p: ProblemDefinition, t: float, x) -> bool:
    return max_violation(p, t, x) <= TOL_FEAS


def feasible_mask(p: ProblemDefinition, t: float | Array, pts: Array) -> Array:
    """Vectorized membership over points of shape (..., n).

    ``t`` is a scalar or an array that broadcasts against the points' leading
    axes, so that one call covers many times: ``t`` of shape (k, 1) with
    ``pts`` of shape (1, P, n) gives the (k, P) membership of P points at k
    times.
    """
    return _worst(p, t, pts) <= TOL_FEAS


def violations_along(p: ProblemDefinition, times, states) -> Array:
    """Per-node max_i h_i along a path, one kernel call over all nodes."""
    return _worst(p, np.asarray(times, dtype=float), states)


def _bisect(holds, s_in, s_out, iters: int) -> Array:
    """Batched bisection of parameters from ``s_in``, where ``holds`` is true,
    and ``s_out``, where it is false (the two broadcast to one shape).

    Each of up to ``iters`` levels halves every bracket with one call of
    ``holds`` on the array of midpoints, which says where it holds.  Returns
    the final parameters where it holds, after the first level that moves
    no bracket end: every later level would repeat it exactly.
    """
    s_in, s_out = (np.array(s, dtype=float) for s in np.broadcast_arrays(s_in, s_out))
    ends = None
    for _ in range(iters):
        mid = 0.5 * (s_in + s_out)
        ok = np.asarray(holds(mid))
        np.copyto(s_in, mid, where=ok)
        np.copyto(s_out, mid, where=~ok)
        before, ends = ends, (s_in.tobytes(), s_out.tobytes())
        if ends == before:
            break
    return s_in


_DISTANCE_LEVELS = 50


def _anchors(p: ProblemDefinition, times: Array) -> Array:
    """The anchors at ``times`` (T,), stacked (T, n) by one ``anchors``
    call.  An infeasible one raises ``InfeasibleInput`` naming the first
    such time."""
    anchors = p.anchors(times)
    off = _worst(p, times, anchors) > TOL_FEAS
    if off.any():
        raise InfeasibleInput(f"anchor infeasible at t={times[np.argmax(off)]}")
    return anchors


def _toward_anchors(p: ProblemDefinition, times, states):
    """The violating nodes of a path, the lengths of the spans from them to
    the anchors at their times, and ``holds(rows)``: the test of
    ``_bisect`` for those of its rows, whether they are feasible at given
    fractions of their spans.  An infeasible anchor at one of their times
    raises ``InfeasibleInput``."""
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    bad = np.where(violations_along(p, times, states) > TOL_FEAS)[0]
    xs, ts = states[bad], times[bad]
    span = _anchors(p, ts) - xs if bad.size else np.empty_like(xs)

    def holds(rows):
        t, x, d = ts[rows], xs[rows], span[rows]
        return lambda s: _worst(p, t, x + s[:, None] * d) <= TOL_FEAS

    return bad, np.linalg.norm(span, axis=1), holds


def distances_upper_along(p: ProblemDefinition, times, states) -> Array:
    """Per-node upper bound on the feasible-set distance along a path.

    Violating nodes are bisected toward the anchor at their times
    simultaneously (one ``anchors`` call for all of them, one vectorized
    constraint evaluation per bisection level); an infeasible anchor at one
    of their times raises ``InfeasibleInput``.
    """
    bad, length, holds = _toward_anchors(p, times, states)
    out = np.zeros(len(times))
    if bad.size:
        out[bad] = _bisect(holds(slice(None)), np.ones(len(bad)), 0.0, _DISTANCE_LEVELS) * length
    return out


def max_distance_upper_along(p: ProblemDefinition, times, states) -> float:
    """``distances_upper_along(p, times, states).max()``, bit for bit, from
    fewer bisected nodes.

    After 8 levels on every violating node, a node's bracket ends ``s_in``
    and ``s_in - 2**-8`` bound its final distance from above and below
    (``fl(s * length)`` is monotone in ``s``).  Only the nodes whose
    upper bound reaches the largest lower bound can hold the maximum, and
    only they are bisected through the remaining levels: each bracket moves
    alone, and one at a fixed point stays there, so each ends where it ends
    in the full bisection.
    """
    bad, length, holds = _toward_anchors(p, times, states)
    if not bad.size:
        return 0.0
    first = 8
    s_in = _bisect(holds(slice(None)), np.ones(len(bad)), 0.0, first)
    near = np.flatnonzero(s_in * length >= ((s_in - 2.0 ** -first) * length).max())
    s_in = _bisect(holds(near), s_in[near], s_in[near] - 2.0 ** -first,
                   _DISTANCE_LEVELS - first)
    return float((s_in * length[near]).max())


def clearance_proxy(p: ProblemDefinition, t, x):
    """Certified lower bound on the distance from a feasible x to the boundary.

    Uses min_i (-h_i)/grad_bound_i, folded column by column as in
    ``_worst``; exact for affine constraints.  One point gives a float;
    points of shape ``(..., n)``, with ``t`` broadcasting against their
    leading axes, give an array.
    """
    gb = np.maximum(p.grad_bounds(), 1e-12)
    clear = _fold(np.minimum, -p.constraint_values(t, x) / gb, np.inf)
    return float(clear) if clear.ndim == 0 else clear


@dataclass(frozen=True)
class ActiveSetReport:
    """The indices of ``active_set``, always a superset of the exact
    delta-active set (``conservative`` in its JSON)."""

    indices: frozenset[int]
    radius_delta: float

    def to_jsonable(self) -> dict:
        return {
            "indices": sorted(self.indices),
            "radius_delta": float(self.radius_delta),
            "conservative": True,
        }


def active_set(p: ProblemDefinition, t: float, x, delta: float) -> ActiveSetReport:
    """Conservative superset of the constraints active within a delta-ball.

    Index i (0-based) is included iff ``h_i(t,x) + delta * grad_bound_i >=
    -TOL_BOUNDARY``; any constraint whose boundary meets B(x, delta) passes
    this test, so the report is a superset of the exact delta-active set.
    """
    idx = np.flatnonzero(_active_mask(p, eval_constraints(p, t, x), delta))
    return ActiveSetReport(frozenset(idx.tolist()), float(delta))


def _active_mask(p: ProblemDefinition, H: Array, delta: float) -> Array:
    """Which constraints ``active_set`` reports at each row of the
    constraint values ``H`` (..., m): a boolean array of ``H``'s shape."""
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got delta={delta}")
    return H + delta * p.grad_bounds() >= -TOL_BOUNDARY


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


def _segment_refine(p, t, x, Y) -> Array:
    """Pull feasible rows of Y toward x along their segments, staying feasible."""
    span = Y - x  # x + s*span: infeasible at s = 0, feasible at s = 1
    s = _bisect(lambda s: _worst(p, t, x + s[:, None] * span) <= TOL_FEAS,
                np.ones(len(span)), 0.0, 60)
    return x + s[:, None] * span


def distance_to_omega(
    p: ProblemDefinition,
    t: float,
    x,
    budget: int = 400,
    oracle: bool = False,
) -> DistanceResult:
    """Upper bound on the distance from x to the feasible set at time t.

    Feasible inputs return distance 0 immediately.  Otherwise runs descent on
    the violation from 8 deterministic seeded starts, refines each feasible
    hit along the segment back to x, and keeps the best witness.  With
    ``oracle=True`` a dense grid of 401 points per axis over the problem box
    confirms the result (certified when the bound matches the grid optimum
    within one cell).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if is_feasible(p, t, x):
        return DistanceResult(0.0, x, True)

    rng = np.random.default_rng(0xFEA5)
    extent = float(np.max(p.box[:, 1] - p.box[:, 0]))
    dirs = rng.standard_normal((7, p.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    starts = [x] + [x + r * d for r, d in zip(np.linspace(0.1, 0.9, 7) * extent, dirs)]
    starts.append(p.anchors(t))

    hits = []
    per_start = max(budget // len(starts), 8)
    for y0 in starts:
        y = np.array(y0, dtype=float)
        for _ in range(per_start):
            hv = eval_constraints(p, t, y)
            i = int(np.argmax(hv))
            if hv[i] <= 0.0:
                break
            g = p.gradients(t, y)[i]
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
        axes = [np.linspace(p.box[d, 0], p.box[d, 1], 401) for d in range(p.n)]
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


def boundary_samples(p: ProblemDefinition, times, n_dirs: int = 24) -> tuple[Array, Array]:
    """Boundary points of the feasible set at every time in ``times``.

    Casts rays from the problem anchor at each time toward sampled
    directions and bisects the sign change of max_i h_i; rays that never
    leave the set within 1.5 times the box diagonal are skipped.
    Works for the star-shaped benchmark sets.  ``n_dirs`` is ignored in 1-D
    (always the two rays +-1); in 2-D it is the number of equally spaced
    angles; for n >= 3 the rays are the 2n axis directions plus
    ``max(n_dirs, 4n)`` seeded random ones.

    Returns ``(ts, X)``: row ``j`` of ``X`` is a boundary point at time
    ``ts[j]``, in time-major order (all rays of the first time, in direction
    order, then the next time).  The anchors of all the times come from one
    ``anchors`` call, so ``anchor`` must broadcast over an array of times;
    every ray of every time is bisected in one row-batched ``_bisect``.  An
    infeasible anchor raises ``InfeasibleInput`` naming the first such
    time.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    if p.m == 0 or times.size == 0:
        return np.empty(0), np.empty((0, p.n))
    anchors = _anchors(p, times)
    R = 1.5 * float(np.linalg.norm(p.box[:, 1] - p.box[:, 0]))
    dirs = _directions(p.n, n_dirs)
    ts = np.repeat(times, len(dirs))
    base = np.repeat(anchors, len(dirs), axis=0)
    rays = np.tile(dirs, (len(times), 1))
    leave = _worst(p, ts, base + R * rays) > 0.0
    ts, base, rays = ts[leave], base[leave], rays[leave]
    s = _bisect(lambda s: _worst(p, ts, base + s[:, None] * rays) <= 0.0,
                np.zeros(len(rays)), R, 60)
    return ts, base + s[:, None] * rays


def sample_boundary_points(p: ProblemDefinition, t: float, n_dirs: int = 24) -> list[Array]:
    """Boundary points of the feasible set at time t, as a list of rows of
    ``boundary_samples(p, [t], n_dirs)``."""
    return list(boundary_samples(p, [t], n_dirs)[1])
