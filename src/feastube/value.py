"""Discounted value fields on space-time grids by backward dynamic programming.

The infinite-horizon cost is truncated at a horizon where the closed-form
tail envelope drops below a tolerance; the terminal value is zero and the
certified tail bound travels with the field.  Infeasible nodes carry the
+inf sentinel, which flows through spatial interpolation whenever a stencil
corner is infeasible, so feasibility information propagates exactly.

The relaxed variant minimizes over simplex mixtures of up to n+1 sampled
controls on a barycentric weight grid; the plain variant uses the sampled
controls alone (identical to mixture resolution 1).

Every spatial interpolation goes through one kernel.  ``_terms`` turns
points, given as per-axis coordinate arrays, into terms: each point's
contributing corners in corner order, as flat indices into the slice and
weights, with pads that mark a point off the grid or short of terms.
``_apply_stencil`` gathers a slice followed by the pads 0.0 and +inf (as
``_padded`` pads a copy) once for all terms and adds them in order; +inf at
a node or pad flows through the weighted sum.  ``evaluate_value`` builds the
terms of its points once for both bracketing slices.

Each backward step interpolates once per distinct candidate velocity array:
candidates whose velocity arrays have equal bytes share one interpolation
under their per-node minimum cost, which leaves every field bit-identical to
one interpolation per candidate.  The groups' foot points are interpolated in
batches of a bounded point count, and every batch's terms are built from its
feet (``_terms``).  A sweep keeps the groups of the last sampled velocities
it met; a slice whose sampled velocities have the same bytes reuses them,
and the second such slice stores each batch's terms, which later slices
only apply.  Groups whose velocities are the same at every node, as in the
semi-Lagrangian scheme on a structured grid (Falcone & Ferretti, SIAM 2013),
keep one row per group.

A sweep decides the feasibility of every node at every time slice before
it steps: one constraint-kernel call per chunk of whole slices, of at most
``_FEAS_CHUNK`` points each.  It evaluates the dynamics and the running
cost the same way, one ``velocities`` and one ``costs`` call per block of
slices whose control samples are equal, of at most ``_FEAS_CHUNK`` velocity
values (``_sweep_rows``); each block also decides, for all its slices,
whether a slice's velocities repeat the last slice's and whether a feasible
node's cost is not finite.  The sweep keeps its slices end to end in one
array, and each step pads the next slice in place.  Each slice then pays
only for the work that depends on the next slice's values: mixing, the
stencil apply and the minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from . import geometry as geo
from .errors import DiscountTooSmall, GridTooCoarse, NonFiniteCost, OutOfGrid
from .problem import ProblemDefinition

Array = np.ndarray

TOL_DP = 1e-9


# ---------------------------------------------------------------------------
# truncation horizon
# ---------------------------------------------------------------------------

def tail_envelope(p: ProblemDefinition, lam: float, x0_bound: float, T: float) -> float:
    """Closed-form bound on the discounted cost accumulated after time T."""
    a1, a2 = p.data.a1, p.data.a2
    if lam <= a1:
        raise DiscountTooSmall(f"need lambda > a1 ({a1}), got {lam}")
    lead = (p.n + 1) * (1.0 + x0_bound) * math.exp(a2)
    return lead * (a1 * T + a1 / (lam - a1) + a2) * math.exp(-(lam - a1) * T)


def truncation_horizon(
    p: ProblemDefinition,
    lam: float,
    x0_bound: float,
    tol: float,
    t0: float = 0.0,
    dt: float = 0.25,
) -> tuple[float, float]:
    """Smallest grid-aligned horizon whose tail envelope is below tol."""
    if tol <= 0 or dt <= 0:
        raise ValueError("tol and dt must be positive")
    T = t0
    for _ in range(2_000_000):
        bound = tail_envelope(p, lam, x0_bound, T)
        if bound <= tol:
            return T, bound
        T += dt
    raise RuntimeError("tail envelope never dropped below tol")  # pragma: no cover


# ---------------------------------------------------------------------------
# relaxed velocity sets
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def _mixture_matrix(k: int, support: int, resolution: int) -> Array:
    """All simplex weights over k controls with at most ``support`` nonzero
    entries on a barycentric grid of the given resolution; rows are unique."""
    if resolution < 1:
        raise ValueError("mixture resolution must be >= 1")
    rows: list[np.ndarray] = []

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for head in range(1, total - parts + 2):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    for s in range(1, min(support, k, resolution) + 1):
        for combo in combinations(range(k), s):
            for comp in compositions(resolution, s):
                w = np.zeros(k)
                for j, c in zip(combo, comp):
                    w[j] = c / resolution
                rows.append(w)
    W = np.unique(np.stack(rows), axis=0)
    W.setflags(write=False)
    return W


@dataclass(frozen=True, eq=False)
class RelaxedVelocity:
    controls: Array   # (n+1, d), padded with repeats for small supports
    weights: Array    # simplex weights matching `controls`
    f_star: Array
    L_star: float


def relaxed_velocity_set(
    p: ProblemDefinition,
    t: float,
    x,
    level: int = 0,
    mixture_grid: int = 4,
) -> list[RelaxedVelocity]:
    """Mixture velocities and costs at (t, x), one per distinct (f*, L*).

    These are the relaxed solver's candidates at the single node ``x``.
    Resolution 1 returns exactly the unrelaxed sampled velocities.
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    u, f_all = p.velocities(t, x, level)
    W = _mixture_matrix(u.shape[0], p.n + 1, mixture_grid)
    f_star, L_star = _mix(W, f_all), _mix(W, p.costs(t, x, level, u))
    slot = np.arange(p.n + 1)
    out: list[RelaxedVelocity] = []
    seen: set[tuple] = set()
    for row, fs, ls in zip(W, f_star[:, 0], L_star[:, 0]):
        key = (*fs.tolist(), float(ls))
        if key in seen:
            continue
        seen.add(key)
        sup = np.flatnonzero(row)
        pick = sup[np.minimum(slot, len(sup) - 1)]    # pad with the last support control
        out.append(RelaxedVelocity(u[pick], np.where(slot < len(sup), row[pick], 0.0),
                                   fs, float(ls)))
    return out


# ---------------------------------------------------------------------------
# value fields
# ---------------------------------------------------------------------------

def _mesh_nodes(axes) -> Array:
    """Grid nodes of the axes' product, shape (P, n), last axis fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Uniform space grid (per-dimension bounds and point counts) plus dt."""

    lo: Array
    hi: Array
    shape: tuple[int, ...]
    dt: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=float).reshape(-1)
        hi = np.asarray(self.hi, dtype=float).reshape(-1)
        if len(lo) != len(hi) or len(lo) != len(self.shape):
            raise ValueError("lo, hi, shape must agree in dimension")
        if np.any(hi <= lo) or any(s < 2 for s in self.shape) or self.dt <= 0:
            raise ValueError("degenerate grid")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))

    def axes(self) -> tuple[Array, ...]:
        return tuple(
            np.linspace(self.lo[d], self.hi[d], self.shape[d])
            for d in range(len(self.shape))
        )

    def nodes(self) -> Array:
        return _mesh_nodes(self.axes())


def grid_for(p: ProblemDefinition, points: int | tuple[int, ...], dt: float, t0: float = 0.0) -> GridSpec:
    """Grid over the problem's working box."""
    shape = (points,) * p.n if isinstance(points, int) else tuple(points)
    return GridSpec(p.box[:, 0], p.box[:, 1], shape, dt, t0)


def cell_crossing_dt(p: ProblemDefinition, shape: tuple[int, ...], t0: float = 0.0,
                     level: int = 0) -> float:
    """The time step at which one step of the fastest sampled control along
    each constrained axis reaches that axis's space step, on ``shape`` nodes
    over the working box: the largest over the constrained axes of the box
    width over ``shape[d] - 1``, divided by the largest ``|velocity
    component|`` along the axis among the sampled controls at
    ``(t0, anchor(t0))``.  Every axis counts when none is constrained.
    Raises ValueError naming a counted axis that no sampled control moves
    along."""
    a = np.asarray(p.anchor(float(t0)), dtype=float)
    speed = _axis_speeds(p, float(t0), a, level)
    counted = _constrained_axes(p, [t0])
    axes = np.flatnonzero(counted) if counted.any() else range(p.n)
    for d in axes:
        if speed[d] == 0.0:
            raise ValueError(
                f"no sampled control of {p.name} moves along constrained axis {d} at "
                f"t={float(t0)}, x={a}: no time step crosses a cell along it; choose the "
                f"grid and dt explicitly"
            )
    return float(max((p.box[d, 1] - p.box[d, 0]) / (shape[d] - 1) / speed[d] for d in axes))


def _axis_cells(ax: Array, x: Array) -> tuple[Array, Array, Array]:
    """Cell index, fraction and out-of-grid flag of coordinates ``x`` on the
    uniform 1-D axis ``ax``.  Fractions within 1e-9 of a node snap to it."""
    step = ax[1] - ax[0]
    out = (x < ax[0] - 1e-9 * step) | (x > ax[-1] + 1e-9 * step)
    pos = np.minimum(np.maximum((x - ax[0]) / step, 0.0), len(ax) - 1.0)
    i = np.minimum(pos.astype(int), len(ax) - 2)
    fr = pos - i
    fr[fr < 1e-9] = 0.0
    fr[fr > 1 - 1e-9] = 1.0
    return i, fr, out


def _terms(axes: tuple[Array, ...], coords) -> tuple[Array, Array]:
    """Multilinear interpolation terms on the grid of ``axes`` at the points
    whose coordinates along each axis are ``coords[d]``; the coordinate
    arrays broadcast to one shape S.

    A point's cell index and fraction along each axis come from
    ``_axis_cells`` (fractions within 1e-9 of a node snap to it), and its
    corner weights are their products in corner order, last axis fastest.
    Returns terms ``(flat, w)`` of shape (K,) + S: the k-th term of a point
    is its k-th contributing corner (weight above 1e-15), so that the terms
    add in corner order and a point needs as many terms as it has
    contributing corners.  ``flat`` indexes the flattened slice extended by
    two pads (``_padded``): a point with fewer contributing corners than
    terms reads pad ``P`` (0.0) at weight 0 in the rest, and a point off the
    grid reads pad ``P + 1`` (+inf) at its first corner's weight, above 1e-15.
    """
    sizes = tuple(len(a) for a in axes)
    P = math.prod(sizes)
    cells = [_axis_cells(ax, x) for ax, x in zip(axes, coords, strict=True)]
    full = np.broadcast_shapes(*(i.shape for i, _, _ in cells))
    flat_k = np.full((2 ** len(axes),) + full, P)   # k-th contributing corner of each point
    w_k = np.zeros((2 ** len(axes),) + full)
    seen = np.zeros(full, dtype=np.int8)            # contributing corners so far
    for corner in product((0, 1), repeat=len(axes)):
        w, flat = 1.0, 0
        for d, ((i, fr, _), c) in enumerate(zip(cells, corner)):
            w = w * (fr if c else 1.0 - fr)
            flat = flat + (i + c) * math.prod(sizes[d + 1:])
        live = w > 1e-15
        for k in range(int(seen.max()) + 1):
            put = live & (seen == k)
            np.copyto(flat_k[k], flat, where=put)
            np.copyto(w_k[k], w, where=put)
        seen += live
    for _, _, out in cells:
        np.copyto(flat_k[0], P + 1, where=out)
    K = int(seen.max())
    return flat_k[:K].copy(), w_k[:K].copy()


_PADS = np.array([0.0, np.inf])     # pads P and P + 1 of every padded slice


def _padded(slice_vals: Array) -> Array:
    """``_apply_stencil``'s ``vals`` for a slice of any shape, read flat: the
    slice with +inf at its nodes that are not finite (NaN and -inf too), then
    the pads 0.0 and +inf."""
    vals = np.concatenate((slice_vals.ravel(), _PADS))
    vals[~(vals > -np.inf)] = np.inf
    return vals


def _apply_stencil(terms: tuple[Array, Array], vals: Array) -> Array:
    """The interpolation of one slice, padded by ``_padded``, at the points of
    ``terms`` (``_terms``), gathered once and added term by term in order.  A
    term that reads +inf weighs above 1e-15, so the sum is +inf there and no
    ``inf * 0`` or ``inf - inf`` arises; a term that reads pad ``P`` adds +0.0.
    """
    flat, w = terms
    part = vals.take(flat)
    part *= w
    total = np.zeros(w.shape[1:])
    for term in part:
        total += term
    return total


def _interp_clipped(axes: tuple[Array, ...], grid_vals: Array, pts: Array) -> Array:
    """Multilinear interpolation of the slice ``grid_vals`` at the rows of
    ``pts`` (m, n); +inf wherever a contributing corner is not finite or the
    point leaves the grid by more than 1e-9 of a step.  Fractions within
    1e-9 of a node snap to it, and corners of weight at or below 1e-15 do
    not contribute."""
    return _apply_stencil(_terms(axes, pts.T), _padded(grid_vals))


@dataclass(frozen=True, eq=False)
class ValueField:
    """Backward-solved discounted value on a space-time grid.

    ``values[i]`` is the slice at ``t0 + i*dt`` with +inf off the feasible
    set; the slice at the truncation horizon T is zero on feasible nodes and
    ``tail_bound`` bounds the discarded tail.
    """

    relaxed: bool
    lam: float
    t0: float
    dt: float
    T: float
    axes: tuple[Array, ...]
    values: Array
    tail_bound: float
    a1: float
    a2: float
    x0_bound: float
    problem_name: str
    level: int
    mixture_grid: int

    @property
    def times(self) -> Array:
        return self.t0 + self.dt * np.arange(self.values.shape[0])

    @property
    def dx_max(self) -> float:
        return max(float(a[1] - a[0]) for a in self.axes)

    def grid_nodes(self) -> Array:
        return _mesh_nodes(self.axes)

    def compatible_with(self, other: "ValueField") -> bool:
        return (
            self.values.shape == other.values.shape
            and abs(self.lam - other.lam) < 1e-12
            and abs(self.t0 - other.t0) < 1e-12
            and abs(self.dt - other.dt) < 1e-12
            and all(np.allclose(a, b) for a, b in zip(self.axes, other.axes))
        )


def evaluate_value(field: ValueField, t: float, x) -> float:
    """Interpolated value; +inf sentinel when any stencil corner is infeasible.

    Multilinear in space on the two bracketing time slices, linear in time.
    Raises OutOfGrid, naming the point and the axis, for a point more than
    1e-9 of a step beyond the grid along some axis.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    ts = field.times
    if t < ts[0] - 1e-9 or t > ts[-1] + 1e-9:
        raise OutOfGrid(f"t={t} outside [{ts[0]}, {ts[-1]}]")
    pos = np.clip((t - ts[0]) / field.dt, 0.0, len(ts) - 1.0)
    i = min(int(pos), len(ts) - 2)
    fr = float(pos - i)
    if fr < 1e-9:
        fr = 0.0
    if fr > 1 - 1e-9:
        i, fr = i + 1, 0.0
    terms = _terms(field.axes, x.T)
    off = terms[0][0] == field.values[0].size + 1
    if off.any():
        j = int(off.argmax())
        d = next(d for d, ax in enumerate(field.axes) if _axis_cells(ax, x[j:j + 1, d])[2][0])
        ax = field.axes[d]
        raise OutOfGrid(f"x={x[j].tolist()} outside the grid along axis {d}, "
                        f"[{float(ax[0])}, {float(ax[-1])}]")
    out = _apply_stencil(terms, _padded(field.values[i]))
    if fr > 0.0:                          # 0 < fr < 1: +inf in either slice stays +inf
        out = (1 - fr) * out + fr * _apply_stencil(terms, _padded(field.values[i + 1]))
    return float(out[0]) if out.size == 1 else out


# Foot points per interpolation in a backstep; bounds its temporaries.
_INTERP_CHUNK = 8192


def _mix(W: Array | None, a: Array) -> Array:
    """Mixtures of per-control arrays ``a`` (k, ...) under weights ``W`` (R, k);
    the sampled controls' own arrays when ``W`` is None.  One gemm, the one
    ``np.tensordot`` makes, without its wrapper."""
    if W is None:
        return a
    return (W @ a.reshape(len(a), -1)).reshape(W.shape[:1] + a.shape[1:])


def _node_independent(f: Array) -> bool:
    """Whether every candidate's velocity array (``f`` is (R, P, n)) is the
    same at every node, compared by bytes so that -0.0 and 0.0 stay apart;
    ``_INTERP_CHUNK`` values at a time."""
    bits = f.view(np.uint64)
    rows = max(1, _INTERP_CHUNK // (f.shape[1] * f.shape[2]))
    for lo in range(0, len(bits), rows):
        if not (bits[lo:lo + rows] == bits[lo:lo + rows, :1]).all():
            return False
    return True


@dataclass(eq=False)
class _Groups:
    """Candidates grouped by equal velocity arrays, in chunks interpolated
    together; a sweep keeps them while its sampled velocities recur."""

    vel: Array                # (R, P, n), or (R, 1, n) when the same at every node
    merges: list[tuple[int, int]]  # (group, candidate) for each candidate after a group's first
    chunks: list[list[int]]   # groups' first candidates, _INTERP_CHUNK foot points each
    terms: list | None = None     # terms per chunk, once a sweep meets the velocities again


def _groups(vel: Array, P: int) -> _Groups:
    """Group candidates whose velocity arrays have equal bytes (bucketed by
    the hash of the bytes)."""
    merges: list[tuple[int, int]] = []
    reps: list[int] = []
    buckets: dict[int, list[int]] = {}    # hash of velocity bytes -> its reps
    for r in range(vel.shape[0]):
        here = vel[r].tobytes()
        bucket = buckets.setdefault(hash(here), [])
        for g in bucket:
            if vel[g].tobytes() == here:
                break
        else:
            g = r
            bucket.append(r)
            reps.append(r)
        if g != r:
            merges.append((g, r))
    per_call = max(1, _INTERP_CHUNK // P)
    return _Groups(vel, merges, [reps[lo:lo + per_call] for lo in range(0, len(reps), per_call)])


@dataclass(eq=False)
class _Rows:
    """What a backstep needs of its own slice that does not depend on the
    next one (``_sweep_rows``)."""

    f_all: Array          # (k, P, n) velocities of the sampled controls
    cost: Array           # (k, P) their running costs
    seen: bool            # f_all has the bytes of the slice stepped before
    bad: int | None = None    # the first feasible node with a non-finite cost


def _backstep(p, lam, axes, nodes, t, dt, next_slice, feas_now, level, relaxed,
              mixture_grid, memo=None, rows=None):
    """Minimum over candidates of discounted running cost plus the next slice
    interpolated at the candidate's foot point; +inf off ``feas_now``.
    ``next_slice`` is the next slice padded as ``_padded`` pads it.

    Candidates with equal velocity arrays share their foot points, so each
    such group is interpolated once, against its per-node minimum cost.  This
    is exact: ``fl(c + v)`` is monotone in ``c``.  The groups' foot points are
    interpolated together, ``_INTERP_CHUNK`` points at a time, each chunk's
    terms built from its feet (``_terms``).

    ``rows`` holds the slice's velocities and costs from the sweep
    (``_sweep_rows``); the plain sweep's cost rows are scaled in place.
    Without ``rows`` they are evaluated at ``t`` alone.  The sweep's ``memo``
    (one grid and dt) holds the groups of the last velocities met, and serves
    a slice whose velocities have the same bytes.  Such a slice stores each
    chunk's terms in the groups, and later slices apply them; a slice that
    meets its velocities for the first time builds its terms without storing
    them.  Groups whose mixture velocities are the same at every node keep
    one row each.
    """
    memo = {} if memo is None else memo
    if rows is None:
        u, f_all = p.velocities(t, nodes, level)
        rows = _Rows(f_all, p.costs(t, nodes, level, u), False)
    W = _mixture_matrix(len(rows.f_all), p.n + 1, mixture_grid) if relaxed else None
    if rows.seen:
        groups = memo["groups"]
    else:
        memo.clear()                      # drop the last groups before forming these
        f = _mix(W, rows.f_all)        # a product over one row may round differently
        groups = _groups(f[:, :1].copy() if _node_independent(f) else f, nodes.shape[0])
        del f
        memo["groups"] = groups
    terms = groups.terms
    if terms is None:
        terms = (_terms(axes, np.moveaxis(nodes + dt * groups.vel[chunk], -1, 0))
                 for chunk in groups.chunks)
        if rows.seen:                     # met again: store them, before the costs exist
            terms = groups.terms = list(terms)
    # mixed after grouping, when a node-independent set's full velocity
    # mixtures are already dropped: the two never coexist
    cost = _mix(W, rows.cost)
    cost *= math.exp(-lam * t)            # disc * L * dt, rounded in that order
    cost *= dt
    for g, r in groups.merges:
        np.minimum(cost[g], cost[r], out=cost[g])

    best = None
    for chunk, chunk_terms in zip(groups.chunks, terms):
        low = (cost[chunk] + _apply_stencil(chunk_terms, next_slice)).min(axis=0)
        best = low if best is None else np.minimum(best, low, out=best)
    best[~feas_now] = np.inf
    return best


def _sweep_rows(p: ProblemDefinition, times: Array, nodes: Array, feas: Array, level: int):
    """``(i, _Rows)`` for every slice ``i`` of ``times`` (T,), latest first,
    from one ``velocities`` and one ``costs`` call per block of slices.

    ``ControlSamples.at`` runs once per time, and a block holds only times
    whose samples have equal bytes, at most ``_FEAS_CHUNK`` velocity values.
    Each block also decides, once for all its slices, whether a slice's
    velocities have the bytes of the slice stepped before it (the one after
    it in time) and which feasible node (``feas`` (T, P)) first has a
    non-finite cost.  A non-finite cost at an infeasible node is set to 0,
    so that no mixture of it warns; the node's value is +inf either way.
    Each slice's rows are contiguous, as one slice's own call gives them.
    """
    P, n = nodes.shape
    hi, u = len(times), None
    last = None                           # the velocities of the slice stepped last
    while hi > 0:
        u = p.controls.at(float(times[hi - 1]), level) if u is None else u
        per_block = max(1, _FEAS_CHUNK // (len(u) * P * n))
        lo, nxt = hi - 1, None            # nxt: the samples that end the block
        while lo > max(0, hi - per_block):
            nxt = p.controls.at(float(times[lo - 1]), level)
            if nxt.shape != u.shape or nxt.tobytes() != u.tobytes():
                break
            lo, nxt = lo - 1, None
        block = times[lo:hi, None]
        X = np.broadcast_to(nodes, (hi - lo, P, n))
        F = np.ascontiguousarray(np.moveaxis(p.velocities(block, X, level, u)[1], 1, 0))
        C = np.ascontiguousarray(np.moveaxis(p.costs(block, X, level, u), 1, 0))
        bits = F.reshape(hi - lo, -1).view(np.uint64)
        seen = np.empty(hi - lo, dtype=bool)
        seen[:-1] = (bits[:-1] == bits[1:]).all(axis=1)
        seen[-1] = (last is not None and last.shape == F[-1].shape
                    and bool((last.view(np.uint64) == F[-1].view(np.uint64)).all()))
        last = F[0]                       # rebound now, so that the last block is freed
        finite = np.isfinite(C)
        ok = finite.all(axis=1)
        bad = feas[lo:hi] & ~ok
        if not ok.all():              # an infeasible node's value is +inf whatever its cost
            C[~finite & ~feas[lo:hi, None]] = 0.0
        first = np.where(bad.any(axis=1), bad.argmax(axis=1), -1)
        for j in range(hi - lo - 1, -1, -1):
            yield lo + j, _Rows(F[j], C[j], bool(seen[j]), None if first[j] < 0 else int(first[j]))
        hi, u = lo, nxt


def _axis_speeds(p: ProblemDefinition, t: float, x: Array, level: int) -> Array:
    """The largest ``|velocity component|`` along each axis among the sampled
    controls at the node ``x`` (n,) and time ``t``."""
    return np.abs(p.velocities(t, x, level)[1]).max(axis=0)


def _coarse_hint(p: ProblemDefinition, axes, constrained: Array, dt: float, t: float,
                 x: Array, level: int) -> str:
    """What a GridTooCoarse error at node ``x`` and time ``t`` tells the user:
    how far one step reaches along each constrained axis (the largest speed
    along it among the sampled controls there, times dt) against that axis's
    space step, and which of them is longer."""
    speed = _axis_speeds(p, t, x, level)
    axis_of = {int(d): (float(speed[d]), float(axes[d][1] - axes[d][0]))
               for d in np.flatnonzero(constrained)}
    short = [d for d, (v, dx) in axis_of.items() if v * dt < dx - 1e-12]
    listed = ", ".join(f"axis {d} reach {v * dt:.4g} against step {dx:.4g}"
                       for d, (v, dx) in axis_of.items())
    head = (f"one step of dt = {dt:.4g} under the fastest sampled control along each "
            f"constrained axis: {listed or 'none'}; ")
    if not short:
        return head + "every constrained space step is within one step's reach: widen the grid"
    named = ", ".join(str(d) for d in short)
    refine = ", ".join(f"axis {d} to a step of at most {axis_of[d][0] * dt:.4g}" for d in short)
    if any(axis_of[d][0] == 0.0 for d in short):
        return head + f"no sampled control moves along axis {named}: refine {refine}"
    need = max(dx / v for v, dx in (axis_of[d] for d in short))
    return head + (f"the reach is shorter than the space step along axis {named}: raise dt "
                   f"to at least {need:.4g}, or refine {refine}")


# Points per feasibility call in a sweep; bounds its temporaries.
_FEAS_CHUNK = 4 * _INTERP_CHUNK


def _feasible_slices(p: ProblemDefinition, times: Array, nodes: Array) -> Array:
    """Feasibility of every node (P, n) at every time, (len(times), P): one
    kernel call per chunk of whole slices of at most ``_FEAS_CHUNK`` points."""
    rows = max(1, _FEAS_CHUNK // len(nodes))
    feas = np.empty((len(times), len(nodes)), dtype=bool)
    for lo in range(0, len(times), rows):
        feas[lo:lo + rows] = geo.feasible_mask(p, times[lo:lo + rows, None], nodes[None])
    return feas


def _constrained_axes(p: ProblemDefinition, times) -> Array:
    """Axes along which some constraint's gradient at the anchor is nonzero
    at one of ``times``; the other axes are an artificial window."""
    constrained = np.zeros(p.n, dtype=bool)
    for t in times:
        a = np.asarray(p.anchor(float(t)), dtype=float)
        for c in p.constraints:
            g = np.asarray(c.grad(float(t), a), dtype=float).reshape(-1)
            constrained |= np.abs(g) > 1e-12
    return constrained


def _check_margin(p: ProblemDefinition, grid: GridSpec, nodes: Array, times: Array,
                  feas: Array, constrained: Array) -> None:
    """Raise unless every feasible node lies at least M*dt inside the box
    along every constrained axis; the error names the first time, the first
    such node then and the constrained axis it is closest to the edge on."""
    if not constrained.any():
        return
    margin = p.data.M * grid.dt
    axis = np.flatnonzero(constrained)
    edge = np.minimum(nodes[:, axis] - grid.lo[axis], grid.hi[axis] - nodes[:, axis])
    near = feas & (edge.min(axis=1) < margin - 1e-12)
    if near.any():
        i, j = np.argwhere(near)[0]
        d = int(edge[j].argmin())
        raise ValueError(
            f"grid must extend beyond the feasible set by M*dt={margin:.3g} "
            f"(violated at t={float(times[i])}: feasible node {nodes[j]} is "
            f"{edge[j, d]:.3g} from the box edge along constrained axis {axis[d]}; "
            f"widen the box along axis {axis[d]} or lower dt)"
        )


def solve_value(
    p: ProblemDefinition,
    lam: float,
    grid: GridSpec,
    relaxed: bool,
    tol: float = 1e-3,
    level: int = 0,
    mixture_grid: int = 4,
    horizon: float | None = None,
    x0_bound: float | None = None,
) -> ValueField:
    """Backward semi-Lagrangian sweep from the truncation horizon.

    ``horizon=None`` selects the horizon automatically from the tail
    envelope at tolerance ``tol``.  Raises GridTooCoarse when some feasible
    node has no candidate velocity whose interpolation stencil stays
    feasible (one step must be able to reach the next grid cell: keep the
    fastest sampled speed along each constrained axis times ``dt`` at or
    above that axis's space step when constraints sweep the grid), and
    ValueError when a feasible node lies within ``M*dt`` of the box edge
    along a constrained axis (``_check_margin``).  Raises NonFiniteCost,
    naming the node and time, when a sampled control's running cost is NaN
    or infinite at a feasible node, at that slice's turn in the sweep: a
    GridTooCoarse at a later time is met first.

    ``f`` and the running cost are evaluated for a block of slices at a time
    (``_sweep_rows``), so they must broadcast over an array ``t``; one that
    does not raises ValueError naming it.  The returned ``values`` are a
    contiguous view of the sweep's own array of slices.
    """
    if x0_bound is None:
        x0_bound = float(np.max(np.abs(np.concatenate([grid.lo, grid.hi]))))
    if horizon is None:
        T, tail = truncation_horizon(p, lam, x0_bound, tol, grid.t0, grid.dt)
    else:
        steps = max(1, int(round((horizon - grid.t0) / grid.dt)))
        T = grid.t0 + steps * grid.dt
        try:
            tail = tail_envelope(p, lam, x0_bound, T)
        except DiscountTooSmall:
            tail = math.inf  # explicit horizon below the growth threshold: no certified tail
    nt = max(1, int(round((T - grid.t0) / grid.dt)))
    axes = grid.axes()
    nodes = grid.nodes()

    times = grid.t0 + grid.dt * np.arange(nt + 1)
    feas = _feasible_slices(p, times, nodes)
    constrained = _constrained_axes(p, times[:: max(1, nt // 8)])
    _check_margin(p, grid, nodes, times, feas, constrained)

    P = nodes.shape[0]
    # the slices end to end, then the last one's two pads (_padded's pads);
    # each backstep pads the next slice in place with the two entries after
    # it, which the slice after that lends for the step and gets back
    flat = np.empty((nt + 1) * P + 2)
    values = flat[:-2].reshape(nt + 1, P)
    flat[-2:] = _PADS
    values[nt] = np.where(feas[nt], 0.0, np.inf)
    n_feas = np.count_nonzero(feas, axis=1)
    memo: dict = {}
    for i, rows in _sweep_rows(p, times[:nt], nodes, feas[:nt], level):
        t = float(times[i])
        if rows.bad is not None:
            raise NonFiniteCost(f"running cost of {p.name} at feasible node {nodes[rows.bad]} "
                                f"at t={t} is not finite: {rows.cost[:, rows.bad].tolist()}")
        nxt = flat[(i + 1) * P:(i + 2) * P + 2]
        lent = nxt[P], nxt[P + 1]
        nxt[P], nxt[P + 1] = 0.0, np.inf
        vals = _backstep(
            p, lam, axes, nodes, t, grid.dt, nxt, feas[i],
            level, relaxed, mixture_grid, memo, rows,
        )
        nxt[P], nxt[P + 1] = lent
        # vals is +inf off feas[i], so fewer finite values than feasible
        # nodes means a feasible node without a finite candidate
        if np.count_nonzero(np.isfinite(vals)) != n_feas[i]:
            j = int(np.flatnonzero(feas[i] & ~np.isfinite(vals))[0])
            raise GridTooCoarse(
                f"feasible node {nodes[j]} at t={t} has no stencil-feasible velocity; "
                + _coarse_hint(p, axes, constrained, grid.dt, t, nodes[j], level)
            )
        values[i] = vals

    return ValueField(
        relaxed=relaxed, lam=float(lam), t0=float(grid.t0), dt=float(grid.dt),
        T=float(T), axes=axes, values=values.reshape((nt + 1,) + grid.shape),
        tail_bound=float(tail), a1=p.data.a1, a2=p.data.a2,
        x0_bound=float(x0_bound), problem_name=p.name, level=int(level),
        mixture_grid=int(mixture_grid) if relaxed else 1,
    )


def bellman_residual(p: ProblemDefinition, field: ValueField, i: int) -> float:
    """Re-apply one backward step at slice i; max change over finite nodes."""
    if not (0 <= i < field.values.shape[0] - 1):
        raise ValueError("need an interior slice index")
    nodes = field.grid_nodes()
    t = float(field.times[i])
    flat = field.values[i].ravel()
    feas_now = np.isfinite(flat)
    vals = _backstep(
        p, field.lam, field.axes, nodes, t, field.dt,
        _padded(field.values[i + 1]), feas_now, field.level, field.relaxed,
        field.mixture_grid,
    )
    both = feas_now & np.isfinite(vals)
    if not both.any():
        return 0.0
    return float(np.max(np.abs(vals[both] - flat[both])))
