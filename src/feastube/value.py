"""Discounted value fields on space-time grids by backward dynamic programming.

The infinite-horizon cost is truncated at a horizon where the closed-form
tail envelope drops below a tolerance; the terminal value is zero and the
certified tail bound travels with the field.  Infeasible nodes carry the
+inf sentinel, and spatial interpolation clips to +inf whenever a stencil
corner is infeasible, so feasibility information propagates exactly.

The relaxed variant minimizes over simplex mixtures of up to n+1 sampled
controls on a barycentric weight grid; the plain variant uses the sampled
controls alone (identical to mixture resolution 1).

Each backward step interpolates once per distinct candidate velocity array:
candidates whose velocity arrays have equal bytes share one interpolation
under their per-node minimum cost, which leaves every field bit-identical to
one interpolation per candidate.  The groups' foot points are interpolated in
batches of a bounded point count.

When every candidate velocity is the same at every node, as in the
semi-Lagrangian scheme on a structured grid (Falcone & Ferretti, SIAM 2013),
each foot point is its node shifted by one offset per group.  The cell index,
fraction and corner weights of a batch then follow from the grid's 1-D axes,
and they repeat from slice to slice: a sweep builds the batch's stencil once
its velocities recur, and later slices apply it with one gather per
contributing corner, rounding as the pointwise interpolation does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from . import geometry as geo
from .errors import DiscountTooSmall, GridTooCoarse, OutOfGrid
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


def _interp_clipped(axes: tuple[Array, ...], grid_vals: Array, pts: Array) -> Array:
    """Multilinear interpolation; +inf wherever a contributing corner is +inf
    or the point leaves the grid.  Weights below 1e-9 of a cell do not
    contribute (exact node hits ignore the far corner)."""
    n = len(axes)
    P = len(pts)
    idx, frac = [], []
    infmask = np.zeros(P, dtype=bool)
    for d in range(n):
        i, fr, out = _axis_cells(axes[d], pts[:, d])
        infmask |= out
        idx.append(i)
        frac.append(fr)
    weights = [(1.0 - fr, fr) for fr in frac]
    total = np.zeros(P)
    for corner in product((0, 1), repeat=n):
        w = weights[0][corner[0]]          # 1.0 * w is w: the product starts here
        for d in range(1, n):
            w = w * weights[d][corner[d]]
        v = grid_vals[tuple(i + c for i, c in zip(idx, corner))]
        finite = np.isfinite(v)
        contributes = w > 1e-15
        infmask |= contributes & ~finite
        total += np.where(contributes, w * np.where(finite, v, 0.0), 0.0)
    return np.where(infmask, np.inf, total)


def _stencil(axes: tuple[Array, ...], shifts: Array) -> tuple[Array, Array]:
    """``_interp_clipped`` at ``node + s`` for every grid node and every row
    ``s`` of ``shifts`` (G, n), prepared once for any slice.

    Index and fraction come from the 1-D axes, and corner weights are their
    outer products, rounded in ``_interp_clipped``'s order.  Returns terms
    ``(flat, w)`` of shape (G, P): the k-th term of a point is its k-th
    contributing corner (weight above 1e-15) in corner order, so that the
    terms add in ``_interp_clipped``'s order and a point needs as many terms
    as it has contributing corners.  ``flat`` indexes the slice extended by
    two pads (see ``_apply_stencil``): a point with fewer contributing
    corners than terms reads pad ``P`` (0.0, finite) in the rest, and a point
    off the grid reads pad ``P + 1`` (not finite) in the first.
    """
    G, n = shifts.shape
    sizes = tuple(len(a) for a in axes)
    full = (G,) + sizes
    P = math.prod(sizes)
    idx, frac = [], []
    out = np.zeros(full, dtype=bool)
    for d, ax in enumerate(axes):
        i, fr, o = _axis_cells(ax, ax + shifts[:, d:d + 1])
        along = (G,) + tuple(sizes[d] if e == d else 1 for e in range(n))
        idx.append(i.reshape(along))
        frac.append(fr.reshape(along))
        out |= o.reshape(along)
    flat_k = np.full((2 ** n,) + full, P)   # k-th contributing corner of each point
    w_k = np.zeros((2 ** n,) + full)
    seen = np.zeros(full, dtype=np.int8)    # contributing corners so far
    for corner in product((0, 1), repeat=n):
        w, flat = 1.0, 0
        for d, c in enumerate(corner):
            w = w * (frac[d] if c else 1.0 - frac[d])
            flat = flat + (idx[d] + c) * math.prod(sizes[d + 1:])
        live = w > 1e-15
        for k in range(int(seen.max()) + 1):
            put = live & (seen == k)
            np.copyto(flat_k[k], flat, where=put)
            np.copyto(w_k[k], w, where=put)
        seen += live
    flat_k[0][out] = P + 1
    K = int(seen.max())
    return flat_k[:K].reshape(K, G, P).copy(), w_k[:K].reshape(K, G, P).copy()


def _apply_stencil(terms: tuple[Array, Array], vals: Array, ok: Array) -> Array:
    """A stencil's interpolation of one slice, bit for bit ``_interp_clipped``.

    ``vals`` is the slice with 0.0 at its infeasible nodes, then the pads
    0.0 and 0.0; ``ok`` flags its finite nodes, then True and False.  A term
    that reads pad ``P`` adds +0.0, as a corner that does not contribute does
    in ``_interp_clipped``.
    """
    total = np.zeros(terms[1].shape[1:])
    fine = np.ones(total.shape, dtype=bool)
    for flat, w in zip(*terms):
        total += w * vals[flat]
        fine &= ok[flat]
    return np.where(fine, total, np.inf)


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

    def slice_at(self, i: int) -> Array:
        return self.values[i]

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
        fr = 1.0
    for d in range(x.shape[1]):
        ax = field.axes[d]
        if np.any(x[:, d] < ax[0] - 1e-9) or np.any(x[:, d] > ax[-1] + 1e-9):
            raise OutOfGrid(f"x outside the grid along dimension {d}")
    v0 = _interp_clipped(field.axes, field.values[i], x)
    v1 = _interp_clipped(field.axes, field.values[i + 1], x)
    if fr == 0.0:
        out = v0
    elif fr == 1.0:
        out = v1
    else:
        out = np.where(
            np.isfinite(v0) & np.isfinite(v1), (1 - fr) * v0 + fr * v1, np.inf
        )
    return float(out[0]) if out.size == 1 else out


# Foot points per interpolation in a backstep; bounds its temporaries.
_INTERP_CHUNK = 8192


def _mix(W: Array | None, a: Array) -> Array:
    """Mixtures of per-control arrays ``a`` (k, ...) under weights ``W`` (R, k);
    the sampled controls' own arrays when ``W`` is None."""
    return a if W is None else np.tensordot(W, a, axes=(1, 0))


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
    """Candidates grouped by equal velocity arrays, in chunks interpolated together."""

    vel: Array                # (R, P, n), or (R, 1, n) when the same at every node
    group: list[int]          # each candidate's group: its first candidate
    chunks: list[list[int]]   # groups' first candidates, _INTERP_CHUNK foot points each
    stencils: list | None = None   # one per chunk, once (R, 1, n) velocities recur


def _groups(vel: Array, P: int) -> _Groups:
    """Group candidates whose velocity arrays have equal bytes (bucketed by
    the hash of the bytes)."""
    group: list[int] = []
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
        group.append(g)
    per_call = max(1, _INTERP_CHUNK // P)
    return _Groups(vel, group, [reps[lo:lo + per_call] for lo in range(0, len(reps), per_call)])


def _backstep(p, lam, axes, shape, nodes, t, dt, next_slice, feas_now, level, relaxed,
              mixture_grid, memo=None):
    """Minimum over candidates of discounted running cost plus the next slice
    interpolated at the candidate's foot point; +inf off ``feas_now``.

    Candidates with equal velocity arrays share their foot points, so each
    such group is interpolated once, against its per-node minimum cost.  This
    is exact: ``fl(c + v)`` is monotone in ``c``.  The groups' foot points are
    interpolated together, ``_INTERP_CHUNK`` points at a time.

    When every sampled velocity is the same at every node and so are their
    mixtures, the candidates are grouped on one row of the mixtures.  The
    sweep's ``memo`` (one grid and dt) keeps those groups for the last
    sampled velocities seen; when they recur, each chunk of groups gets a
    stencil built on the 1-D axes (``_stencil``), which later slices apply.
    Otherwise the feet go through ``_interp_clipped``.
    """
    u, f_all = p.velocities(t, nodes, level)
    cost = p.costs(t, nodes, level, u)
    W = _mixture_matrix(len(f_all), p.n + 1, mixture_grid) if relaxed else None
    cost = _mix(W, cost)
    cost *= math.exp(-lam * t)            # disc * L * dt, rounded in that order
    cost *= dt
    P = nodes.shape[0]
    groups = f = None
    if _node_independent(f_all):
        key = (f_all.shape, f_all[:, 0].tobytes())
        if memo is not None and key in memo:
            groups = memo[key]
            if groups is not None and groups.stencils is None:
                groups.stencils = [_stencil(axes, dt * groups.vel[chunk, 0])
                                   for chunk in groups.chunks]
        else:
            # Mixtures from the (R, P, n) product as everywhere else: a
            # product over one row may round differently.
            f = _mix(W, f_all)
            if W is None or _node_independent(f):
                groups, f = _groups(f[:, :1].copy(), P), None
            if memo is not None:
                memo.clear()
                memo[key] = groups
    if groups is None:
        groups = _groups(_mix(W, f_all) if f is None else f, P)
    for r, g in enumerate(groups.group):
        if g != r:
            np.minimum(cost[g], cost[r], out=cost[g])

    best = np.full(P, np.inf)
    if groups.stencils is None:
        grid_next = next_slice.reshape(shape)
        for chunk in groups.chunks:
            feet = (nodes + dt * groups.vel[chunk]).reshape(-1, nodes.shape[1])
            vn = _interp_clipped(axes, grid_next, feet).reshape(len(chunk), P)
            np.minimum(best, (cost[chunk] + vn).min(axis=0), out=best)
    else:
        ok = np.isfinite(next_slice)
        vals = np.concatenate([np.where(ok, next_slice, 0.0), [0.0, 0.0]])
        ok = np.concatenate([ok, [True, False]])
        for chunk, terms in zip(groups.chunks, groups.stencils):
            vn = _apply_stencil(terms, vals, ok)
            np.minimum(best, (cost[chunk] + vn).min(axis=0), out=best)
    return np.where(feas_now, best, np.inf)


def _coarse_hint(p: ProblemDefinition, axes, constrained: Array, dt: float, t: float,
                 x: Array, level: int) -> str:
    """What a GridTooCoarse error at node ``x`` and time ``t`` tells the user:
    how far one step reaches along each constrained axis (the largest speed
    along it among the sampled controls there, times dt) against that axis's
    space step, and which of them is longer."""
    speed = np.abs(p.velocities(t, x, level)[1]).max(axis=0)
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
    above that axis's space step when constraints sweep the grid).
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
    shape = grid.shape

    times = grid.t0 + grid.dt * np.arange(nt + 1)
    feas = [geo.feasible_mask(p, float(t), nodes) for t in times]

    # The grid must extend beyond the feasible set by M*dt along every
    # dimension the constraints act on (free directions are an artificial
    # window and are exempt).
    margin = p.data.M * grid.dt
    constrained = np.zeros(p.n, dtype=bool)
    for t in times[:: max(1, nt // 8)]:
        a = np.asarray(p.anchor(float(t)), dtype=float)
        for c in p.constraints:
            g = np.asarray(c.grad(float(t), a), dtype=float).reshape(-1)
            constrained |= np.abs(g) > 1e-12
    for t, mask in zip(times, feas):
        if not mask.any() or not constrained.any():
            continue
        sel = nodes[mask][:, constrained]
        dist_edge = np.minimum(sel - grid.lo[constrained], grid.hi[constrained] - sel).min()
        if dist_edge < margin - 1e-12:
            raise ValueError(
                f"grid must extend beyond the feasible set by M*dt={margin:.3g} "
                f"(violated at t={t})"
            )

    values = np.full((nt + 1, nodes.shape[0]), np.inf)
    values[nt][feas[nt]] = 0.0
    memo: dict = {}
    for i in range(nt - 1, -1, -1):
        t = float(times[i])
        vals = _backstep(
            p, lam, axes, shape, nodes, t, grid.dt, values[i + 1], feas[i],
            level, relaxed, mixture_grid, memo,
        )
        dead = feas[i] & ~np.isfinite(vals)
        if dead.any():
            j = int(np.where(dead)[0][0])
            raise GridTooCoarse(
                f"feasible node {nodes[j]} at t={t} has no stencil-feasible velocity; "
                + _coarse_hint(p, axes, constrained, grid.dt, t, nodes[j], level)
            )
        values[i] = vals

    return ValueField(
        relaxed=relaxed, lam=float(lam), t0=float(grid.t0), dt=float(grid.dt),
        T=float(T), axes=axes, values=values.reshape((nt + 1,) + shape),
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
    shape = field.values[i].shape
    vals = _backstep(
        p, field.lam, field.axes, shape, nodes, t, field.dt,
        field.values[i + 1].ravel(), feas_now, field.level, field.relaxed,
        field.mixture_grid,
    )
    both = feas_now & np.isfinite(vals)
    if not both.any():
        return 0.0
    return float(np.max(np.abs(vals[both] - flat[both])))
