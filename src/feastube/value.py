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
terms of its points once, at one time for all of them or one time per point,
and applies them in one gather over the slices the points read, end to end.

Each backward step interpolates once per distinct candidate velocity array:
candidates whose velocity arrays have equal bytes share one interpolation
under their per-node minimum cost, which leaves every field bit-identical to
one interpolation per candidate.  The groups' foot points are interpolated in
batches of a bounded point count, and every batch's terms are built from its
feet (``_terms``).  A sweep keeps the groups of the last sampled velocities
it met; a slice whose sampled velocities have the same bytes reuses them.
The first slice of a velocity set stores each batch's terms when a later
slice of its block reuses them (or a slice meets the set again), so each
set's terms are built once, and later slices only apply them.

Model data that are the same at every node, as in the semi-Lagrangian
scheme on a structured grid (Falcone & Ferretti, SIAM 2013), are found by
their bytes and kept on one node: a new slice's sampled velocities, and a
block's running costs.  They are mixed over two copies of that node
(``_mix``): a product over one node goes to gemv, which rounds apart from a
wide product.  Their groups keep one velocity row each, and a group's
minimum cost is one number per slice, folded from its candidates' by one
``np.minimum.reduceat`` and added to its interpolated row by broadcasting.

A sweep decides the feasibility of every node at every time slice before
it steps: one constraint-kernel call per chunk of whole slices, of at most
``_FEAS_CHUNK`` points each.  It evaluates the dynamics and the running
cost the same way, one ``velocities`` and one ``costs`` call per block of
slices whose control samples are equal (``_sweep_blocks``).  A block holds
the results at the shape the model gave them: velocities that do not read
t are one array for all its slices, and so are costs.  Its slice count
follows what it holds: a cap of ``_FEAS_CHUNK`` velocity values, at least
2 slices for the first block of a run of shared samples, and twice the
last block's slices when that block held one velocity array and its costs
on one node, since a longer block then holds no more.  What does not read
the next slice is done once per block (``_block``): whether a slice's
velocities repeat the last slice's, whether a feasible node's cost is not
finite, whether the costs are the same at every node, and the infeasible
masks.  One generator, ``_sweep``, steps the slices latest first and keeps
what its steps share as its own locals: the groups of the last velocities
met, each block's mixture matrix, and the costs the block's steps add,
mixed by one stacked product, discounted, scaled by dt and, where they
differ from node to node, +inf at the infeasible nodes (``_block_costs``).
It writes every slice into one array that holds the slices end to end,
padding the next slice in place for each step.
A slice pays for its arithmetic alone: the pads, one gather and weighted
sum per chunk of groups (``_apply_stencil``), the add of its prepared
costs and the minimum, plus a mask where the costs are on one node, and
for grouping its velocities when they are new.  The merge of each group's
candidate costs is done once for the slices of a block that share their
groups, and ``solve_value`` checks the rows of each block that ``_sweep``
yields for a stranded node at once; ``bellman_residual`` drives ``_sweep``
over two slices.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from . import geometry as geo
from .errors import DiscountTooSmall, GridTooCoarse, NonFiniteCost, OutOfGrid
from .problem import ProblemDefinition, _SAMPLE_BLOCK

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
    """``_apply_stencil``'s ``vals`` for a slice of any shape, or slices end
    to end, read flat: the values with +inf at nodes that are not finite
    (NaN and -inf too), then the pads 0.0 and +inf."""
    vals = np.concatenate((slice_vals.ravel(), _PADS))
    vals[~(vals > -np.inf)] = np.inf
    return vals


def _apply_stencil(terms: tuple[Array, Array], vals: Array) -> Array:
    """The interpolation of one slice, padded by ``_padded``, at the points of
    ``terms`` (``_terms``), gathered once and added term by term in order,
    from +0.0, into the first term's rows.  A term that reads +inf weighs
    above 1e-15, so the sum is +inf there and no ``inf * 0`` or
    ``inf - inf`` arises; a term that reads pad ``P`` adds +0.0.
    """
    flat, w = terms
    part = vals.take(flat)
    part *= w
    total = part[0]
    total += 0.0                          # 0.0 + term, as a sum from +0.0 starts: -0.0 turns +0.0
    for term in part[1:]:
        total += term
    return total


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


def evaluate_value(field: ValueField, t: float | Array, x) -> float | Array:
    """Interpolated value at one point ``x`` of shape ``(n,)`` or at the rows
    of ``x`` of shape ``(k, n)``: multilinear in space on the two bracketing
    time slices, linear in time.  ``t`` is one time for every row, or an
    array ``(k,)`` of one time per row; each row's value is the one it has
    alone.  A time within 1e-9 of a step of a slice is that slice's.

    The value is the +inf sentinel when a stencil term on a slice it reads
    weighs above 1e-15 and reads a node that is not finite; a corner of
    weight 1e-15 or less has no term.  So on the slice ``[0, 1, 2, inf, 4]``
    over ``linspace(0, 1, 5)`` the value at x = 0.5 is 2.0 (the +inf corner
    weighs 0) and at x = 0.6 it is +inf.  One point gives a float, several
    an array.

    Raises OutOfGrid for the first time more than 1e-9 outside the field's
    times, else for the first point more than 1e-9 of a step beyond the grid
    along some axis, naming the point and the axis; the error's ``row`` is
    that time's or point's row.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    ts = field.times
    given = np.broadcast_to(np.asarray(t), x.shape[:1])
    t = given.astype(float)
    late = ~((t >= ts[0] - 1e-9) & (t <= ts[-1] + 1e-9))
    if late.any():
        j = int(late.argmax())
        raise OutOfGrid(f"t={given[j]} outside [{ts[0]}, {ts[-1]}]", row=j)
    pos = np.clip((t - ts[0]) / field.dt, 0.0, len(ts) - 1.0)
    i = np.minimum(pos.astype(int), len(ts) - 2)
    fr = pos - i
    fr[fr < 1e-9] = 0.0
    up = fr > 1 - 1e-9
    i[up] += 1
    fr[up] = 0.0
    terms = _terms(field.axes, x.T)
    P = field.values[0].size
    off = terms[0][0] == P + 1
    if off.any():
        j = int(off.argmax())
        d = next(d for d, ax in enumerate(field.axes) if _axis_cells(ax, x[j:j + 1, d])[2][0])
        ax = field.axes[d]
        raise OutOfGrid(f"x={x[j].tolist()} outside the grid along axis {d}, "
                        f"[{float(ax[0])}, {float(ax[-1])}]", row=j)
    # 0 < fr < 1 blends the slice after too: the rows' terms on their slices,
    # then the blending rows' terms on the next, all in one gather over the
    # slices read, end to end, then the pads
    mix = np.flatnonzero(fr)
    read, slot = np.unique(np.concatenate((i, i[mix] + 1)), return_inverse=True)
    flat, w = terms
    flat = np.concatenate((flat, flat[:, mix]), axis=1)
    flat += np.where(flat < P, slot * P, (len(read) - 1) * P)
    out = _apply_stencil((flat, np.concatenate((w, w[:, mix]), axis=1)),
                         _padded(field.values[read]))
    vals = out[:len(i)]
    # +inf in either slice stays +inf
    vals[mix] = (1 - fr[mix]) * vals[mix] + fr[mix] * out[len(i):]
    return float(vals[0]) if vals.size == 1 else vals


# Foot points per interpolation in a backstep; bounds its temporaries.
_INTERP_CHUNK = 8192


def _mix(W: Array | None, a: Array, axis: int = 0) -> Array:
    """Mixtures under weights ``W`` (R, k) of the per-control arrays that
    ``a`` holds along ``axis``: (..., k, ...) gives (..., R, ...), one gemm
    (the one ``np.tensordot`` makes, without its wrapper) per array of the
    axes before ``axis``.  The sampled controls' own arrays when ``W`` is
    None.  A gemm rounds a column by where it lies, and a product over one
    column goes to gemv, which rounds apart again: ``_same_at_every_node``
    data are mixed over two copies of their column, and the first is kept."""
    if W is None:
        return a
    lead = a.shape[:axis]
    return (W @ a.reshape(lead + (a.shape[axis], -1))).reshape(lead + W.shape[:1]
                                                                + a.shape[axis + 1:])


def _same_at_every_node(a: Array, axis: int) -> bool:
    """Whether ``a`` has the bytes of its first node at every node along its
    node ``axis``, so that -0.0 and 0.0 stay apart.  The first two nodes are
    compared first: data that differ there cost one node's compare."""
    m = math.prod(a.shape[axis + 1:])          # values per node
    flat = a.view(np.uint64).reshape(math.prod(a.shape[:axis]), -1)
    if not (flat[:, m:2 * m] == flat[:, :m]).all():
        return False
    if m == 1:                                  # the least and greatest bytes, without a compare array
        return bool((flat.min(axis=1) == flat.max(axis=1)).all())
    return bool((flat[:, 2 * m:] == flat[:, m:-m]).all())    # each node against the one before


@dataclass(eq=False)
class _Groups:
    """Candidates grouped by equal velocity arrays, in chunks interpolated
    together; a sweep keeps them while its sampled velocities recur.  A
    group's cost is the minimum of its candidates', folded into its first
    candidate's row: by one ``np.minimum.reduceat`` over the candidates in
    ``order`` when the costs are on one node, where it is one number per
    slice, added to the group's interpolated row by broadcasting.  Costs on
    P nodes are folded one merged candidate at a time, since reduceat calls
    its loop once per group and node."""

    vel: Array                # (R, P, n), or (R, 1, n) when the same at every node
    merges: list[tuple[int, int]]  # (group, candidate) for each candidate after a group's first
    order: Array | None       # candidates by group, each group's in turn; None: no merges
    starts: Array | None      # where each group's candidates start in ``order``
    chunks: list[slice | list[int]]   # groups' first candidates, _INTERP_CHUNK foot points each
    # terms per chunk, once a sweep meets the velocities again
    terms: list | None = dataclasses.field(default=None, init=False)


def _groups(vel: Array, P: int) -> _Groups:
    """Group candidates whose velocity arrays have equal bytes (bucketed by
    the hash of the bytes), in the order of their first candidates.  A chunk
    of consecutive candidates is a slice, so that indexing a chunk's rows
    gives a view."""
    members: list[list[int]] = []
    buckets: dict[int, list[list[int]]] = {}    # hash of velocity bytes -> its groups
    for r in range(vel.shape[0]):
        here = vel[r].tobytes()
        bucket = buckets.setdefault(hash(here), [])
        for group in bucket:
            if vel[group[0]].tobytes() == here:
                group.append(r)
                break
        else:
            bucket.append([r])
            members.append(bucket[-1])
    merges = [(group[0], r) for group in members for r in group[1:]]
    order = starts = None
    if merges:
        order = np.array([r for group in members for r in group])
        starts = np.cumsum([0] + [len(group) for group in members[:-1]])
    reps = [group[0] for group in members]
    per_call = max(1, _INTERP_CHUNK // P)
    chunks = [reps[lo:lo + per_call] for lo in range(0, len(reps), per_call)]
    return _Groups(vel, merges, order, starts,
                   [slice(c[0], c[-1] + 1) if c[-1] - c[0] < len(c) else c for c in chunks])


@dataclass(eq=False)
class _Block:
    """A block of consecutive slices with equal control samples: what their
    backsteps need that does not depend on the next slice (``_block``)."""

    times: Array          # (T,)
    F: Array              # (T, k, P, n) velocities of the sampled controls, read-only; stride 0
                          # along the times when the model's do not read t (one array)
    C: Array              # their running costs, 0 where not finite: (T, k, P), or (1, k, P)
                          # when they do not read t, and (T or 1, k, 1) when the same at
                          # every node; never written in place (_block_costs)
    infeas: Array         # (T, P) nodes off the feasible set
    seen: list[bool]      # slice j's velocities have the bytes of the slice stepped before it
    bad: dict[int, tuple[int, list]]    # slice -> (feasible node, its costs), first non-finite


def _block(p: ProblemDefinition, times: Array, nodes: Array, feas: Array, level: int,
           u: Array, last: Array | None = None) -> _Block:
    """The slices at ``times`` (T,), whose samples are ``u``, from one
    ``velocities`` and one ``costs`` call over ``times[:, None]`` and
    ``nodes[None]``, so that a term that does not read t is computed once;
    ``feas`` (T, P) is their feasibility.  The results keep the shape the
    model gave them: velocities that do not read t are one array, a view
    with stride 0 along the times, and costs that do not read t are one
    slice.  Velocities that read t are copied so that each slice's rows are
    contiguous, as one slice's own call gives them.

    Decides for all the slices whether a slice's velocities have the bytes of
    the slice stepped before it (the one after it in time; ``last`` for the
    last slice): each against the next only when they read t.  Then which
    feasible node first has a non-finite cost, whose costs it keeps as the
    model gave them.  Every non-finite cost is then 0, in a copy, so that no
    mixture of it warns: an infeasible node's value is +inf whatever its
    cost, and a slice with such a cost at a feasible node is never stepped.
    Costs that then have the same bytes at every node
    (``_same_at_every_node``) are kept on one node, (T or 1, k, 1).
    """
    T, t, x = len(times), times[:, None], nodes[None]
    F = np.moveaxis(p.velocities(t, x, level, u)[1], 1, 0)
    seen = np.ones(T, dtype=bool)         # one array for every slice: each repeats the next
    if T == 1 or F.strides[0]:
        F = np.ascontiguousarray(F)
        bits = F.reshape(T, -1).view(np.uint64)
        seen[:-1] = (bits[:-1] == bits[1:]).all(axis=1)
    seen[-1] = (last is not None and last.shape == F[-1].shape
                and bool((last.view(np.uint64) == F[-1].view(np.uint64)).all()))
    raw = np.moveaxis(p.costs(t, x, level, u), 1, 0)
    C = raw[:1] if T > 1 and raw.strides[0] == 0 else raw
    finite = np.isfinite(C)
    bad = {}
    if not finite.all():
        hit = feas & ~finite.all(axis=1)
        for j in np.flatnonzero(hit.any(axis=1)).tolist():
            node = int(hit[j].argmax())
            bad[j] = (node, raw[j, :, node].tolist())
        C = np.where(finite, C, 0.0)
    if _same_at_every_node(C, 2):
        C = C[:, :, :1].copy()
    return _Block(times, F, C, ~feas, seen.tolist(), bad)


def _block_costs(block: _Block, W: Array | None, lam: float, dt: float) -> Array:
    """The costs a backstep adds for every slice of ``block``, (T, R, P), or
    (T, R, 1) when the block's costs are the same at every node: mixed under
    ``W`` by one stacked product, discounted by each slice's ``exp(-lam t)``
    and scaled by ``dt``, rounded in that order.  Costs that do not read t
    are mixed once, for every slice.  Costs on one node are mixed over two
    copies of it (``_mix``).  When ``W`` is None they are the block's own
    costs.  The block's costs are never written: the discount makes a new
    array unless the mixture did.

    Costs on P nodes are then +inf at each slice's infeasible nodes, so that
    every candidate there is +inf and the step needs no mask: a slice it
    interpolates holds finite values and +inf alone, and its weights are
    nonnegative, so no candidate reads -inf or NaN."""
    disc = np.array([math.exp(-lam * t) for t in block.times.tolist()])[:, None, None]
    C = block.C
    cost = C if W is None else _mix(W, C if C.shape[2] > 1 else np.repeat(C, 2, axis=2),
                                    axis=1)[..., :C.shape[2]]
    if cost is C or len(cost) < len(disc):
        cost = cost * disc
    else:
        cost *= disc
    cost *= dt
    if cost.shape[2] > 1:
        np.copyto(cost, np.inf, where=block.infeas[:, None])
    return cost


def _sweep(p, lam, axes, nodes, dt, times, feas, flat, level, relaxed, mixture_grid):
    """Step the slices at ``times`` (T,), latest first, and yield ``(lo,
    hi)`` once the rows lo..hi-1 of ``flat`` are written: once per block of
    slices (``_sweep_blocks``).  ``flat`` holds the T + 1 slices of the P
    ``nodes`` end to end and then two entries, with the last slice and the
    two entries already set; ``feas`` (T, P) is the feasibility of the
    slices stepped.

    A slice is the minimum over candidates of discounted running cost plus
    the next slice interpolated at the candidate's foot point, and +inf off
    the feasible set.  Each step pads the next slice in place with the two
    entries after it, which it lends for the step (``_padded``'s pads), and
    writes its minimum straight into its own row.

    Candidates with equal velocity arrays share their foot points, so each
    such group is interpolated once, against its per-node minimum cost.  This
    is exact: ``fl(c + v)`` is monotone in ``c``.  The groups' foot points are
    interpolated together, ``_INTERP_CHUNK`` points at a time, each chunk's
    terms built from its feet (``_terms``).  The sweep keeps the groups of
    the last velocities it met, and a slice whose velocities have the same
    bytes reuses them.  A slice that builds a set's terms stores them when a
    later slice of its block reuses its groups (``_Block.seen``) or when it
    meets the set again, so a set's terms are built once however its slices
    fall into blocks; a slice met once, as in ``bellman_residual``, builds
    them chunk by chunk and stores none.  Sampled velocities that are the
    same at every node (``_same_at_every_node``) are mixed on two nodes and
    keep one row per group; no (R, P, n) product is formed for them.  A group's cost
    is the minimum of its candidates' (``_Groups``): one number per slice
    when the block's costs are the same at every node.

    Everything that does not read the next slice is done once per block
    (``_sweep_blocks`` sizes the blocks): the velocities and costs, held at
    the shape the model gave them, their checks, the mixture matrix, and
    the costs the steps add, mixed, discounted, scaled and, where they
    differ from node to node, +inf at the infeasible nodes
    (``_block_costs``), (T, R, P) or (T, R, 1).
    Those costs are prepared once the block's first slice has grouped its
    velocities, so that they are not held while grouping forms its velocity
    products, and dropped before the next block is formed.  The slices step
    in runs that share their groups and stored terms (a slice that builds
    its terms without storing them is a run of its own): a run's candidate
    costs are folded into its groups' rows at once, and one loop steps its
    slices, whose body is the pads, one ``_apply_stencil`` per chunk, the
    add of the costs and the minimum, and the mask of a slice whose costs
    are on one node.  Raises NonFiniteCost, naming the node, the time and
    the model's costs there, at the turn of a slice whose running cost is
    not finite at a feasible node, after yielding the rows stepped before
    it.
    """
    P = nodes.shape[0]
    groups = None
    for lo, block in _sweep_blocks(p, times, nodes, feas, level):
        W = _mixture_matrix(block.F.shape[1], p.n + 1, mixture_grid) if relaxed else None
        stop = max(block.bad, default=-1) + 1   # slice stop - 1 is the first bad one in turn
        cost = mask = None
        top = len(block.times)
        while top > stop:                  # a run: top - 1 down to end
            if not block.seen[top - 1]:
                groups = None              # drop the last groups before forming these
                F = block.F[top - 1]
                if _same_at_every_node(F, 1):
                    groups = _groups(_mix(W, F[:, :2])[:, :1].copy(), P)
                else:
                    groups = _groups(_mix(W, F), P)
            end = top - 1                  # the slices after it that share its groups
            while end > stop and block.seen[end - 1]:
                end -= 1
            terms = groups.terms
            if terms is None:
                terms = (_terms(axes, np.moveaxis(nodes + dt * groups.vel[chunk], -1, 0))
                         for chunk in groups.chunks)
                if end < top - 1 or block.seen[top - 1]:
                    # used again, or met again: store them, before the costs exist
                    terms = groups.terms = list(terms)
            if cost is None:               # once grouping has formed its products
                cost = _block_costs(block, W, lam, dt)
                mask = block.infeas if cost.shape[2] == 1 else None
            rows = cost[end:top]
            if groups.order is not None and cost.shape[2] == 1:
                rows[:, groups.order[groups.starts]] = np.minimum.reduceat(
                    rows[:, groups.order], groups.starts, axis=1)
            elif groups.order is not None:
                for g, r in groups.merges:
                    np.minimum(rows[:, g], rows[:, r], out=rows[:, g])
            for j in range(top - 1, end - 1, -1):
                i = lo + j
                out, nxt = flat[i * P:(i + 1) * P], flat[(i + 1) * P:(i + 2) * P + 2]
                lent = nxt[P], nxt[P + 1]
                nxt[P], nxt[P + 1] = 0.0, np.inf
                for k, (chunk, chunk_terms) in enumerate(zip(groups.chunks, terms)):
                    part = _apply_stencil(chunk_terms, nxt)
                    part += rows[j - end, chunk]
                    if k == 0:
                        np.minimum.reduce(part, axis=0, out=out)
                    else:
                        np.minimum(out, np.minimum.reduce(part, axis=0), out=out)
                    del part, chunk_terms  # they go before the next chunk's terms are built
                nxt[P], nxt[P + 1] = lent
                if mask is not None:
                    np.copyto(out, np.inf, where=mask[j])
            top = end
        cost = rows = None                 # dropped before the next block is formed
        yield lo + stop, lo + len(block.times)
        if stop:
            node, costs = block.bad[stop - 1]
            raise NonFiniteCost(f"running cost of {p.name} at feasible node {nodes[node]} "
                                f"at t={float(block.times[stop - 1])} is not finite: {costs}")


def _sweep_blocks(p: ProblemDefinition, times: Array, nodes: Array, feas: Array, level: int):
    """``(lo, _Block)`` for blocks of the slices ``times`` (T,), latest
    first, where ``lo`` is the block's first slice: one ``velocities`` and
    one ``costs`` call per block (``_block``).

    The samples are drawn once per time, and a block holds only times that
    share them (``ControlSamples.shared``).  The cap is ``_FEAS_CHUNK``
    velocity values, ``_FEAS_CHUNK // (k P n)`` slices.  The first block of
    a run of shared samples holds ``max(2, cap)`` slices, so that velocities
    that do not read t show.  A block that holds one velocity array and its
    costs on one node holds no more for more slices, so the next block over
    the same samples doubles its slices; any other block is followed by one
    of the cap.  A model that starts to read t inside a doubled block makes
    it hold at most twice the last block's slices times ``k P n`` velocity
    values.
    """
    P, n = nodes.shape
    ts, hi = times.tolist(), len(times)
    u = p.controls.at(ts[-1], level) if hi else None
    last = count = None                   # count: the next block's slices; None: the first
    while hi > 0:
        cap = max(1, _FEAS_CHUNK // (len(u) * P * n))
        count = max(2, cap) if count is None else count
        q, nxt = p.controls.shared(u, ts[max(0, hi - count):hi - 1][::-1], level)
        lo = hi - 1 - q                   # nxt: the samples that end the block, or None
        block = _block(p, times[lo:hi], nodes, feas[lo:hi], level, u, last)
        last = block.F[0]
        yield lo, block
        if nxt is None and lo > 0:        # whether the next block's first slice shares them
            nxt = p.controls.shared(u, ts[lo - 1:lo], level)[1]
        if nxt is not None:
            u, count = nxt, None
        elif block.F.strides[0] == 0 and block.C.shape[2] == 1:    # one velocity array, one node
            count = 2 * (hi - lo)
        else:
            count = cap
        hi = lo


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


# Points per feasibility call in a sweep, and velocity values per block of
# slices that share their samples; bounds their temporaries.
_FEAS_CHUNK = _SAMPLE_BLOCK


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
) -> ValueField:
    """Backward semi-Lagrangian sweep from the truncation horizon.

    ``horizon=None`` selects the horizon automatically from the tail
    envelope at tolerance ``tol``, with the initial states bounded by the
    largest ``|coordinate|`` of the grid's box.  Raises GridTooCoarse when
    some feasible node has no candidate velocity whose interpolation stencil
    stays feasible (one step must be able to reach the next grid cell: keep
    the fastest sampled speed along each constrained axis times ``dt`` at or
    above that axis's space step when constraints sweep the grid), and
    ValueError when a feasible node lies within ``M*dt`` of the box edge
    along a constrained axis (``_check_margin``).  Raises NonFiniteCost,
    naming the node and time, when a sampled control's running cost is NaN
    or infinite at a feasible node, at that slice's turn in the sweep: a
    GridTooCoarse at a later time is met first.

    ``f`` and the running cost are evaluated for a block of slices at a time
    (``_sweep_blocks``), at ``t`` of shape (T, 1) and ``x`` of shape
    (1, P, n), so they must broadcast over an array ``t``; one that does not
    raises ValueError naming it.  ``_sweep`` steps the slices into one array
    and yields the rows of each block once they are written; they are
    checked for a stranded node at once, and the error names the latest
    slice that strands one, the first stepped.  The returned ``values`` are
    a contiguous view of that array.
    """
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
    # the slices end to end, then the last one's two pads (_padded's pads),
    # which _sweep lends to each step in turn
    flat = np.empty((nt + 1) * P + 2)
    values = flat[:-2].reshape(nt + 1, P)
    flat[-2:] = _PADS
    values[nt] = np.where(feas[nt], 0.0, np.inf)
    for lo, hi in _sweep(p, lam, axes, nodes, grid.dt, times[:nt], feas[:nt], flat, level,
                         relaxed, mixture_grid):
        # the rows are +inf off feas, so fewer finite values than feasible
        # nodes means a feasible node without a finite candidate
        finite = np.isfinite(values[lo:hi])
        if np.count_nonzero(finite) != np.count_nonzero(feas[lo:hi]):
            stranded = feas[lo:hi] & ~finite
            i = lo + int(np.flatnonzero(stranded.any(axis=1))[-1])    # the first stepped
            k, t = int(stranded[i - lo].argmax()), float(times[i])
            raise GridTooCoarse(
                f"feasible node {nodes[k]} at t={t} has no stencil-feasible velocity; "
                + _coarse_hint(p, axes, constrained, grid.dt, t, nodes[k], level)
            )

    return ValueField(
        relaxed=relaxed, lam=float(lam), t0=float(grid.t0), dt=float(grid.dt),
        T=float(T), axes=axes, values=values.reshape((nt + 1,) + grid.shape),
        tail_bound=float(tail), a1=p.data.a1, a2=p.data.a2,
        x0_bound=float(x0_bound), problem_name=p.name, level=int(level),
        mixture_grid=int(mixture_grid) if relaxed else 1,
    )


def bellman_residual(p: ProblemDefinition, field: ValueField, i: int) -> float:
    """Re-apply one backward step at slice i, on the nodes where the slice is
    finite, and return the largest change there: +inf when the step strands
    such a node.  The step is ``_sweep`` over two slices, slice i and a
    padded copy of slice i + 1, so it is the sweep's own step."""
    if not (0 <= i < field.values.shape[0] - 1):
        raise ValueError("need an interior slice index")
    nodes = field.grid_nodes()
    P = nodes.shape[0]
    now = field.values[i].ravel()
    feas = np.isfinite(now)
    flat = np.concatenate((np.empty(P), _padded(field.values[i + 1])))
    for _ in _sweep(p, field.lam, field.axes, nodes, field.dt, field.times[i:i + 1], feas[None],
                    flat, field.level, field.relaxed, field.mixture_grid):
        pass
    if not feas.any():
        return 0.0
    return float(np.max(np.abs(flat[:P][feas] - now[feas])))
