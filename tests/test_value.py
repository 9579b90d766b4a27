import dataclasses
import math
import tracemalloc
import weakref
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feastube import problem as pb
from feastube import value as val
from feastube.errors import (
    DiscountTooSmall,
    GridMismatch,
    GridTooCoarse,
    NonFiniteConstraint,
    NonFiniteCost,
    OutOfGrid,
)

from oracles import (
    apply_stencil_loop,
    backstep_loop,
    feasible_slices_loop,
    interp_clipped,
    interp_clipped_pointwise,
    mixtures_tensordot,
    solve_checked_per_slice,
    sweep_loop,
    tree_value,
)
from util import (
    affine_constraint,
    constant_cost_problem,
    corner_problem,
    credit_problem,
    drift_problem,
    signed_zero_problem,
    simple_problem,
    steady_sway_problem,
    sway_problem,
    sway_walls,
    two_wall_1d,
    unit_velocity,
    zero_cost,
)


# --- truncation -----------------------------------------------------------------

def test_truncation_discount_gate(moving_wall):
    with pytest.raises(DiscountTooSmall):
        val.truncation_horizon(moving_wall, moving_wall.data.a1, 1.0, 1e-3)
    with pytest.raises(DiscountTooSmall):
        val.truncation_horizon(moving_wall, 1.0, 1.0, 1e-3)  # a1 = 2.8


def test_truncation_huge_tol_returns_t0(moving_wall):
    T, bound = val.truncation_horizon(moving_wall, 6.0, 1.0, 1e9, t0=0.5)
    assert T == 0.5
    assert bound <= 1e9


def test_truncation_matches_envelope_scan():
    p = constant_cost_problem()
    lam, x0b, tol = 4.0, 1.0, 1e-3
    T, bound = val.truncation_horizon(p, lam, x0b, tol, dt=0.05)
    # envelope with constant growth rate c: a1 = c, a2 = 0
    def env(T):
        return 2 * (1 + x0b) * (2.0 * T + 2.0 / (lam - 2.0)) * math.exp(-(lam - 2.0) * T)
    assert env(T) <= tol
    assert env(T - 0.05) > tol
    assert bound == pytest.approx(env(T))


# --- relaxed velocity enumeration --------------------------------------------------

def test_relaxed_set_resolution_one_is_vertices(hover):
    out = val.relaxed_velocity_set(hover, 0.0, [0.0], mixture_grid=1)
    assert sorted(r.f_star[0] for r in out) == [-1.0, 1.0]


def test_relaxed_set_midpoint(hover):
    out = val.relaxed_velocity_set(hover, 0.0, [0.0], mixture_grid=2)
    assert sorted(r.f_star[0] for r in out) == [-1.0, 0.0, 1.0]
    for r in out:
        assert r.weights.sum() == pytest.approx(1.0)
        assert np.all(r.weights >= 0)


def test_relaxed_set_single_control():
    controls = pb.ControlSamples(1, lambda t, l: np.array([[0.7]]))
    p = simple_problem(unit_velocity, zero_cost, controls=controls)
    for g in (1, 2, 4):
        out = val.relaxed_velocity_set(p, 0.0, [0.0], mixture_grid=g)
        assert len(out) == 1
        assert out[0].f_star[0] == pytest.approx(0.7)


def test_relaxed_set_consistency(moving_wall):
    for r in val.relaxed_velocity_set(moving_wall, 0.3, [0.2], mixture_grid=3):
        fs = sum(w * moving_wall.f(0.3, np.array([0.2]), u)
                 for w, u in zip(r.weights, r.controls))
        ls = sum(w * moving_wall.running_cost(0.3, np.array([0.2]), u)
                 for w, u in zip(r.weights, r.controls))
        np.testing.assert_allclose(fs, r.f_star, atol=1e-12)
        assert float(ls) == pytest.approx(r.L_star, abs=1e-12)


# --- solver -----------------------------------------------------------------------

def test_zero_cost_field_is_zero():
    p = simple_problem(unit_velocity, zero_cost, c=1.0, name="zero-cost")
    g = val.grid_for(p, 41, dt=0.1)
    f = val.solve_value(p, 2.0, g, relaxed=False, horizon=2.0)
    finite = f.values[np.isfinite(f.values)]
    assert np.max(np.abs(finite)) == 0.0


def test_constant_cost_closed_form():
    p = constant_cost_problem(lam=3.0)
    g = val.grid_for(p, 81, dt=0.05)
    f = val.solve_value(p, 3.0, g, relaxed=False, tol=1e-3)
    tol = 2 * (f.dx_max + f.dt)
    rng = np.random.default_rng(0)
    for _ in range(10):
        t = float(rng.uniform(0, min(2.0, f.T)))
        x = float(rng.uniform(-1.0, 1.0))
        want = (math.exp(-3.0 * t) - math.exp(-3.0 * f.T)) / 3.0
        got = val.evaluate_value(f, t, [x])
        assert abs(got - want) <= tol


def test_quadratic_cost_value_is_zero(quadratic):
    g = val.grid_for(quadratic, 41, dt=0.1)
    f = val.solve_value(quadratic, 1.0, g, relaxed=False, horizon=2.0)
    # u = 0 is sampled, so sitting still is optimal and free
    for x in (-1.0, 0.0, 1.5):
        assert val.evaluate_value(f, 0.0, [x]) == pytest.approx(0.0, abs=1e-12)


def test_tiny_instance_matches_control_tree(moving_wall):
    # aligned grid: dt = dx and f = u in {-1, 0, 1} keeps every transition
    # on grid nodes, so the sweep must equal exhaustive enumeration
    g = val.GridSpec(lo=[-2.5], hi=[2.0], shape=(46,), dt=0.1)
    f = val.solve_value(moving_wall, 2.0, g, relaxed=False, horizon=0.3)
    nodes = f.grid_nodes()
    for j, x in enumerate(nodes[:: 3]):
        want = tree_value(moving_wall, 2.0, 0.0, x, 3, 0.1)
        got = f.values[0].ravel()[3 * j]
        if math.isinf(want):
            assert math.isinf(got)
        else:
            assert abs(got - want) <= 1e-9


def test_truncation_stability(moving_wall):
    g = val.GridSpec(lo=[-2.5], hi=[2.0], shape=(46,), dt=0.1)
    lam = 6.0
    f1 = val.solve_value(moving_wall, lam, g, relaxed=False, tol=1e-3)
    f2 = val.solve_value(moving_wall, lam, g, relaxed=False, horizon=f1.T + 2.0)
    v1, v2 = f1.values[0], f2.values[0]
    both = np.isfinite(v1) & np.isfinite(v2)
    scheme = 2 * (f1.dx_max + f1.dt) * 1e-2  # changes only through the tail
    assert np.max(np.abs(v1[both] - v2[both])) <= f1.tail_bound + scheme


def test_grid_refinement_toward_tree(moving_wall):
    # halving the aligned step drives probe values toward the exhaustive
    # tree at the finest step
    want = tree_value(moving_wall, 2.0, 0.0, np.array([0.5]), 6, 0.05)
    errs = []
    for n_pts, dt in ((46, 0.1), (91, 0.05)):
        g = val.GridSpec(lo=[-2.5], hi=[2.0], shape=(n_pts,), dt=dt)
        f = val.solve_value(moving_wall, 2.0, g, relaxed=False, horizon=0.3)
        errs.append(abs(val.evaluate_value(f, 0.0, [0.5]) - want))
    assert errs[1] <= errs[0] + 1e-12
    assert errs[1] <= 1e-9  # the fine solve matches its own-step tree exactly


def test_discount_monotonicity(moving_wall):
    g = val.GridSpec(lo=[-2.5], hi=[2.0], shape=(46,), dt=0.1)
    f1 = val.solve_value(moving_wall, 3.0, g, relaxed=False, horizon=2.0)
    f2 = val.solve_value(moving_wall, 5.0, g, relaxed=False, horizon=2.0)
    both = np.isfinite(f1.values) & np.isfinite(f2.values)
    assert np.all(f1.values[both] >= f2.values[both] - 1e-12)


def test_relaxation_lowers_pointwise(hover):
    g = val.GridSpec(lo=[-0.6], hi=[0.6], shape=(25,), dt=0.05)
    fV = val.solve_value(hover, 2.0, g, relaxed=False, horizon=3.0)
    fs = val.solve_value(hover, 2.0, g, relaxed=True, mixture_grid=4, horizon=3.0)
    both = np.isfinite(fV.values) & np.isfinite(fs.values)
    assert np.all(fV.values[both] - fs.values[both] >= -val.TOL_DP)


def test_infeasible_nodes_are_sentinel(moving_wall):
    g = val.GridSpec(lo=[-2.5], hi=[2.0], shape=(46,), dt=0.1)
    f = val.solve_value(moving_wall, 2.0, g, relaxed=False, horizon=1.0)
    nodes = f.grid_nodes()[:, 0]
    import feastube.geometry as geo

    for i, t in enumerate(f.times):
        feas = geo.feasible_mask(moving_wall, float(t), f.grid_nodes())
        assert np.all(np.isfinite(f.values[i].ravel()) == feas)


def test_grid_too_coarse_detected(moving_wall):
    # while the wall descends, the node it sweeps next cannot escape its
    # cell when one step moves much less than the cell size
    g = val.GridSpec(lo=[-2.5], hi=[2.0], shape=(46,), dt=0.002, t0=2.0)
    with pytest.raises(GridTooCoarse):
        val.solve_value(moving_wall, 2.0, g, relaxed=False, horizon=3.0)


def test_grid_too_coarse_names_the_short_axis(corridor):
    # 21 x 31 nodes solve at dt 0.1; at dt 0.05 one step reaches 0.05 along y
    # (the fastest control moves at speed 1 along it), shorter than the
    # constrained y step (0.1), and a node by the wall is stranded
    val.solve_value(corridor, 6.0, val.grid_for(corridor, (21, 31), 0.1), relaxed=False,
                    horizon=0.2)
    with pytest.raises(GridTooCoarse) as err:
        val.solve_value(corridor, 6.0, val.grid_for(corridor, (21, 31), 0.05), relaxed=False,
                        horizon=0.2)
    msg = str(err.value)
    assert "feasible node [-2.  -0.5] at t=0.0" in msg
    assert "axis 1 reach 0.05 against step 0.1" in msg
    assert "axis 0" not in msg                            # x is not constrained
    assert ("shorter than the space step along axis 1: raise dt to at least 0.1, "
            "or refine axis 1 to a step of at most 0.05") in msg


def test_nonfinite_running_cost_is_named_not_grid_too_coarse(hover):
    # a cost that is NaN or +-inf near x = 0 reaches the node 0 at the first
    # backstep; the sweep names the cost there, not the grid, before it mixes
    # or adds any cost
    def spoiled(bad, where=lambda u: True):
        def cost(t, x, u):
            near = np.abs(np.asarray(x, dtype=float)[..., 0]) < 0.01
            return np.where(near & where(np.asarray(u)[..., 0]), bad,
                            hover.running_cost(t, x, u))
        return dataclasses.replace(hover, running_cost=cost)

    for bad in (np.nan, -np.inf, np.inf):
        for relaxed in (False, True):
            p = spoiled(bad)
            with pytest.raises(NonFiniteCost) as err:
                val.solve_value(p, p.lam, val.grid_for(p, 61, 0.01), relaxed=relaxed,
                                horizon=0.1)
            assert (f"running cost of hover-1d at feasible node [0.] at t=0.09 is not finite: "
                    f"[{bad}, {bad}]") in str(err.value)
    # one control's cost is enough, though the other's is finite
    p = spoiled(np.inf, lambda u: u > 0)
    with pytest.raises(NonFiniteCost) as err:
        val.solve_value(p, p.lam, val.grid_for(p, 61, 0.01), relaxed=False, horizon=0.1)
    assert "at feasible node [0.] at t=0.09 is not finite: [0.0, inf]" in str(err.value)


def test_nonfinite_cost_mid_block_is_named_with_its_raw_costs(hover):
    # hover-1d at 241 nodes holds 67 slices per block, so the sweep's first
    # block holds slices 133 to 199.  A cost that is +inf at one node up to
    # t* = times[150] is met mid-block, after 49 slices of the block have
    # stepped: the error names t* and the costs as the model gave them, not
    # discounted, scaled or mixed ones.  At x = 0.1 the finite cost x**2 is
    # not a fixed point of scaling, as 0.0 and +inf are.
    g = val.grid_for(hover, 241, 0.0025)
    nodes = g.nodes()
    t_star = float(g.t0 + g.dt * np.arange(200)[150])
    x_far = float(nodes[140, 0])

    def spoiled(at, where=lambda u: True):
        def cost(t, x, u):
            near = np.abs(np.asarray(x, dtype=float)[..., 0] - at) < 1e-3
            return np.where(near & (t <= t_star) & where(np.asarray(u)[..., 0]), np.inf,
                            hover.running_cost(t, x, u))
        return dataclasses.replace(hover, running_cost=cost)

    cases = ((spoiled(0.0), 0.0, [math.inf, math.inf]),
             (spoiled(0.0, lambda u: u > 0), 0.0, [0.0, math.inf]),
             (spoiled(x_far, lambda u: u > 0), x_far, [x_far ** 2, math.inf]))
    for p, at, raw in cases:
        for relaxed in (False, True):
            with pytest.raises(NonFiniteCost) as err:
                val.solve_value(p, p.lam, g, relaxed=relaxed, horizon=0.5)
            assert str(err.value) == (f"running cost of hover-1d at feasible node {np.array([at])} "
                                      f"at t={t_star} is not finite: {raw}")


def test_nonfinite_cost_off_the_feasible_set_is_not_mixed(hover):
    """A cost of +inf where |x| > 0.4, outside hover's walls, changes no value:
    the relaxed sweep solves without warning, and its finite values sit at
    the plain sweep's finite nodes."""
    def cost(t, x, u):
        far = np.abs(np.asarray(x, dtype=float)[..., 0]) > 0.4
        return np.where(far, np.inf, hover.running_cost(t, x, u))

    p = dataclasses.replace(hover, running_cost=cost)
    g = val.grid_for(p, 61, 0.01)
    plain, relaxed = (val.solve_value(p, p.lam, g, relaxed=r, horizon=0.1) for r in (False, True))
    assert np.count_nonzero(np.isfinite(plain.values)) == 341
    assert np.array_equal(np.isfinite(relaxed.values), np.isfinite(plain.values))


def test_grid_too_coarse_met_first_wins_over_a_later_nonfinite_cost(moving_wall):
    # the sweep meets the stranded node at t = 2.888 before the costs that
    # are +inf before t = 2.8, in the same block of slices
    def cost(t, x, u):
        return np.where(t < 2.8, np.inf, moving_wall.running_cost(t, x, u))

    p = dataclasses.replace(moving_wall, running_cost=cost)
    g = val.GridSpec(lo=[-2.5], hi=[2.0], shape=(46,), dt=0.002, t0=2.0)
    for relaxed in (False, True):
        with pytest.raises(GridTooCoarse) as err:
            val.solve_value(p, 2.0, g, relaxed=relaxed, horizon=3.0)
        assert "feasible node [1.1] at t=2.888 has no stencil-feasible velocity" in str(err.value)


# --- evaluation ---------------------------------------------------------------------

def test_evaluate_exact_node(moving_wall):
    g = val.GridSpec(lo=[-2.5], hi=[2.0], shape=(46,), dt=0.1)
    f = val.solve_value(moving_wall, 2.0, g, relaxed=False, horizon=1.0)
    i, j = 4, 10
    t = float(f.times[i])
    x = float(f.axes[0][j])
    assert val.evaluate_value(f, t, [x]) == f.values[i].ravel()[j]


def test_evaluate_midpoint_linearity():
    p = simple_problem(unit_velocity, zero_cost, c=1.0)
    g = val.grid_for(p, 5, dt=0.5)
    f = val.solve_value(p, 2.0, g, relaxed=False, horizon=1.0)
    vals = np.array(f.values, copy=True)
    vals[0, :] = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
    f2 = val.ValueField(**{**f.__dict__, "values": vals})
    ax = f2.axes[0]
    mid = 0.5 * (ax[0] + ax[1])
    assert val.evaluate_value(f2, 0.0, [mid]) == pytest.approx(2.0)


def test_evaluate_sentinel_near_boundary(moving_wall):
    g = val.GridSpec(lo=[-2.5], hi=[2.0], shape=(46,), dt=0.1)
    f = val.solve_value(moving_wall, 2.0, g, relaxed=False, horizon=1.0)
    # wall(0.3) = 1.118: x = 1.11 is feasible but its stencil cell [1.1, 1.2]
    # has an infeasible corner, so the clipping rule yields the sentinel
    assert math.isinf(val.evaluate_value(f, 0.3, [1.11]))
    # a plainly infeasible query is also the sentinel
    assert math.isinf(val.evaluate_value(f, 0.0, [1.5]))


def test_evaluate_out_of_grid(moving_wall):
    g = val.GridSpec(lo=[-2.5], hi=[2.0], shape=(46,), dt=0.1)
    f = val.solve_value(moving_wall, 2.0, g, relaxed=False, horizon=1.0)
    with pytest.raises(OutOfGrid):
        val.evaluate_value(f, -0.5, [0.0])
    with pytest.raises(OutOfGrid):
        val.evaluate_value(f, 0.0, [5.0])


def test_evaluate_names_a_point_just_beyond_the_grid(corridor):
    # a point beyond an axis by more than 1e-9 of its step (0.1 along axis 0)
    # is off the grid, however small the excess, and the error names it
    g = val.grid_for(corridor, (41, 61), 0.05)
    f = val.solve_value(corridor, 6.0, g, relaxed=False, horizon=0.2)
    assert val.evaluate_value(f, 0.1, [2.0 + 5e-11, 0.0]) == 0.0
    for x, d, span in (([2.0 + 5e-10, 0.0], 0, "[-2.0, 2.0]"),
                       ([2.0 + 2e-9, 0.0], 0, "[-2.0, 2.0]"),
                       ([0.0, -1.5 - 1e-9], 1, "[-1.5, 1.5]")):
        with pytest.raises(OutOfGrid) as err:
            val.evaluate_value(f, 0.1, [[0.0, 0.0], x])
        assert f"x={x} outside the grid along axis {d}, {span}" in str(err.value)


def test_gap_requires_matching_grids(hover):
    g1 = val.GridSpec(lo=[-0.6], hi=[0.6], shape=(25,), dt=0.05)
    g2 = val.GridSpec(lo=[-0.6], hi=[0.6], shape=(13,), dt=0.05)
    f1 = val.solve_value(hover, 2.0, g1, relaxed=False, horizon=1.0)
    f2 = val.solve_value(hover, 2.0, g2, relaxed=False, horizon=1.0)
    from feastube.analysis import relaxation_gap

    with pytest.raises(GridMismatch):
        relaxation_gap(f1, f2)


def test_two_dimensional_corridor_field(corridor):
    import feastube.geometry as geo

    g = val.GridSpec(lo=[-2.0, -1.5], hi=[2.0, 1.5], shape=(17, 31), dt=0.1)
    fV = val.solve_value(corridor, 4.0, g, relaxed=False, horizon=1.0)
    fs = val.solve_value(corridor, 4.0, g, relaxed=True, mixture_grid=2, horizon=1.0)
    # the sentinel pattern matches membership at every slice
    nodes = fV.grid_nodes()
    for i, t in enumerate(fV.times):
        feas = geo.feasible_mask(corridor, float(t), nodes)
        assert np.all(np.isfinite(fV.values[i].ravel()) == feas)
    # terminal slice is zero on feasible nodes
    last = fV.values[-1].ravel()
    assert np.all(last[np.isfinite(last)] == 0.0)
    # mixtures only lower values; bilinear evaluation works off-node
    both = np.isfinite(fV.values) & np.isfinite(fs.values)
    assert np.all(fV.values[both] - fs.values[both] >= -val.TOL_DP)
    center = val.evaluate_value(fV, 0.05, [0.33, 0.12])
    assert np.isfinite(center) and center >= 0.0


def test_terminal_slice_zero(moving_wall):
    g = val.GridSpec(lo=[-2.5], hi=[2.0], shape=(46,), dt=0.1)
    f = val.solve_value(moving_wall, 2.0, g, relaxed=False, horizon=1.0)
    last = f.values[-1].ravel()
    assert np.all(last[np.isfinite(last)] == 0.0)


# --- interpolation against the pointwise reference -----------------------------------

def _shifts(axes, rng):
    """Node-independent velocities for ``dt = 0.1``: off-lattice shifts, exact
    node hits, hits within 1e-9 of a cell (fr < 1e-9 and fr > 1 - 1e-9) and
    shifts that leave the grid, one row each."""
    steps = np.array([a[1] - a[0] for a in axes])
    n = len(axes)
    hits = rng.integers(-2, 3, (4, n)) * steps
    rows = [
        rng.uniform(-1.7, 1.7, (6, n)) * steps,
        hits,
        hits * (1 + 1e-12) + 1e-13 * steps,
        hits * (1 - 1e-12) - 1e-13 * steps,
        np.where(np.arange(n) == n - 1, 2.5, 0.3) * (steps * np.array([len(a) for a in axes])),
        -0.6 * steps * np.array([len(a) for a in axes]),
    ]
    return np.vstack(rows) / 0.1


def _scattered(axes, rng):
    """Points from their own coordinates rather than node plus shift, as
    ``(inside, outside)`` rows.  Inside: off-lattice points, exact node hits,
    fractions within 1e-9 of a node on either side, the grid's corners,
    points within 1e-9 of a step beyond its faces, and mixtures of these
    across axes.  Outside: points 1e-6 of a step and three widths beyond a
    face along one axis, in-grid along the others."""
    n = len(axes)
    lo, hi = np.array([a[0] for a in axes]), np.array([a[-1] for a in axes])
    steps = np.array([a[1] - a[0] for a in axes])
    off = lo + rng.random((12, n)) * (hi - lo)
    hits = np.column_stack([a[rng.integers(0, len(a), 12)] for a in axes])
    sign = rng.choice([-1.0, 1.0], (12, n))
    near = hits + sign * rng.uniform(1e-12, 9e-10, (12, n)) * steps
    corners = np.array(list(product(*zip(lo, hi))))
    faces = np.where(sign > 0, hi + 5e-10 * steps, lo - 5e-10 * steps)
    pick = rng.random((3, 12, n)) < 0.5
    mixed = np.where(pick[0], hits, np.where(pick[1], near, off))
    inside = np.vstack([off, hits, near, corners, np.where(pick[2], faces, off), mixed])
    out = off[:8].copy()
    for k in range(8):
        d = (k // 2) % n
        dist = 1e-6 * steps[d] if k % 2 == 0 else 3.0 * (hi[d] - lo[d])
        out[k, d] = hi[d] + dist if k < 4 else lo[d] - dist
    return inside, out


@pytest.mark.parametrize("shape", [(9,), (6, 8), (4, 5, 6)])
def test_interpolation_matches_pointwise_reference(shape):
    rng = np.random.default_rng(len(shape))
    axes = tuple(np.linspace(-1.0 - 0.3 * d, 2.0 + 0.5 * d, s) for d, s in enumerate(shape))
    nodes = val._mesh_nodes(axes)
    grid = np.where(rng.random(shape) < 0.15, np.inf, rng.uniform(-1.0, 1.0, shape))
    V = _shifts(axes, rng)
    want = np.stack([interp_clipped_pointwise(axes, grid, nodes + 0.1 * v) for v in V])
    got = np.stack([interp_clipped(axes, grid, nodes + 0.1 * v) for v in V])
    assert np.array_equal(got, want)
    # the backstep's terms of the feet of all shifts at once, as one row per
    # group and as full rows, and of each shift alone
    vals = val._padded(grid)

    def feet_terms(vel):
        return val._terms(axes, np.moveaxis(nodes + 0.1 * vel, -1, 0))

    assert np.array_equal(val._apply_stencil(feet_terms(V[:, None]), vals), want)
    rows = np.broadcast_to(V[:, None], (len(V),) + nodes.shape)
    assert np.array_equal(val._apply_stencil(feet_terms(rows), vals), want)
    assert len(feet_terms(V[6:18, None])[0]) == 1      # node hits: one corner each
    for v, row in zip(V, want):
        assert np.array_equal(val._apply_stencil(feet_terms(v[None, None]), vals)[0], row)
    # the cases reach finite values, infeasible corners and out-of-grid feet
    assert np.isfinite(want[:-2]).any(axis=1).all() and np.isinf(want[:-2]).any()
    assert np.isinf(want[-2]).all()
    assert np.isinf(want[-1]).any() and np.isfinite(want[-1]).any()
    # scattered points on slices with +inf, NaN and -inf corners, directly and
    # through evaluate_value at each slice time, in a batch and one by one
    inside, out = _scattered(axes, rng)
    pts = np.vstack([inside, out])
    holes = rng.random(shape) < 0.15
    holes.flat[rng.choice(np.flatnonzero(np.isfinite(grid)))] = True
    slices = np.stack([grid, np.where(holes, np.nan, grid), -grid])
    field = val.ValueField(relaxed=False, lam=1.0, t0=0.3, dt=0.1, T=0.5, axes=axes,
                           values=slices, tail_bound=0.0, a1=0.0, a2=0.0, x0_bound=0.0,
                           problem_name="slices", level=0, mixture_grid=1)
    wants = [interp_clipped_pointwise(axes, s, pts) for s in slices]
    for t, s, want in zip(field.times, slices, wants):
        assert interp_clipped(axes, s, pts).tobytes() == want.tobytes()
        assert np.asarray(val.evaluate_value(field, float(t), inside)).tobytes() == \
            want[:len(inside)].tobytes()
        for x, w in zip(inside, want):
            assert np.float64(val.evaluate_value(field, float(t), x)).tobytes() == w.tobytes()
        for x in out:
            with pytest.raises(OutOfGrid):
                val.evaluate_value(field, float(t), x)
        assert np.isinf(want[len(inside):]).all()
        assert np.isfinite(want[:len(inside)]).any() and np.isinf(want[:len(inside)]).any()
    # the NaN corners turn points that are finite on the first slice to +inf
    assert (np.isfinite(wants[0]) & np.isinf(wants[1])).any()
    # one time per row: on a slice, within 1e-9 of a step of one, or between
    # two (0 < fr < 1); in a batch each row has the value it has alone
    ts, k = field.times, len(inside)
    i = rng.integers(0, 3, k)
    kind = rng.integers(0, 3, k)
    near = rng.uniform(-9e-10, 9e-10, k) * field.dt
    i[kind == 2] %= 2                             # between slices i and i + 1
    frac = rng.uniform(0.05, 0.95, k)
    t = np.where(kind == 0, ts[i], np.where(kind == 1, ts[i] + near,
                                            ts[0] + field.dt * (i + frac)))
    fr = np.where(kind == 2, (t - ts[0]) / field.dt - i, 0.0)
    lo = np.stack(wants)[i, np.arange(k)]
    hi = np.stack(wants)[np.minimum(i + 1, 2), np.arange(k)]
    with np.errstate(invalid="ignore"):
        want = np.where(kind == 2, (1 - fr) * lo + fr * hi, lo)
    assert (0 < fr[kind == 2]).all() and (fr[kind == 2] < 1).all()
    assert np.isinf(want).any() and np.isfinite(want[kind == 2]).any()
    assert val.evaluate_value(field, t, inside).tobytes() == want.tobytes()
    for tj, x, w in zip(t, inside, want):
        assert np.float64(val.evaluate_value(field, float(tj), x)).tobytes() == w.tobytes()
    # OutOfGrid names the first row out of range: a time before a point
    bad = t.copy()
    bad[[5, 9]] = ts[-1] + 2e-9, ts[0] - 0.5
    for times, first in ((bad, 5), (bad[::-1], k - 10)):
        with pytest.raises(OutOfGrid) as err:
            val.evaluate_value(field, times, inside)
        assert err.value.row == first
        assert str(err.value) == f"t={times[first]} outside [{ts[0]}, {ts[-1]}]"
    rows = np.concatenate((t, t[:len(out)]))
    with pytest.raises(OutOfGrid) as err:
        val.evaluate_value(field, rows, pts)
    assert err.value.row == k and str(err.value).startswith(f"x={out[0].tolist()} outside")
    bad_rows = rows.copy()
    bad_rows[-1] = ts[-1] + 1.0
    with pytest.raises(OutOfGrid) as err:
        val.evaluate_value(field, bad_rows, pts)
    assert err.value.row == len(pts) - 1 and str(err.value).startswith("t=")


_NODE_VALUES = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([np.inf, -np.inf, np.nan]))


@st.composite
def _slices_and_points(draw):
    """Axes of one to three dimensions, two slices whose nodes mix finite
    values, +inf, -inf and NaN, and points inside the grid, on or within
    1e-9 of a step of a node, and up to one step beyond the grid."""
    n = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(2, 5)) for _ in range(n))
    axes = tuple(np.linspace(lo, lo + step * (s - 1), s) for s, lo, step in zip(
        shape, draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)),
        draw(st.lists(st.floats(0.05, 1.5), min_size=n, max_size=n))))
    size = math.prod(shape)
    slices = np.array(draw(st.lists(_NODE_VALUES, min_size=2 * size, max_size=2 * size)))
    m = draw(st.integers(1, 12))
    pts = np.empty((m, n))
    for d, ax in enumerate(axes):
        last = len(ax) - 1
        at = st.one_of(
            st.floats(-1.0, last + 1.0),
            st.integers(0, last).map(float),
            st.tuples(st.integers(0, last), st.floats(-2e-9, 2e-9)).map(sum),
        )
        pts[:, d] = ax[0] + (ax[1] - ax[0]) * np.array(draw(st.lists(at, min_size=m, max_size=m)))
    return axes, slices.reshape((2,) + shape), pts


@pytest.mark.parametrize("K", [1, 2, 4, 8])
def test_stencil_sum_matches_term_loop(K):
    # the sum accumulates into the first term's rows; on slices holding
    # +-0.0, subnormals and +inf, read through both pads, it must equal a
    # sum from a fresh +0.0, bit for bit (-0.0 + -0.0 is -0.0, 0.0 + -0.0
    # is 0.0): K = 1, 2, 4 and 8 terms are the corners of 0- to 3-D cells
    rng = np.random.default_rng(K)
    P = 64
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.5, np.inf])
    for _ in range(20):
        vals = np.concatenate((np.where(rng.random(P) < 0.6, rng.choice(special, P),
                                        rng.normal(0.0, 1.0, P)), val._PADS))
        flat = rng.integers(0, P + 2, (K, 3, 17))
        w = np.where(rng.random((K, 3, 17)) < 0.3, rng.choice([1.0, 0.5, 2e-15], (K, 3, 17)),
                     rng.uniform(1e-15, 1.0, (K, 3, 17)))
        w[flat == P] = 0.0                    # a point short of terms reads pad P at weight 0
        flat[:, :, :2] = P                    # every term of two points reads pad P: 0.0
        w[:, :, :2] = 0.0
        got = val._apply_stencil((flat, w), vals)
        assert got.shape == (3, 17)
        assert got.tobytes() == apply_stencil_loop((flat, w), vals).tobytes()


@settings(max_examples=150, deadline=None)
@given(case=_slices_and_points())
def test_interpolation_matches_pointwise_reference_on_any_slice(case):
    # every corner mixture a cell can hold (finite, +inf, -inf, NaN), on and
    # off nodes and beyond the grid, through both entry points
    axes, slices, pts = case
    field = val.ValueField(relaxed=False, lam=1.0, t0=0.5, dt=0.25, T=0.75, axes=axes,
                           values=slices, tail_bound=0.0, a1=0.0, a2=0.0, x0_bound=0.0,
                           problem_name="slices", level=0, mixture_grid=1)
    wants = [interp_clipped_pointwise(axes, s, pts) for s in slices]
    for s, want in zip(slices, wants):
        assert interp_clipped(axes, s, pts).tobytes() == want.tobytes()
    out = np.zeros(len(pts), dtype=bool)
    for ax, x in zip(axes, pts.T):
        step = ax[1] - ax[0]
        out |= (x < ax[0] - 1e-9 * step) | (x > ax[-1] + 1e-9 * step)
    inside = pts[~out]
    # t = 0.625 lies halfway between the slices: fr = 0.5 exactly
    both = np.isfinite(wants[0]) & np.isfinite(wants[1])
    mid = np.where(both, 0.5 * wants[0] + 0.5 * wants[1], np.inf)
    for t, want in ((0.5, wants[0]), (0.75, wants[1]), (0.625, mid)):
        if len(inside):
            got = np.asarray(val.evaluate_value(field, t, inside), dtype=float).reshape(-1)
            assert got.tobytes() == want[~out].tobytes()
        if out.any():
            with pytest.raises(OutOfGrid):
                val.evaluate_value(field, t, pts)


# --- backstep against the per-candidate reference ------------------------------------

MIXTURES = ((False, 4), (True, 1), (True, 2), (True, 4))   # (relaxed, mixture grid)
# weights such as 1/3 and 1/5 times non-dyadic velocities round
DRIFT_MIXTURES = MIXTURES + ((True, 3), (True, 5))


def _small_grid(p, t0, stretch, size):
    """A grid over the working box with one step reaching ``stretch`` >= 1
    space steps, so that no feasible node is stranded.  ``size`` nodes per
    axis in 1-D (13 to 41 keep the box M*dt beyond the feasible set);
    corridor-2d gets ``size`` (9 to 13) along x and ``2 size - 5`` along y."""
    shape = (size,) if p.n == 1 else (size, 2 * size - 5)
    dx = max((p.box[d, 1] - p.box[d, 0]) / (shape[d] - 1) for d in range(p.n))
    return val.grid_for(p, shape, float(stretch * dx / p.data.M), t0)


def _size_range(p):
    return (13, 41) if p.n == 1 else (9, 13)


_TEST_PROBLEMS = {"sway-1d": sway_problem, "drift-1d": lambda: drift_problem(1),
                  "drift-2d": lambda: drift_problem(2)}


def _step(p, lam, axes, nodes, t, dt, next_slice, feas_now, level, relaxed, mixture_grid):
    """One backstep at ``t`` from ``next_slice`` (P,), +inf off ``feas_now``,
    with ``backstep_loop``'s signature: ``value._sweep`` over two slices."""
    P = nodes.shape[0]
    flat = np.concatenate((np.empty(P), val._padded(next_slice)))
    assert list(val._sweep(p, lam, axes, nodes, dt, np.array([t]), feas_now[None], flat,
                           level, relaxed, mixture_grid)) == [(0, 1)]
    return flat[:P]


# (problem, grid, slices) of test_bellman_residual_zero: hover-1d at 241
# nodes holds 67 slices per block, corridor-2d at 21 x 31 two, and
# moving-wall-1d at 46 nodes all ten
_RESIDUAL_CASES = {
    "hover-1d": (lambda: pb.get_problem("hover-1d"),
                 lambda p: val.grid_for(p, 241, 0.0025, 0.4), 80),
    "moving-wall-1d": (lambda: pb.get_problem("moving-wall-1d"),
                       lambda p: val.GridSpec(lo=[-2.5], hi=[2.0], shape=(46,), dt=0.1), 10),
    "corridor-2d": (lambda: pb.get_problem("corridor-2d"),
                    lambda p: val.grid_for(p, (21, 31), 1.2 * 0.2 / p.data.M, 0.3), 6),
    "sway-1d": (sway_problem, lambda p: _small_grid(p, 0.2, 1.2, 41), 8),
    "drift-1d": (lambda: drift_problem(1), lambda p: _small_grid(p, 0.1, 1.2, 41), 8),
    "drift-2d": (lambda: drift_problem(2), lambda p: _small_grid(p, 0.1, 1.2, 13), 8),
}


def test_bellman_residual_zero():
    # a lone step is a block of one slice, a sweep's block holds several:
    # both step a slice to the same bytes, plain and at every mixture grid
    for make, grid, slices in _RESIDUAL_CASES.values():
        p = make()
        g = grid(p)
        for relaxed, mg in ((False, 4),) + tuple((True, k) for k in range(1, 6)):
            f = val.solve_value(p, p.lam, g, relaxed=relaxed, mixture_grid=mg,
                                horizon=g.t0 + slices * g.dt)
            assert f.values.shape[0] == slices + 1 and np.isfinite(f.values[0]).any()
            assert [val.bellman_residual(p, f, i) for i in range(slices)] == [0.0] * slices


def test_bellman_residual_reports_a_node_the_step_strands(hover):
    # +inf on nodes 25-35 of slice 4 leaves some node that is finite in
    # slice 3 without a finite candidate: its residual is +inf, not skipped
    g = val.grid_for(hover, 61, 0.01)
    f = val.solve_value(hover, 6.0, g, relaxed=False, horizon=0.2)
    holed = f.values.copy()
    holed[4, 25:36] = np.inf
    assert val.bellman_residual(hover, f, 3) == 0.0
    assert val.bellman_residual(hover, dataclasses.replace(f, values=holed), 3) == math.inf


@pytest.mark.parametrize("name", pb.registered_problems() + tuple(_TEST_PROBLEMS))
def test_backstep_matches_loop_reference(name, monkeypatch):
    p = _TEST_PROBLEMS[name]() if name in _TEST_PROBLEMS else pb.get_problem(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    lo, hi = _size_range(p)
    for _ in range(2):
        size = int(rng.integers(lo, hi + 1))
        g = _small_grid(p, float(rng.uniform(0.0, 2 * math.pi)), rng.uniform(1.0, 1.5), size)
        horizon = g.t0 + 5 * g.dt
        nodes, axes = g.nodes(), g.axes()
        P = nodes.shape[0]
        for relaxed, mg in DRIFT_MIXTURES if name.startswith("drift") else MIXTURES:
            f = val.solve_value(p, p.lam, g, relaxed=relaxed, mixture_grid=mg, horizon=horizon)
            noisy = val.ValueField(**{**f.__dict__,
                                      "values": f.values + rng.uniform(0.0, 1e-3, f.values.shape)})
            residuals = [val.bellman_residual(p, noisy, i) for i in range(5)]
            # an arbitrary next slice with infeasible holes and a ragged feasible set
            nxt = np.where(rng.random(P) < 0.2, np.inf, rng.uniform(0.0, 2.0, P))
            feas = rng.random(P) < 0.9
            args = (p, p.lam, axes, nodes, float(g.t0 + g.dt), g.dt, nxt, feas, 0, relaxed, mg)
            step = _step(*args)
            with monkeypatch.context() as m:
                m.setattr(val, "_INTERP_CHUNK", 1)      # one velocity group per call
                assert np.array_equal(_step(*args), step)
                assert [val.bellman_residual(p, noisy, i) for i in range(5)] == residuals
            assert np.array_equal(f.values, sweep_loop(p, f))
            assert max(residuals) > 0.0
            assert np.array_equal(step, backstep_loop(*args))


def _mixture_grids(p):
    """A small and a large grid of each problem: 1-D 13 and 241 nodes,
    2-D 9 x 13 and 21 x 31 (wide products round their last columns apart),
    3-D 5 x 5 x 5 and 9 x 9 x 9."""
    small, large = {1: ((13,), (241,)), 2: ((9, 13), (21, 31)), 3: ((5,) * 3, (9,) * 3)}[p.n]
    return val.grid_for(p, small, 0.1), val.grid_for(p, large, 0.1)


def _same_at_every_node(a):
    """Whether every per-control array of ``a`` (k, P, ...) has the bytes of
    its first node at every node, so that -0.0 and 0.0 stay apart."""
    bits = a.view(np.uint64)
    return bool((bits == bits[:, :1]).all())


_MIXED_PROBLEMS = {**_TEST_PROBLEMS, "corner-2d": corner_problem, "credit-3d": credit_problem}

# Where a wide product's columns of node-independent data do not all agree:
# (grid shape, mixture grid, "f" for velocities or "L" for costs).  A gemm
# rounds its last few columns in another order, so these mixtures depend on
# the node; the velocity and cost mixtures of every other case do not.
_COLUMNS_APART = {
    "corridor-2d": {((9, 13), 5, "f"), ((21, 31), 5, "f"), ((21, 31), 5, "L"),
                    ((41, 61), 5, "f"), ((41, 61), 5, "L")},
    "drift-2d": {((9, 13), 5, "f")} | {(shape, mg, "f") for shape in ((21, 31), (41, 61))
                                       for mg in (3, 4, 5)},
}


@pytest.mark.parametrize("name", pb.registered_problems() + tuple(_MIXED_PROBLEMS))
def test_mixture_products_match_tensordot_reference(name, monkeypatch):
    # The field tests cannot see a last-bit change in a mixture velocity (a
    # foot point absorbs it), so the mixtures themselves are compared: every
    # velocity (R, P, n) and cost (R, P) product, the product of two copies of
    # one node's column when the data are the same at every node, and the
    # velocities the backstep groups its candidates on.
    p = _MIXED_PROBLEMS[name]() if name in _MIXED_PROBLEMS else pb.get_problem(name)
    rng = np.random.default_rng(sum(map(ord, name)) + 1)
    grouped = []
    groups = val._groups
    monkeypatch.setattr(val, "_groups", lambda vel, P: grouped.append(vel) or groups(vel, P))
    apart = set()
    grouped_on = _mixture_grids(p)
    grids = grouped_on + ((val.grid_for(p, (41, 61), 0.1),) if p.n == 2 else ())
    for g in grids:
        nodes, P = g.nodes(), g.nodes().shape[0]
        for t in (0.0, *rng.uniform(0.0, 2 * math.pi, 2)):
            u, f_all = p.velocities(t, nodes)
            costs = p.costs(t, nodes, 0, u)
            for mg in range(1, 6):
                W = val._mixture_matrix(len(u), p.n + 1, mg)
                for key, a in (("f", f_all), ("L", costs)):
                    want = mixtures_tensordot(W, a)
                    assert val._mix(W, a).tobytes() == want.tobytes()
                    if not _same_at_every_node(a):
                        continue
                    # two columns go to gemm; one would go to gemv, which
                    # rounds apart from the wide product
                    narrow = val._mix(W, a[:, :2])[:, :1]
                    if _same_at_every_node(want):
                        assert narrow.tobytes() == want[:, :1].tobytes()
                    else:
                        apart.add((g.shape, mg, key))
                if g not in grouped_on:
                    continue                    # the products alone on the widest grid
                grouped.clear()
                _step(p, p.lam, g.axes(), nodes, float(t), g.dt, np.zeros(P),
                      np.ones(P, dtype=bool), 0, True, mg)
                if _same_at_every_node(f_all):
                    want = val._mix(W, f_all[:, :2])[:, :1]
                else:
                    want = mixtures_tensordot(W, f_all)
                assert [(v.shape, v.tobytes()) for v in grouped] == [(want.shape, want.tobytes())]
    assert apart == _COLUMNS_APART.get(name, set())
    for g in _mixture_grids(p):
        nodes, P = g.nodes(), g.nodes().shape[0]
        # a block of T slices' costs (T, k, P), as a sweep evaluates them,
        # mixed by one stacked product: each slice's mixtures are its own,
        # and so are its costs once discounted and scaled, in that order.
        # Costs the same at every node are kept and mixed on one node, (T, R, 1);
        # costs that do not read t are kept as one slice.
        for T in (1, 2, 67):
            times = float(rng.uniform(0.0, 2 * math.pi)) + g.dt * np.arange(T)
            u = p.controls.at(float(times[0]), 0)
            block = val._block(p, times, nodes, np.ones((T, P), dtype=bool), 0, u)
            C = np.moveaxis(p.costs(times[:, None], nodes[None], 0, u), 1, 0)
            one = _same_at_every_node(np.moveaxis(C, 2, 1))
            kept = C[:, :, :1] if one else C
            assert block.C.shape == (1 if T > 1 and C.strides[0] == 0 else T,) + kept.shape[1:]
            assert np.broadcast_to(block.C, kept.shape).tobytes() == kept.tobytes()
            for mg in range(1, 6):
                W = val._mixture_matrix(len(u), p.n + 1, mg)
                mixed, prepared = W @ C, val._block_costs(block, W, p.lam, g.dt)
                assert mixed.shape == (T, len(W), P)
                assert prepared.shape == (T, len(W), 1 if one else P)
                for j in range(T):
                    want = mixtures_tensordot(W, C[j])
                    assert mixed[j].tobytes() == want.tobytes()
                    if one and not _same_at_every_node(want):
                        assert (g.shape, mg, "L") in _COLUMNS_APART[name]
                        continue
                    want *= math.exp(-p.lam * float(times[j]))
                    want *= g.dt
                    assert prepared[j].tobytes() == want[:, :prepared.shape[2]].tobytes()


# --- feasibility of every slice, batched ---------------------------------------------

_WALLED = {"two-wall-1d": lambda: two_wall_1d(0.3), "sway-walls": sway_walls}


@pytest.mark.parametrize("name", pb.registered_problems() + tuple(_WALLED))
def test_feasible_slices_match_per_slice_loop(name, monkeypatch):
    p = _WALLED[name]() if name in _WALLED else pb.get_problem(name)
    g = val.grid_for(p, 41 if p.n == 1 else (21, 31), 0.05, t0=0.7)
    times = g.t0 + g.dt * np.arange(126)        # two periods of the walls
    nodes, P = g.nodes(), g.nodes().shape[0]
    want = feasible_slices_loop(p, times, nodes)
    assert want.any() and not want.all()
    for chunk in (1, P - 1, P, 3 * P + 5, val._FEAS_CHUNK):
        monkeypatch.setattr(val, "_FEAS_CHUNK", chunk)
        got = val._feasible_slices(p, times, nodes)
        assert got.shape == (len(times), P) and np.array_equal(got, want)


@pytest.mark.parametrize("name", pb.registered_problems())
def test_sweep_masks_match_per_slice_loop(name, monkeypatch):
    # the sweep's own (nt + 1, P) mask, and the finite set of its field
    p = pb.get_problem(name)
    g = _small_grid(p, 1.1, 1.2, _size_range(p)[1])
    masks = []
    batched = val._feasible_slices
    monkeypatch.setattr(val, "_feasible_slices",
                        lambda *a: masks.append(batched(*a)) or masks[-1])
    f = val.solve_value(p, p.lam, g, relaxed=True, horizon=g.t0 + 12 * g.dt)
    want = feasible_slices_loop(p, f.times, g.nodes())
    assert len(masks) == 1 and np.array_equal(masks[0], want)
    assert np.array_equal(np.isfinite(f.values).reshape(len(f.times), -1), want)


@st.composite
def _moving_walls(draw):
    """One to three walls ``c.x <= a + b sin(w t)`` in 1-D or 2-D."""
    n = draw(st.sampled_from([1, 2]))
    walls = []
    for i in range(draw(st.integers(1, 3))):
        turn = draw(st.floats(0, 2 * math.pi))
        c = (np.array([math.copysign(1.0, math.pi - turn)]) if n == 1
             else np.array([math.cos(turn), math.sin(turn)]))
        a, b, w = draw(st.floats(-0.2, 1.5)), draw(st.floats(-0.8, 0.8)), draw(st.floats(0, 5))
        walls.append(affine_constraint(f"wall{i}", c,
                                       lambda t, a=a, b=b, w=w: -(a + b * np.sin(w * t))))
    return simple_problem(unit_velocity, zero_cost, constraints=walls, n=n)


@settings(max_examples=40, deadline=None)
@given(p=_moving_walls(), t0=st.floats(-3.0, 3.0), dt=st.floats(1e-3, 0.5),
       slices=st.integers(1, 60), points=st.integers(2, 15), chunk=st.integers(1, 400))
def test_feasible_slices_match_loop_on_moving_walls(p, t0, dt, slices, points, chunk):
    g = val.grid_for(p, points, dt, t0)
    times = g.t0 + g.dt * np.arange(slices)
    want = feasible_slices_loop(p, times, g.nodes())
    old = val._FEAS_CHUNK
    try:
        val._FEAS_CHUNK = chunk
        assert np.array_equal(val._feasible_slices(p, times, g.nodes()), want)
    finally:
        val._FEAS_CHUNK = old


def _counted_walls(p):
    """``p`` with every constraint's ``h`` counting its calls."""
    calls = [0] * p.m

    def counted(i, h):
        def h_counted(t, x):
            calls[i] += 1
            return h(t, x)
        return h_counted

    walls = tuple(dataclasses.replace(c, h=counted(i, c.h)) for i, c in enumerate(p.constraints))
    return dataclasses.replace(p, constraints=walls), calls


def test_sweep_evaluates_constraints_once_per_slice_chunk(monkeypatch):
    p, calls = _counted_walls(pb.get_problem("moving-wall-1d"))
    g = val.grid_for(p, 41, 0.1125)
    f = val.solve_value(p, 6.0, g, relaxed=False, horizon=3.0)
    nt = f.values.shape[0] - 1
    assert nt == 27 and calls == [1, 1]         # 28 slices of 41 points: one chunk
    monkeypatch.setattr(val, "_FEAS_CHUNK", 100)    # two slices per call
    calls[:] = [0, 0]
    again = val.solve_value(p, 6.0, g, relaxed=False, horizon=3.0)
    assert calls == [14, 14] and np.array_equal(again.values, f.values)


def test_nonfinite_wall_named_as_the_per_slice_loop_named_it():
    times = 0.3 + 0.1 * np.arange(21)
    bad = [(times[12], 2), (times[5], 30), (times[5], 31)]   # the first slice counts

    def h(t, x):
        x = np.asarray(x, dtype=float)[..., 0]
        hole = np.zeros(np.broadcast_shapes(np.shape(t), x.shape))
        j = np.arange(x.shape[-1])
        for tb, jb in bad:
            hole[(np.broadcast_to(t, hole.shape) == tb) & (j == jb)] = np.nan
        return x - 1.5 + 0.0 * t + hole

    wall = pb.ConstraintFunction(h=h, grad=lambda t, x: np.ones_like(x), holder_theta=0.5,
                                 holder_const=0.0, grad_bound=1.0, name="leaky")
    p = simple_problem(unit_velocity, zero_cost, constraints=(wall,), lam=3.0)
    g = val.grid_for(p, 41, 0.1, t0=0.3)
    with pytest.raises(NonFiniteConstraint) as loop:
        feasible_slices_loop(p, times, g.nodes())
    with pytest.raises(NonFiniteConstraint) as sweep:
        val.solve_value(p, p.lam, g, relaxed=False, horizon=2.3)
    assert str(sweep.value) == str(loop.value)
    assert f"'leaky' is nan at t={float(times[5])!r}, x=array([1.])" in str(sweep.value)
    assert float(sweep.value.t) == float(times[5]) and np.array_equal(sweep.value.x, [1.0])


def test_margin_error_names_time_node_and_axis(corridor):
    # along y (axis 1) the box [-1, 1] leaves the lowest feasible node at
    # t = 0, y = -0.4, 0.6 from its edge, short of M*dt = 0.707; x is a free
    # direction and exempt
    g = val.GridSpec(lo=[-2.0, -1.0], hi=[2.0, 1.0], shape=(9, 11), dt=0.5, t0=0.0)
    with pytest.raises(ValueError) as err:
        val.solve_value(corridor, 6.0, g, relaxed=False, horizon=1.0)
    msg = str(err.value)
    assert "grid must extend beyond the feasible set by M*dt=0.707" in msg
    assert "violated at t=0.0: feasible node [-2.  -0.4] is 0.6 from the box edge" in msg
    assert "along constrained axis 1" in msg and "axis 0" not in msg


def _count_terms(monkeypatch):
    """Record every slice a sweep steps from now on as ``(built, stored)``:
    the group count of each chunk whose terms it built, and whether the
    groups it stepped on hold stored terms after it.  A slice applies each
    chunk of its groups once (``_apply_stencil``), and the terms it builds
    are built before its last apply."""
    steps, built, formed, applied = [], [], [], [0]
    build, group, apply = val._terms, val._groups, val._apply_stencil

    def counting(axes, coords):
        built.append(len(coords[0]))
        return build(axes, coords)

    def grouping(vel, P):
        formed[:] = [group(vel, P)]
        return formed[0]

    def applying(terms, vals):
        applied[0] += 1
        if applied[0] == len(formed[0].chunks):
            steps.append((built[:], formed[0].terms is not None))
            built.clear()
            applied[0] = 0
        return apply(terms, vals)

    monkeypatch.setattr(val, "_terms", counting)
    monkeypatch.setattr(val, "_groups", grouping)
    monkeypatch.setattr(val, "_apply_stencil", applying)
    return steps


def _chunk_sizes(groups, P):
    """Groups per chunk of a backstep over ``groups`` velocity arrays of P nodes."""
    per_call = max(1, val._INTERP_CHUNK // P)
    return [min(per_call, groups - lo) for lo in range(0, groups, per_call)]


def test_stencils_built_once_per_solve(corridor, monkeypatch):
    steps = _count_terms(monkeypatch)
    g = _small_grid(corridor, 0.3, 1.2, 11)
    horizon = g.t0 + 6 * g.dt
    nodes = g.nodes()
    _, f_all = corridor.velocities(g.t0, nodes)
    mixtures = np.tensordot(val._mixture_matrix(len(f_all), 3, 4), f_all, axes=(1, 0))
    distinct = len(np.unique(mixtures[:, 0], axis=0))
    chunks = _chunk_sizes(distinct, len(nodes))
    # the first slice builds and stores every chunk's terms, since the next
    # slice of its block reuses them, and the later slices only apply them
    once = [(chunks, True)] + [([], True)] * 5
    first = val.solve_value(corridor, corridor.lam, g, relaxed=True, mixture_grid=4,
                            horizon=horizon)
    assert steps == once and len(chunks) > 1 and sum(chunks) == distinct
    # nothing outlives a call: a second solve builds them all again
    steps.clear()
    second = val.solve_value(corridor, corridor.lam, g, relaxed=True, mixture_grid=4,
                             horizon=horizon)
    assert steps == once
    assert np.array_equal(first.values, second.values)


def test_relaxed_sweep_forms_no_product_over_candidates_and_nodes(corridor, hover, monkeypatch):
    # corridor-2d at 41 x 61 nodes: a cap of one slice per block, so its
    # first block holds 2 slices.  Its velocities do not read t and its costs
    # are the same at every node, so the next block doubles: 4 slices in 2
    # blocks.  Its relaxed sweep mixes them on two nodes and never forms an
    # (R, P, n) velocity or (R, P) cost product; the first slice stores the
    # groups' terms.  A block's costs go before the next block is formed, so
    # the traced peak stays below one (R, P, n) product.  hover-1d's cost x^2 differs from node to node:
    # its costs are still mixed on all P nodes.
    costs, blocks, prepare, real = [], [], val._block_costs, val._block
    mixed, mix = set(), val._mix

    def preparing(*args):
        cost = prepare(*args)
        costs.append(weakref.ref(cost))
        return cost

    def forming(*args):
        assert all(c() is None for c in costs)
        block = real(*args)
        blocks.append(weakref.ref(block))
        return block

    def mixing(W, a, axis=0):
        if W is not None:
            mixed.add((axis, a.shape[axis:]))
        return mix(W, a, axis)

    monkeypatch.setattr(val, "_block_costs", preparing)
    monkeypatch.setattr(val, "_block", forming)
    monkeypatch.setattr(val, "_mix", mixing)
    g = val.GridSpec(corridor.box[:, 0], corridor.box[:, 1], (41, 61), 0.1, 0.3)
    P, n, k = 41 * 61, corridor.n, len(corridor.controls.at(0.3))
    R = len(val._mixture_matrix(k, n + 1, 4))
    tracemalloc.start()
    try:
        f = val.solve_value(corridor, 6.0, g, relaxed=True, mixture_grid=4, horizon=0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.values.shape[0] == 5 and np.isfinite(f.values).any()
    assert len(blocks) == len(costs) == 2
    assert R == 369 and peak < R * P * n * 8
    # velocities (k, 2 nodes, n) and each block's costs (T, k, 2 nodes)
    assert mixed == {(0, (k, 2, n)), (1, (k, 2))}
    mixed.clear()
    g = val.grid_for(hover, 241, 0.0025, 0.4)
    val.solve_value(hover, hover.lam, g, relaxed=True, mixture_grid=4, horizon=0.5)
    k = len(hover.controls.at(0.4))
    assert mixed == {(0, (k, 2, 1)), (1, (k, 241))}


def test_sweep_pads_once_per_slice_and_applies_once_per_chunk(corridor, monkeypatch):
    # the sweep keeps its slices end to end in one array, each padded in
    # place for its step, so no backstep copies the next slice to pad it, and
    # each chunk's terms are applied once: a per-term mask or pad copy would
    # add calls here
    calls = {"_padded": 0, "_apply_stencil": 0}
    for name in calls:
        monkeypatch.setattr(val, name, lambda *a, real=getattr(val, name), name=name:
                            calls.__setitem__(name, calls[name] + 1) or real(*a))
    g = _small_grid(corridor, 0.3, 1.2, 11)
    nodes = g.nodes()
    _, f_all = corridor.velocities(g.t0, nodes)
    for relaxed, mg in ((False, 1), (True, 4)):
        W = val._mixture_matrix(len(f_all), 3, mg)
        distinct = len(np.unique(np.tensordot(W, f_all, axes=(1, 0))[:, 0], axis=0))
        chunks = _chunk_sizes(distinct, len(nodes))
        calls.update(_padded=0, _apply_stencil=0)
        f = val.solve_value(corridor, corridor.lam, g, relaxed=relaxed, mixture_grid=mg,
                            horizon=g.t0 + 6 * g.dt)
        nt = f.values.shape[0] - 1
        assert nt == 6 and calls == {"_padded": 0, "_apply_stencil": nt * len(chunks)}
        # the field is a contiguous view of the sweep's one array, which ends
        # with the last slice's two pads
        assert f.values.flags.c_contiguous
        assert f.values.base.shape == ((nt + 1) * len(nodes) + 2,)
        assert f.values.base[-2] == 0.0 and f.values.base[-1] == np.inf
    assert len(chunks) > 1


def _counted_model(p):
    """``p`` with its ``f``, running cost and control sampler counting their calls."""
    calls = {"f": 0, "cost": 0, "samples": 0}

    def counted(key, fn):
        def call(*args):
            calls[key] += 1
            return fn(*args)
        return call

    controls = dataclasses.replace(p.controls, sampler=counted("samples", p.controls.sampler))
    return dataclasses.replace(p, f=counted("f", p.f), controls=controls,
                               running_cost=counted("cost", p.running_cost)), calls


def test_sweep_evaluates_model_once_per_block_of_slices(hover, monkeypatch):
    # hover-1d at 241 nodes holds 2 * 241 velocity values per slice, so a
    # block holds 32768 // 482 = 67 slices: 200 slices make 3 blocks.  The
    # samples are drawn once per time.  A block's costs are mixed, discounted
    # and scaled once, and each slice applies its one chunk's terms once.
    p, calls = _counted_model(hover)
    for name in ("_block_costs", "_apply_stencil"):
        calls[name] = 0
        monkeypatch.setattr(val, name, lambda *a, real=getattr(val, name), name=name:
                            calls.__setitem__(name, calls[name] + 1) or real(*a))
    g = val.grid_for(p, 241, 0.0025)
    for relaxed in (False, True):
        calls.update(f=0, cost=0, samples=0, _block_costs=0, _apply_stencil=0)
        f = val.solve_value(p, p.lam, g, relaxed=relaxed, horizon=0.5)
        assert f.values.shape[0] == 201 and np.isfinite(f.values).any()
        assert calls == {"f": 3, "cost": 3, "samples": 200, "_block_costs": 3,
                         "_apply_stencil": 200}
    # a cap of one slice per block: the first block holds 2 slices and, as
    # hover's costs differ from node to node, every later block 1; one call
    # per block, and the same field
    monkeypatch.setattr(val, "_FEAS_CHUNK", 1)
    calls.update(f=0, cost=0, samples=0, _block_costs=0, _apply_stencil=0)
    again = val.solve_value(p, p.lam, g, relaxed=True, horizon=0.5)
    assert calls == {"f": 199, "cost": 199, "samples": 200, "_block_costs": 199,
                     "_apply_stencil": 200}
    assert again.values.tobytes() == f.values.tobytes()


class _CountingNumpy:
    """numpy as the value module sees it, counting the calls of ``names`` by
    the name and the dimension of their first argument."""

    def __init__(self, names):
        self.calls = Counter()
        self.names = names

    def __getattr__(self, name):
        fn = getattr(np, name)
        if name not in self.names:
            return fn

        def counted(a, *args, **kwargs):
            self.calls[name, np.ndim(a)] += 1
            return fn(a, *args, **kwargs)
        return counted


def test_sweep_checks_and_masks_once_per_block(hover, corridor, monkeypatch):
    # hover-1d at 241 nodes: 200 slices in 3 blocks, and a cost x**2 that
    # differs from node to node.  Per block, one isfinite over its costs
    # (T, k, P) and one over its rows (T, P), the stranded-node check, and
    # one mask of its prepared costs (T, R, P); no slice is masked alone.
    # corridor-2d's costs are the same at every node, kept (T, R, 1), and
    # each slice's row (P,) is masked alone.
    counting = _CountingNumpy({"isfinite", "copyto"})
    monkeypatch.setattr(val, "np", counting)
    g = val.grid_for(hover, 241, 0.0025)
    for relaxed, chunk in ((False, val._FEAS_CHUNK), (True, val._FEAS_CHUNK), (True, 1)):
        blocks = 3 if chunk > 1 else 199     # a first block of 2 slices, then 1 each
        counting.calls.clear()
        with monkeypatch.context() as m:
            m.setattr(val, "_FEAS_CHUNK", chunk)
            f = val.solve_value(hover, hover.lam, g, relaxed=relaxed, horizon=0.5)
        assert f.values.shape[0] == 201 and np.isfinite(f.values).any()
        assert {k: v for k, v in counting.calls.items() if k != ("copyto", 2)} == {
            ("isfinite", 3): blocks, ("isfinite", 2): blocks, ("copyto", 3): blocks}
    g = _small_grid(corridor, 0.3, 1.2, 11)
    counting.calls.clear()
    f = val.solve_value(corridor, corridor.lam, g, relaxed=True, horizon=g.t0 + 6 * g.dt)
    assert f.values.shape[0] == 7
    assert {k: v for k, v in counting.calls.items() if k != ("copyto", 2)} == {
        ("isfinite", 3): 1, ("isfinite", 2): 1, ("copyto", 1): 6}


def _changing_samples():
    """sway-1d (time-dependent velocities) with two controls before t = 0.5
    and three from then on."""
    def sampler(t, level):
        return np.array([[-1.0], [1.0]]) if t < 0.5 else np.array([[-1.0], [0.0], [1.0]])

    return dataclasses.replace(sway_problem(), controls=pb.ControlSamples(1, sampler))


def test_blocks_end_where_the_samples_change(monkeypatch):
    # a block never spans the change of samples, and every field, at every
    # block size, equals the per-candidate reference
    p, calls = _counted_model(_changing_samples())
    g = _small_grid(p, 0.0, 1.2, 41)
    horizon = 1.0 + g.dt / 2
    nt = int(round(horizon / g.dt))
    change = int(np.searchsorted(g.t0 + g.dt * np.arange(nt), 0.5))
    for relaxed in (False, True):
        ref = sweep_loop(p, val.solve_value(p, p.lam, g, relaxed=relaxed, horizon=horizon))
        assert np.isfinite(ref).any() and 0 < change < nt
        for chunk in (val._FEAS_CHUNK, 2 * 41 * 4, 1):
            with monkeypatch.context() as m:
                m.setattr(val, "_FEAS_CHUNK", chunk)
                calls.update(f=0, cost=0, samples=0)
                f = val.solve_value(p, p.lam, g, relaxed=relaxed, horizon=horizon)
            # sway-1d's velocities read t: a run's first block holds max(2,
            # cap) slices and every later one the cap
            blocks = 0
            for run, k in ((nt - change, 3), (change, 2)):
                cap = max(1, chunk // (k * 41))
                blocks += 1 + max(0, -(-(run - max(2, cap)) // cap))
            assert calls == {"f": blocks, "cost": blocks, "samples": nt}
            assert f.values.tobytes() == ref.tobytes()


def _recorded_blocks(monkeypatch):
    """Record each block a sweep forms from now on as ``(slices, one velocity
    array, costs on one node)``."""
    blocks, real = [], val._block

    def forming(*args):
        block = real(*args)
        blocks.append((len(block.times), block.F.strides[0] == 0, block.C.shape[2] == 1))
        return block

    monkeypatch.setattr(val, "_block", forming)
    return blocks


def _read_t_below(t_star, which):
    """steady-sway-1d with the cost ``1 - u^2``, the same at every node,
    whose velocities (``which`` "velocities": sway-1d's) or cost ("costs":
    ``0.1 (1 + cos x)``, which differs from node to node) change below
    ``t_star``.  Each reads t only when one of its times lies below
    ``t_star``, so a call over later times alone has no time axis; every
    time's rows are its own call's."""
    base, sway = steady_sway_problem(), sway_problem().f

    def flat(t, x, u):
        return 1.0 - np.asarray(u, dtype=float)[..., 0] ** 2 + 0.0 * np.asarray(x)[..., 0]

    def spread(t, x, u):
        return 0.1 * (1.0 + np.cos(np.asarray(x)[..., 0])) + 0.0 * np.asarray(u)[..., 0]

    def below(early, late):
        def fn(t, x, u):
            t = np.asarray(t, dtype=float)
            if not (t < t_star).any():
                return late(t, x, u)
            return np.where(t < t_star, early(t, x, u), late(t, x, u))
        return fn

    if which == "velocities":
        return dataclasses.replace(base, f=below(sway, base.f), running_cost=flat)
    return dataclasses.replace(base, running_cost=below(spread, flat))


@pytest.mark.parametrize("which", ["velocities", "costs"])
def test_blocks_fall_back_to_the_cap_once_the_model_reads_t(which, monkeypatch):
    # 30 slices stepped from t = 1.16 down to 0, a cap of 3 slices.  From
    # t* = 0.6 down, the velocities read t (or the costs spread over the
    # nodes): the blocks double while neither does, the block that meets t*
    # is a doubled one, and every block after it holds the cap.  Every field
    # equals the per-candidate reference, plain and relaxed.
    p = _read_t_below(0.6, which)
    g = _small_grid(p, 0.0, 1.2, 41)
    horizon = 30 * g.dt
    for relaxed, mg in MIXTURES:
        with monkeypatch.context() as m:
            m.setattr(val, "_FEAS_CHUNK", 3 * 3 * 41)
            blocks = _recorded_blocks(m)
            f = val.solve_value(p, p.lam, g, relaxed=relaxed, mixture_grid=mg, horizon=horizon)
        assert f.values.tobytes() == sweep_loop(p, f).tobytes()
        assert np.isfinite(f.values).any()
        # slices 29 down to 0: 3 and 6 that do not read t, 12 (slices 20 down
        # to 9, the last six below t*), then 3, 3 and 3
        assert [b[0] for b in blocks] == [3, 6, 12, 3, 3, 3]
        steady = [b[1] and b[2] for b in blocks]
        assert steady == [True, True, False, False, False, False]


def test_a_model_that_reuses_its_output_buffer_is_copied(monkeypatch):
    # sway-1d's velocities read t and its costs differ from node to node; here
    # both write every result into one buffer per shape, which the next call
    # overwrites.  The sweep keeps the last block's velocities to compare with
    # the next block's, so it must hold copies: every field equals the
    # per-candidate reference at every block size.
    base, buffers = sway_problem(), {}

    def into_buffer(fn):
        def call(t, x, u):
            out = np.asarray(fn(t, x, u))
            buf = buffers.setdefault((fn, out.shape), np.empty(out.shape))
            buf[...] = out
            return buf
        return call

    p = dataclasses.replace(base, f=into_buffer(base.f), running_cost=into_buffer(base.running_cost))
    g = _small_grid(p, 0.0, 1.2, 41)
    for relaxed, mg in MIXTURES:
        ref = sweep_loop(p, val.solve_value(p, p.lam, g, relaxed=relaxed, mixture_grid=mg,
                                            horizon=12 * g.dt))
        assert np.isfinite(ref).any()
        for chunk in (val._FEAS_CHUNK, 1):
            with monkeypatch.context() as m:
                m.setattr(val, "_FEAS_CHUNK", chunk)
                f = val.solve_value(p, p.lam, g, relaxed=relaxed, mixture_grid=mg,
                                    horizon=12 * g.dt)
            assert f.values.tobytes() == ref.tobytes()
    _, V = p.velocities(np.array([[0.1], [0.2]]), g.nodes()[None], 0, p.controls.at(0.1))
    assert not V.flags.writeable and not any(np.shares_memory(V, b) for b in buffers.values())


# Problems whose blocks differ from slice to slice: moving-wall-1d's cost has
# a 0.4 (1 - cos t) term, so every slice's cost rows differ; sway-1d's and
# drift's velocities change every slice; steady-sway-1d's recur but differ
# from node to node; the samples change at t = 0.5 in the last.  Each has one
# grid of 8 slices: (problem, t0, size).
_BLOCKED = {
    "moving-wall-1d": (lambda: pb.get_problem("moving-wall-1d"), 0.3, 17),
    "sway-1d": (sway_problem, 0.2, 17),
    "steady-sway-1d": (steady_sway_problem, 0.4, 17),
    "drift-1d": (lambda: drift_problem(1), 0.1, 17),
    "drift-2d": (lambda: drift_problem(2), 0.1, 9),
    "changing-samples-1d": (_changing_samples, 0.1, 17),
}
_BLOCKED_REFS: dict = {}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_BLOCKED)),
       mixture=st.sampled_from(((False, 4),) + tuple((True, k) for k in range(1, 6))),
       per_block=st.integers(1, 8), per_chunk=st.sampled_from((1, 2, 3, None)))
def test_fields_at_any_block_size_match_loop_reference(name, mixture, per_block, per_chunk):
    # a block of 1 slice up to the whole sweep, and velocity groups split
    # over interpolation chunks of 1 to 3 groups (None: the default chunk)
    make, t0, size = _BLOCKED[name]
    p = make()
    g = _small_grid(p, t0, 1.2, size)
    horizon = g.t0 + 8 * g.dt
    relaxed, mg = mixture
    key = (name, relaxed, mg)
    if key not in _BLOCKED_REFS:
        _BLOCKED_REFS[key] = sweep_loop(p, val.solve_value(p, p.lam, g, relaxed=relaxed,
                                                           mixture_grid=mg, horizon=horizon))
    ref = _BLOCKED_REFS[key]
    assert ref.shape[0] == 9 and np.isfinite(ref).any()
    P = g.nodes().shape[0]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(val, "_FEAS_CHUNK", per_block * len(p.controls.at(g.t0, 0)) * P * p.n)
        if per_chunk is not None:
            m.setattr(val, "_INTERP_CHUNK", per_chunk * P)
        f = val.solve_value(p, p.lam, g, relaxed=relaxed, mixture_grid=mg, horizon=horizon)
    assert f.values.tobytes() == ref.tobytes()


@st.composite
def _walled_sweeps(draw):
    """A sweep of 1 to 12 slices between walls ``|x_d - b_d sin(w_d t)| <=
    r_d`` moving inside the box [-2, 2]^n, n = 1 or 2, with a node feasible
    at a drawn slice stranded there (every node within one step and one
    cell of it infeasible at the next slice) and a node feasible at a drawn
    slice whose running cost is NaN or +-inf there, each or both left out;
    a block of 1 to 4 slices.  Returns ``(p, grid, horizon, relaxed,
    mixture grid, slices per block)``."""
    n = draw(st.sampled_from([1, 2]))
    points = draw(st.integers(3, 15 if n == 1 else 7))
    dt = draw(st.floats(0.05, 0.5))
    slices = draw(st.integers(1, 12))
    t0 = draw(st.floats(-3.0, 3.0))
    times = t0 + dt * np.arange(slices + 1)
    walls = []
    for d in range(n):
        r, b, w = draw(st.floats(0.2, 1.0)), draw(st.floats(0.0, 0.3)), draw(st.floats(0.0, 5.0))
        for s in (1.0, -1.0):
            walls.append(affine_constraint(f"wall{d}{'+' if s > 0 else '-'}", s * np.eye(n)[d],
                                           lambda t, r=r, b=b, w=w, s=s: -r - s * b * np.sin(w * t)))
    walled = simple_problem(unit_velocity, zero_cost, constraints=walls, n=n)
    nodes = val.grid_for(walled, points, dt, t0).nodes()
    feas = feasible_slices_loop(walled, times, nodes)

    def feasible_node():
        """A slice stepped and a node feasible between the walls there, or None."""
        i = draw(st.integers(0, slices - 1))
        where = np.flatnonzero(feas[i])
        return None if not where.size else (i, nodes[where[draw(st.integers(0, where.size - 1))]])

    strand = feasible_node() if draw(st.booleans()) else None
    if strand is not None:
        at, near = float(times[strand[0] + 1]), strand[1]
        reach = dt + 4.0 / (points - 1) + 1e-9     # one step at speed 1, and one cell

        def h(t, x):
            close = np.abs(np.asarray(x, dtype=float) - near).max(axis=-1) <= reach
            return np.where((np.abs(t - at) < dt / 2) & close, 1.0, -1.0)

        walls.append(pb.ConstraintFunction(h=h, grad=lambda t, x: np.zeros_like(x),
                                           holder_theta=0.5, holder_const=0.0, grad_bound=0.0,
                                           name="strand"))
    spoil = feasible_node() if draw(st.booleans()) else None
    bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    spoiled_at, spoiled = (math.inf, nodes[0]) if spoil is None else (float(times[spoil[0]]),
                                                                      spoil[1])

    def cost(t, x, u):
        x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
        hit = (np.abs(t - spoiled_at) < dt / 2) & (np.abs(x - spoiled).max(axis=-1) == 0.0)
        return np.where(hit, bad, (x[..., 0] - 0.3) ** 2 + 0.25 * u[..., 0])

    moves = np.vstack([np.zeros(n), np.eye(n), -np.eye(n)])
    p = simple_problem(unit_velocity, cost, constraints=walls, n=n, lam=3.0,
                       controls=pb.ControlSamples(n, lambda t, level: moves))
    relaxed, mg = draw(st.sampled_from(MIXTURES))
    return (p, val.grid_for(p, points, dt, t0), float(times[-1]), relaxed, mg,
            draw(st.integers(1, 4)))


@settings(max_examples=80, deadline=None)
@given(case=_walled_sweeps())
def test_block_checks_name_what_per_slice_checks_name(case):
    # the sweep checks a block of slices at once: where it solves, its field
    # is the per-candidate reference's; where it raises, it raises what a
    # check of each slice in turn raises, with the same message
    p, g, horizon, relaxed, mg, per_block = case
    want = got = None
    try:
        want = solve_checked_per_slice(p, p.lam, g, relaxed, mg, horizon)
    except (GridTooCoarse, NonFiniteCost) as err:
        want = err
    with pytest.MonkeyPatch.context() as m:
        m.setattr(val, "_FEAS_CHUNK", per_block * (2 * p.n + 1) * g.nodes().size)
        try:
            got = val.solve_value(p, p.lam, g, relaxed=relaxed, mixture_grid=mg, horizon=horizon)
        except (GridTooCoarse, NonFiniteCost) as err:
            got = err
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert isinstance(got, val.ValueField)
        with np.errstate(invalid="ignore"):     # a non-finite cost off the feasible set, mixed
            assert got.values.tobytes() == sweep_loop(p, got).tobytes()
        assert got.values.reshape(want.shape).tobytes() == want.tobytes()


def test_sweep_memory_is_flat_in_the_slice_count(corridor, monkeypatch):
    # corridor-2d at 41 x 61 nodes: its blocks double, to 6 slices of 12 and
    # 18 of 48.  They hold one velocity array and costs on one node, so the
    # peak traced allocation beyond the sweep's own arrays (the field, 8
    # bytes per node and slice, and the feasibility mask, 1) grows by less
    # than 128 KB from 12 to 48 slices (measured about 55 KB plain; the
    # relaxed peak, set by the stored terms, falls).  Costs held over every
    # node, (T, k, P), would add 9 * 2501 * 8 bytes per slice of the last
    # block, about 2.2 MB.
    g = val.GridSpec(corridor.box[:, 0], corridor.box[:, 1], (41, 61), 0.1, 0.3)
    P = 41 * 61
    for relaxed in (False, True):
        beyond = []
        for slices in (12, 48):
            tracemalloc.start()
            try:
                f = val.solve_value(corridor, 6.0, g, relaxed=relaxed, mixture_grid=4,
                                    horizon=g.t0 + slices * g.dt)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert f.values.shape == (slices + 1, 41, 61) and np.isfinite(f.values).any()
            beyond.append(peak - (slices + 1) * P * 9)
        assert beyond[1] - beyond[0] < 128 * 1024
    # a one-slice sweep stores no terms
    formed, group = [], val._groups
    monkeypatch.setattr(val, "_groups", lambda vel, P: formed.append(group(vel, P)) or formed[-1])
    field = val.solve_value(corridor, 6.0, g, relaxed=True, mixture_grid=4, horizon=g.t0 + 0.3)
    formed.clear()
    assert val.bellman_residual(corridor, field, 1) <= val.TOL_DP
    assert len(formed) == 1 and formed[0].terms is None


def test_velocities_met_once_build_no_stencil(monkeypatch):
    # drift-1d's velocities change every slice: each slice builds its feet's
    # terms and stores none, and so does a lone backstep
    steps = _count_terms(monkeypatch)
    p = drift_problem(1)
    g = val.grid_for(p, 41, 0.1)
    for relaxed in (False, True):
        steps.clear()
        f = val.solve_value(p, p.lam, g, relaxed=relaxed, horizon=3.0)
        assert f.values.shape[0] == 31 and np.isfinite(f.values).any()
        assert len(steps) == 30
        assert all(built and not stored for built, stored in steps)
    corridor = pb.get_problem("corridor-2d")
    field = val.solve_value(corridor, corridor.lam, _small_grid(corridor, 0.0, 1.0, 9),
                            relaxed=True, horizon=0.5)
    steps.clear()
    assert val.bellman_residual(corridor, field, 0) <= val.TOL_DP
    assert val.bellman_residual(corridor, field, 0) <= val.TOL_DP
    assert len(steps) == 2 and steps[0] == steps[1] and steps[0][0] and not steps[0][1]


def test_steady_node_dependent_velocities_store_terms_once(monkeypatch):
    # sway-1d without its time term: velocity arrays that differ from node to
    # node and recur from slice to slice.  Every field equals the per-candidate
    # reference, and a sweep stores each chunk's terms once, whether its
    # slices share one block or each slice is a block of its own.
    p = steady_sway_problem()
    g = _small_grid(p, 0.4, 1.2, 41)
    horizon = g.t0 + 6 * g.dt
    nodes = g.nodes()
    u, f_all = p.velocities(g.t0, nodes)
    assert not _same_at_every_node(f_all)
    for relaxed, mg in ((False, 4),) + tuple((True, k) for k in range(1, 6)):
        f = val.solve_value(p, p.lam, g, relaxed=relaxed, mixture_grid=mg, horizon=horizon)
        assert f.values.tobytes() == sweep_loop(p, f).tobytes()
        assert np.isfinite(f.values).all()
        for block in (val._FEAS_CHUNK, 1):
            with monkeypatch.context() as m:
                m.setattr(val, "_INTERP_CHUNK", 2 * len(nodes))     # two groups per chunk
                m.setattr(val, "_FEAS_CHUNK", block)
                steps = _count_terms(m)
                again = val.solve_value(p, p.lam, g, relaxed=relaxed, mixture_grid=mg,
                                        horizon=horizon)
                W = val._mixture_matrix(len(u), 2, mg) if relaxed else None
                chunks = _chunk_sizes(len({v.tobytes() for v in val._mix(W, f_all)}), len(nodes))
            assert steps == [(chunks, True)] + [([], True)] * 5
            assert len(chunks) > 1 and again.values.tobytes() == f.values.tobytes()


@pytest.mark.parametrize("make", [signed_zero_problem, lambda: signed_zero_problem(reverse=True),
                                  steady_sway_problem],
                         ids=["signed-zero-1d", "signed-zero-1d-reversed", "steady-sway-1d"])
def test_fold_order_of_a_group_cannot_reach_a_field(make):
    # A group's cost on one node is one np.minimum.reduceat over its
    # candidates, which may keep -0.0 or +0.0 of a tie apart from a
    # sequential fold.  The
    # interpolated row it is added to is never -0.0 (_apply_stencil sums
    # from +0.0), and x + -0.0 == x + 0.0 for every other x, so every field
    # equals the per-candidate reference, plain and relaxed, and with the
    # signed zeros met in either order (the plain group's minimum is +0.0 in
    # one and -0.0 in the other).  steady-sway-1d's costs and velocities
    # differ from node to node.
    p = make()
    g = _small_grid(p, 0.3, 1.2, 17)
    for relaxed, mg in ((False, 4),) + tuple((True, k) for k in range(1, 6)):
        f = val.solve_value(p, p.lam, g, relaxed=relaxed, mixture_grid=mg, horizon=g.t0 + 6 * g.dt)
        assert np.isfinite(f.values).all()
        assert f.values.tobytes() == sweep_loop(p, f).tobytes()
        # moving pays where its foot stays on the grid, so the groups' costs reach it
        assert p.name != "signed-zero-1d" or (f.values[0] < 0.0).any()
    if p.name == "signed-zero-1d":
        u = p.controls.at(g.t0, 0)
        block = val._block(p, np.array([g.t0]), g.nodes(), np.ones((1, 17), dtype=bool), 0, u)
        zeros = block.C[0, np.abs(u[:, 0]) == 0.5, 0]
        assert block.C.shape == (1, 4, 1) and sorted(np.signbit(zeros)) == [False, True]
        assert val._groups(block.F[0][:, :1], 17).starts.tolist() == [0, 2]   # two pairs


_REGISTERED = {name: pb.get_problem(name) for name in pb.registered_problems()}


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(sorted(_REGISTERED)),
    t0=st.floats(min_value=0.0, max_value=2 * math.pi),
    stretch=st.floats(min_value=1.0, max_value=1.5),
    data=st.data(),
)
def test_relaxed_fields_nest_with_mixture_grid(name, t0, stretch, data):
    # grid 1 holds only the sampled controls; grid 2's weights are grid 4's
    p = _REGISTERED[name]
    lo, hi = _size_range(p)
    g = _small_grid(p, t0, stretch, data.draw(st.integers(lo, hi), label="size"))
    horizon = g.t0 + 4 * g.dt
    plain, *relaxed = (
        val.solve_value(p, p.lam, g, relaxed=r, mixture_grid=mg, horizon=horizon)
        for r, mg in MIXTURES
    )
    assert np.array_equal(relaxed[0].values, plain.values)
    for fine, coarse in ((relaxed[2], relaxed[1]), (relaxed[1], relaxed[0])):
        finite = np.isfinite(coarse.values)
        assert np.all(np.isfinite(fine.values[finite]))
        assert np.all(fine.values[finite] <= coarse.values[finite] + val.TOL_DP)
