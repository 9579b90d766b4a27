import dataclasses
import math
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
    backstep_loop,
    feasible_slices_loop,
    interp_clipped_pointwise,
    mixtures_tensordot,
    tree_value,
)
from util import (
    affine_constraint,
    constant_cost_problem,
    drift_problem,
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


def test_bellman_residual_zero(moving_wall):
    g = val.GridSpec(lo=[-2.5], hi=[2.0], shape=(46,), dt=0.1)
    f = val.solve_value(moving_wall, 2.0, g, relaxed=False, horizon=1.0)
    for i in (0, 3, 7):
        assert val.bellman_residual(moving_wall, f, i) <= val.TOL_DP


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
    got = np.stack([val._interp_clipped(axes, grid, nodes + 0.1 * v) for v in V])
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
        assert val._interp_clipped(axes, s, pts).tobytes() == want.tobytes()
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
        assert val._interp_clipped(axes, s, pts).tobytes() == want.tobytes()
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


def _loop_in_sweep(p, lam, axes, nodes, t, dt, next_slice, feas_now, level, relaxed,
                   mixture_grid, memo=None, rows=None):
    """``backstep_loop`` in ``value._backstep``'s place in a sweep: it gets
    the next slice without its two pads, and evaluates its own candidates
    at ``t``, so the sweep's memo and block rows go unused."""
    return backstep_loop(p, lam, axes, nodes, t, dt, next_slice[:-2], feas_now, level,
                         relaxed, mixture_grid)


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
            padded = args[:6] + (val._padded(nxt),) + args[7:]
            step = val._backstep(*padded)
            with monkeypatch.context() as m:
                m.setattr(val, "_INTERP_CHUNK", 1)      # one velocity group per call
                assert np.array_equal(val._backstep(*padded), step)
                m.setattr(val, "_backstep", _loop_in_sweep)
                ref = val.solve_value(p, p.lam, g, relaxed=relaxed, mixture_grid=mg,
                                      horizon=horizon)
                assert [val.bellman_residual(p, noisy, i) for i in range(5)] == residuals
            assert np.array_equal(f.values, ref.values)
            assert max(residuals) > 0.0
            assert np.array_equal(step, backstep_loop(*args))


def _mixture_grids(p):
    """A small and a large grid of each problem: 1-D 13 and 241 nodes,
    2-D 9 x 13 and 21 x 31 (wide products round their last columns apart)."""
    small = val.grid_for(p, (13,) if p.n == 1 else (9, 13), 0.1)
    return small, val.grid_for(p, (241,) if p.n == 1 else (21, 31), 0.1)


@pytest.mark.parametrize("name", pb.registered_problems() + tuple(_TEST_PROBLEMS))
def test_mixture_products_match_tensordot_reference(name, monkeypatch):
    # The field tests cannot see a last-bit change in a mixture velocity (a
    # foot point absorbs it), so the mixtures themselves are compared: every
    # velocity (R, P, n) and cost (R, P) product, and the velocities the
    # backstep groups its candidates on.
    p = _TEST_PROBLEMS[name]() if name in _TEST_PROBLEMS else pb.get_problem(name)
    rng = np.random.default_rng(sum(map(ord, name)) + 1)
    grouped = []
    groups = val._groups
    monkeypatch.setattr(val, "_groups", lambda vel, P: grouped.append(vel) or groups(vel, P))
    for g in _mixture_grids(p):
        nodes, P = g.nodes(), g.nodes().shape[0]
        for t in (0.0, *rng.uniform(0.0, 2 * math.pi, 2)):
            u, f_all = p.velocities(t, nodes)
            costs = p.costs(t, nodes, 0, u)
            for mg in range(1, 6):
                W = val._mixture_matrix(len(u), p.n + 1, mg)
                want = mixtures_tensordot(W, f_all)
                assert val._mix(W, f_all).tobytes() == want.tobytes()
                assert val._mix(W, costs).tobytes() == mixtures_tensordot(W, costs).tobytes()
                grouped.clear()
                val._backstep(p, p.lam, g.axes(), nodes, float(t), g.dt,
                              val._padded(np.zeros(P)), np.ones(P, dtype=bool), 0, True, mg)
                if val._node_independent(want):
                    want = want[:, :1]
                assert [(v.shape, v.tobytes()) for v in grouped] == [(want.shape, want.tobytes())]


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
    """Record every backstep from now on as ``(built, stored)``: the group
    count of each chunk whose terms it built, and whether the sweep's memo
    holds stored terms after it (False without a memo)."""
    steps = []
    build, backstep = val._terms, val._backstep

    def counting(axes, coords):
        steps[-1][0].append(len(coords[0]))
        return build(axes, coords)

    def recording(*args):
        steps.append(([], False))
        with monkeypatch.context() as m:
            m.setattr(val, "_terms", counting)
            out = backstep(*args)
        memo = args[11] if len(args) > 11 else None
        steps[-1] = (steps[-1][0], bool(memo) and memo["groups"].terms is not None)
        return out

    monkeypatch.setattr(val, "_backstep", recording)
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
    # the first slice builds every chunk's terms without storing them, the
    # second builds and stores them, and the later slices only apply them
    once = [(chunks, False), (chunks, True)] + [([], True)] * 4
    first = val.solve_value(corridor, corridor.lam, g, relaxed=True, mixture_grid=4,
                            horizon=horizon)
    assert steps == once and len(chunks) > 1 and sum(chunks) == distinct
    # nothing outlives a call: a second solve builds them all again
    steps.clear()
    second = val.solve_value(corridor, corridor.lam, g, relaxed=True, mixture_grid=4,
                             horizon=horizon)
    assert steps == once
    assert np.array_equal(first.values, second.values)


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
    # samples are drawn once per time.
    p, calls = _counted_model(hover)
    g = val.grid_for(p, 241, 0.0025)
    for relaxed in (False, True):
        calls.update(f=0, cost=0, samples=0)
        f = val.solve_value(p, p.lam, g, relaxed=relaxed, horizon=0.5)
        assert f.values.shape[0] == 201 and np.isfinite(f.values).any()
        assert calls == {"f": 3, "cost": 3, "samples": 200}
    # one slice per block: one call per slice, and the same field
    monkeypatch.setattr(val, "_FEAS_CHUNK", 1)
    calls.update(f=0, cost=0, samples=0)
    again = val.solve_value(p, p.lam, g, relaxed=True, horizon=0.5)
    assert calls == {"f": 200, "cost": 200, "samples": 200}
    assert again.values.tobytes() == f.values.tobytes()


def test_blocks_end_where_the_samples_change(monkeypatch):
    # sway-1d (time-dependent velocities) with two controls before t = 0.5
    # and three from then on: a block never spans the change, and every
    # field, at every block size, equals the per-candidate reference
    def sampler(t, level):
        return np.array([[-1.0], [1.0]]) if t < 0.5 else np.array([[-1.0], [0.0], [1.0]])

    p, calls = _counted_model(dataclasses.replace(
        sway_problem(), controls=pb.ControlSamples(1, sampler)))
    g = _small_grid(p, 0.0, 1.2, 41)
    horizon = 1.0 + g.dt / 2
    nt = int(round(horizon / g.dt))
    change = int(np.searchsorted(g.t0 + g.dt * np.arange(nt), 0.5))
    for relaxed in (False, True):
        with monkeypatch.context() as m:
            m.setattr(val, "_backstep", _loop_in_sweep)
            ref = val.solve_value(p, p.lam, g, relaxed=relaxed, horizon=horizon)
        assert np.isfinite(ref.values).any() and 0 < change < nt
        for chunk in (val._FEAS_CHUNK, 2 * 41 * 4, 1):
            with monkeypatch.context() as m:
                m.setattr(val, "_FEAS_CHUNK", chunk)
                calls.update(f=0, cost=0, samples=0)
                f = val.solve_value(p, p.lam, g, relaxed=relaxed, horizon=horizon)
            per_block = (max(1, chunk // (3 * 41)), max(1, chunk // (2 * 41)))
            blocks = -(-(nt - change) // per_block[0]) - (-change // per_block[1])
            assert calls == {"f": blocks, "cost": blocks, "samples": nt}
            assert f.values.tobytes() == ref.values.tobytes()


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
    assert not val._node_independent(f_all)
    for relaxed, mg in ((False, 4),) + tuple((True, k) for k in range(1, 6)):
        f = val.solve_value(p, p.lam, g, relaxed=relaxed, mixture_grid=mg, horizon=horizon)
        with monkeypatch.context() as m:
            m.setattr(val, "_backstep", _loop_in_sweep)
            ref = val.solve_value(p, p.lam, g, relaxed=relaxed, mixture_grid=mg,
                                  horizon=horizon)
        assert f.values.tobytes() == ref.values.tobytes()
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
            assert steps == [(chunks, False), (chunks, True)] + [([], True)] * 4
            assert len(chunks) > 1 and again.values.tobytes() == f.values.tobytes()


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
