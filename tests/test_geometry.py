import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feastube import geometry as geo
from feastube import problem as pb
from feastube import trajectory as tj
from feastube.errors import InfeasibleInput, NonFiniteConstraint

import oracles
from util import (affine_constraint, over_times, repair_benchmark_references, simple_problem,
                  unit_velocity, zero_cost)


def test_eval_constraints_moving_wall(moving_wall):
    np.testing.assert_allclose(geo.eval_constraints(moving_wall, 0.0, [0.0]), [-1.0, -2.0])
    np.testing.assert_allclose(geo.eval_constraints(moving_wall, 0.0, [1.0]), [0.0, -3.0])
    assert geo.is_feasible(moving_wall, 0.0, [1.0])


def test_eval_constraints_empty():
    p = simple_problem(unit_velocity, zero_cost)
    assert geo.eval_constraints(p, 0.0, [0.3]).size == 0
    assert geo.is_feasible(p, 0.0, [123.0])


def test_eval_constraints_nonfinite():
    bad = affine_constraint("bad", [1.0], lambda t: np.inf + 0.0 * t)
    p = simple_problem(unit_velocity, zero_cost, constraints=(bad,))
    with pytest.raises(NonFiniteConstraint):
        geo.eval_constraints(p, 0.0, [0.0])


def test_active_set_examples(moving_wall):
    assert sorted(geo.active_set(moving_wall, 0.0, [1.0], 0.1).indices) == [0]
    assert sorted(geo.active_set(moving_wall, 0.0, [0.0], 0.1).indices) == []
    # a huge ball saturates the rule
    rep = geo.active_set(moving_wall, 0.0, [0.0], 10.0)
    assert sorted(rep.indices) == [0, 1]
    assert rep.to_jsonable()["conservative"] is True
    with pytest.raises(ValueError, match=r"^delta must be nonnegative, got delta=-0.1$"):
        geo.active_set(moving_wall, 0.0, [0.0], -0.1)


def test_active_set_monotone_in_delta(moving_wall):
    rng = np.random.default_rng(2)
    for _ in range(40):
        t = float(rng.uniform(0, 2 * math.pi))
        x = rng.uniform(-2.0, 1.0, size=1)
        if not geo.is_feasible(moving_wall, t, x):
            continue
        d1, d2 = sorted(rng.uniform(0.0, 1.5, size=2))
        s1 = geo.active_set(moving_wall, t, x, d1).indices
        s2 = geo.active_set(moving_wall, t, x, d2).indices
        assert s1 <= s2


def test_distance_examples(moving_wall):
    r = geo.distance_to_omega(moving_wall, 0.0, [0.5])
    assert r.distance == 0.0 and r.certified

    r = geo.distance_to_omega(moving_wall, 0.0, [1.3])
    assert r.distance == pytest.approx(0.3, abs=1e-6)
    assert r.witness[0] == pytest.approx(1.0, abs=1e-6)

    r = geo.distance_to_omega(moving_wall, math.pi / 2, [1.5], oracle=True)
    assert r.distance == pytest.approx(0.1, abs=1e-6)
    assert r.witness[0] == pytest.approx(1.4, abs=1e-6)
    assert r.certified


def test_distance_matches_dense_grid_oracle(moving_wall, corridor):
    rng = np.random.default_rng(5)
    for p in (moving_wall, corridor):
        axes = [np.linspace(p.box[d, 0], p.box[d, 1], 201) for d in range(p.n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([m.ravel() for m in mesh])
        step = max(float(a[1] - a[0]) for a in axes)
        for _ in range(12):
            t = float(rng.uniform(0, 2 * math.pi))
            x = p.box[:, 0] + rng.random(p.n) * (p.box[:, 1] - p.box[:, 0])
            got = geo.distance_to_omega(p, t, x).distance
            feas = geo.feasible_mask(p, t, pts)
            want = float(np.min(np.linalg.norm(pts[feas] - x, axis=1)))
            assert abs(got - want) <= step * math.sqrt(p.n) + 1e-9


def test_distance_is_one_lipschitz(moving_wall):
    rng = np.random.default_rng(11)
    for _ in range(40):
        t = float(rng.uniform(0, 2 * math.pi))
        x, y = rng.uniform(-2.4, 1.9, size=(2, 1))
        dx = geo.distance_to_omega(moving_wall, t, x).distance
        dy = geo.distance_to_omega(moving_wall, t, y).distance
        assert abs(dx - dy) <= float(np.abs(x - y)[0]) + 1e-6


def test_distance_zero_iff_feasible(moving_wall):
    rng = np.random.default_rng(4)
    for _ in range(60):
        t = float(rng.uniform(0, 2 * math.pi))
        x = rng.uniform(-2.4, 1.9, size=1)
        d = geo.distance_to_omega(moving_wall, t, x).distance
        assert (d == 0.0) == geo.is_feasible(moving_wall, t, x)


def test_clearance_proxy_lower_bounds_distance(moving_wall):
    # exact for affine constraints: distance to the wall is |h| / |grad|
    assert geo.clearance_proxy(moving_wall, 0.0, [0.5]) == pytest.approx(0.5)
    assert geo.clearance_proxy(moving_wall, 0.0, [-1.9]) == pytest.approx(0.1)


def test_sample_boundary_points(moving_wall, corridor):
    pts = geo.sample_boundary_points(moving_wall, 0.0, n_dirs=2)
    vals = sorted(float(x[0]) for x in pts)
    assert vals[0] == pytest.approx(-2.0, abs=1e-7)
    assert vals[1] == pytest.approx(1.0, abs=1e-7)
    for x in geo.sample_boundary_points(corridor, 0.5, n_dirs=16):
        assert abs(geo.max_violation(corridor, 0.5, x)) <= 1e-6


def test_distance_projection_failed_on_empty_set():
    from feastube.errors import ProjectionFailed

    nowhere = affine_constraint("nowhere", [0.0], lambda t: 10.0 + 0.0 * t)
    p = simple_problem(unit_velocity, zero_cost, constraints=(nowhere,),
                       anchor=lambda t: np.zeros(np.shape(t) + (1,)))
    with pytest.raises(ProjectionFailed):
        geo.distance_to_omega(p, 0.0, [0.0], budget=64)


@settings(max_examples=100, deadline=None)
@given(thr=st.lists(st.floats(-0.5, 1.5) | st.sampled_from([0.0, 0.5, 1.0, 1 / 3]),
                    min_size=1, max_size=6),
       hi=st.sampled_from([1.0, 0.078125, math.pi, 1e-300]),
       iters=st.sampled_from([1, 5, 50, 200]))
def test_bisect_equals_the_run_of_every_level(thr, hi, iters):
    """Stopping at the first level that moves no bracket end changes no
    bracket: the result is the one of all ``iters`` levels, byte for byte.
    A bracket closing on a point at or above ``hi / 8`` stops moving within
    60 levels (53 bits of mantissa and 3 of exponent); one closing on 0
    runs down through the subnormals."""
    thr = hi * np.array(thr)
    calls = []

    def holds(s):
        calls.append(None)
        return s <= thr

    got = geo._bisect(holds, np.zeros(len(thr)), hi, iters)
    want = oracles.bisect_all_levels(lambda s: s <= thr, np.zeros(len(thr)), hi, iters)
    assert got.tobytes() == want.tobytes()
    assert len(calls) <= min(iters, 60 if thr.min() >= hi / 8 else iters)


@pytest.mark.parametrize("name", ["moving_wall", "corridor", "hover", "quadratic"])
def test_nft_constants_equal_the_run_of_every_level(name, request, monkeypatch):
    """The ledger's step cap bisects to the same double as the 200-level run."""
    p = request.getfixturevalue(name)
    cert = request.getfixturevalue({"moving_wall": "mw_cert"}.get(name, f"{name}_cert"))
    for interval in (1.0, 2.0, 8.0):
        got = tj.derive_nft_constants(p, cert, interval)
        with monkeypatch.context() as m:
            m.setattr(geo, "_bisect", oracles.bisect_all_levels)
            assert tj.derive_nft_constants(p, cert, interval) == got


@pytest.mark.parametrize("name", pb.registered_problems())
def test_geometry_matches_scalar_references(name):
    """The geometry layer reproduces, bit for bit, scalar per-node loops."""
    p = pb.get_problem(name)
    rng = np.random.default_rng(sum(map(ord, name)))
    lo, hi = p.box[:, 0], p.box[:, 1]
    times = rng.uniform(0.0, 2 * math.pi, 300)
    pts = lo + rng.random((300, p.n)) * (hi - lo)

    assert np.array_equal(geo.violations_along(p, times, pts),
                          oracles.violations_along_loop(p, times, pts))
    assert np.array_equal(geo.distances_upper_along(p, times, pts),
                          oracles.distances_upper_loop(p, times, pts))
    for t in times[:6]:
        assert np.array_equal(geo.feasible_mask(p, float(t), pts),
                              oracles.feasible_mask_loop(p, float(t), pts))
        for n_dirs in (2, 8, 24):
            got = geo.sample_boundary_points(p, float(t), n_dirs)
            want = oracles.boundary_points_loop(p, float(t), geo._directions(p.n, n_dirs))
            assert len(got) == len(want)
            assert np.array_equal(np.array(got), np.array(want))
        assert want  # 24 rays from the anchor always meet the boundary

    inside = geo.feasible_mask(p, 0.0, pts) & (geo.violations_along(p, times, pts) <= 0)
    want = oracles.clearance_loop(p, times[inside], pts[inside])
    got = np.array([geo.clearance_proxy(p, float(t), x)
                    for t, x in zip(times[inside], pts[inside])])
    assert np.array_equal(got, want)
    assert np.array_equal(geo.clearance_proxy(p, times[inside], pts[inside]), want)

    for t, x in zip(times[:40], pts[:40]):
        if not geo.is_feasible(p, float(t), x):
            a = np.asarray(p.anchor(float(t)), dtype=float)
            y = geo._segment_refine(p, float(t), x, a[None, :])[0]
            assert np.array_equal(y, oracles.segment_refine_loop(p, float(t), x, a))


# Constraint values a reduction must keep exactly: zeros of both signs, so
# that ties come in both orders, the smallest subnormals and magnitudes at
# the top of the double range.  Times scale the values, -0.0 and 0.0
# included.
_EDGE_VALUES = (-0.0, 0.0, 1.0, -1.0, 5e-324, -5e-324, 1e308, -1e308)
_EDGE_TIMES = (1.0, -1.0, 0.5, 0.0, -0.0)


def _coordinate_walls(m, grad_bounds=(1.0, 1.0, 1.0)):
    """``m`` walls on R^max(m, 1), wall i being ``x_i * t``: at t = 1 a point's
    coordinates are its constraint values.  m = 0 is the constraint-free
    problem."""
    def wall(i, gb):
        return pb.ConstraintFunction(
            h=lambda t, x: np.asarray(x, dtype=float)[..., i] * t,
            grad=lambda t, x: over_times(t, np.zeros_like(np.asarray(x, dtype=float))),
            holder_theta=0.5, holder_const=0.0, grad_bound=gb, name=f"x{i}")

    return simple_problem(unit_velocity, zero_cost, n=max(m, 1),
                          constraints=[wall(i, gb) for i, gb in zip(range(m), grad_bounds)])


def _assert_same_bytes(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def _assert_reductions_match(p, t, X):
    """``_worst``, ``violations_along``, ``feasible_mask`` and
    ``clearance_proxy`` equal numpy's trailing-axis reductions byte for byte,
    types included."""
    worst = oracles.worst_trailing_axis(p, t, X)
    _assert_same_bytes(geo._worst(p, t, X), worst)
    _assert_same_bytes(geo.violations_along(p, t, X),
                       oracles.worst_trailing_axis(p, np.asarray(t, dtype=float), X))
    _assert_same_bytes(geo.feasible_mask(p, t, X), worst <= geo.TOL_FEAS)
    _assert_same_bytes(geo.clearance_proxy(p, t, X), oracles.clearance_trailing_axis(p, t, X))


def test_finite_values_whose_sum_overflows_do_not_warn():
    """Every value is finite, though their sum is not: no overflow warning,
    which the suite's settings would raise."""
    p = _coordinate_walls(2)
    for X in (np.array([1e308, 1e308]), np.full((3, 2), -1e308)):
        H = p.constraint_values(1.0, X)
        assert np.array_equal(H, X)


@settings(max_examples=300, deadline=None)
@given(m=st.integers(0, 3),
       grad_bounds=st.lists(st.sampled_from([1.0, 1.5, 3.0]), min_size=3, max_size=3),
       layout=st.sampled_from(["point", "rows", "rows-times", "slices"]),
       size=st.integers(1, 70), slices=st.integers(1, 4), data=st.data())
def test_reductions_equal_the_trailing_axis_reductions(m, grad_bounds, layout, size, slices,
                                                       data):
    """The worst-constraint and clearance reductions equal numpy's max and
    min over the trailing constraint axis byte for byte, so a tie between
    -0.0 and 0.0 keeps numpy's sign (``maxh`` prints it).  Leads: one point,
    N rows (N on both sides of the SIMD width) at one time or at N times,
    and T slices of P points with times of shape (T, 1), as the sweep asks."""
    p = _coordinate_walls(m, grad_bounds)
    n = p.n

    def draw(pool, count):
        return np.array(data.draw(st.lists(st.sampled_from(pool), min_size=count,
                                           max_size=count)), dtype=float)

    pts = draw(_EDGE_VALUES, size * n).reshape(size, n)
    if layout == "point":
        t, X = data.draw(st.sampled_from(_EDGE_TIMES)), pts[0]
    elif layout == "rows":
        t, X = data.draw(st.sampled_from(_EDGE_TIMES)), pts
    elif layout == "rows-times":
        t, X = draw(_EDGE_TIMES, size), pts
    else:
        t, X = draw(_EDGE_TIMES, slices)[:, None], pts[None]
    _assert_reductions_match(p, t, X)
    if layout == "point":
        assert type(geo.clearance_proxy(p, t, X)) is float


@pytest.mark.parametrize("m", [1, 2, 3])
def test_reductions_keep_numpys_sign_of_a_zero_tie(m):
    """Every row of -0.0, 0.0 and -1.0, as one batch and one point at a time.
    numpy's max and min return the later of two tied zeros, where Python's
    ``max(-0.0, 0.0)`` returns the first."""
    p = _coordinate_walls(m)
    rows = np.array(list(itertools.product([-0.0, 0.0, -1.0], repeat=m)))
    _assert_reductions_match(p, 1.0, rows)
    for x in rows:
        _assert_reductions_match(p, 1.0, x)
    if m == 2:
        ties = np.array([[-0.0, 0.0], [0.0, -0.0]])
        assert np.signbit(geo._worst(p, 1.0, ties)).tolist() == [False, True]
        assert np.signbit(geo.clearance_proxy(p, 1.0, ties)).tolist() == [True, False]


def _time_scalar_only(name):
    """A wall that reads ``t`` as a Python scalar, so it cannot take a time vector."""
    def h(t, x):
        return np.asarray(x, dtype=float)[..., 0] - 1.0 - 0.4 * math.sin(t)

    def grad(t, x):
        return over_times(t, np.ones_like(np.asarray(x, dtype=float)))

    return pb.ConstraintFunction(h=h, grad=grad, holder_theta=0.5, holder_const=0.0,
                                 grad_bound=1.0, name=name)


def _first_node_only(name):
    """A wall that evaluates only the first point of a batch."""
    def h(t, x):
        return np.asarray(x, dtype=float).reshape(-1, 1)[0, 0] - 1.0 + 0.0 * np.sum(t)

    def grad(t, x):
        return over_times(t, np.ones_like(np.asarray(x, dtype=float)))

    return pb.ConstraintFunction(h=h, grad=grad, holder_theta=0.5, holder_const=0.0,
                                 grad_bound=1.0, name=name)


@pytest.mark.parametrize("make", [_time_scalar_only, _first_node_only])
def test_kernel_rejects_constraint_without_time_broadcast(make):
    p = simple_problem(unit_velocity, zero_cost, constraints=(make("stiff-wall"),))
    times = np.linspace(0.0, 1.0, 5)
    states = np.full((5, 1), 3.0)
    with pytest.raises(ValueError, match="stiff-wall"):
        geo.violations_along(p, times, states)
    with pytest.raises(ValueError, match="stiff-wall"):
        geo.distances_upper_along(p, times, states)


def test_feasible_mask_names_the_nonfinite_constraint():
    def h(t, x):
        x = np.asarray(x, dtype=float)[..., 0]
        return np.where(x > 1.5, np.inf, x - 1.0) + 0.0 * t

    bad = pb.ConstraintFunction(h=h, grad=lambda t, x: over_times(t, np.ones_like(x)),
                                holder_theta=0.5, holder_const=0.0, grad_bound=1.0,
                                name="cliff")
    p = simple_problem(unit_velocity, zero_cost, constraints=(bad,))
    pts = np.array([[0.0], [1.0], [1.75], [-0.5]])
    msg = r"'cliff' is inf at t=0\.25, x=array\(\[1\.75\]\)"
    with pytest.raises(NonFiniteConstraint, match=msg):
        geo.feasible_mask(p, 0.25, pts)


def test_violations_along_rejects_negative_infinity():
    floor = affine_constraint("abyss", [1.0], lambda t: -np.inf + 0.0 * t)
    p = simple_problem(unit_velocity, zero_cost, constraints=(floor,))
    with pytest.raises(NonFiniteConstraint, match="abyss"):
        geo.violations_along(p, np.zeros(3), np.zeros((3, 1)))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(pb.registered_problems()),
       t=st.floats(-10.0, 10.0),
       u=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
def test_membership_views_agree(name, t, u):
    p = pb.get_problem(name)
    x = p.box[:, 0] - 0.5 + (p.box[:, 1] - p.box[:, 0] + 1.0) * np.asarray(u[: p.n])
    hv = geo.eval_constraints(p, t, x)
    worst = float(hv.max())
    assert worst == geo.max_violation(p, t, x)
    assert (worst <= geo.TOL_FEAS) == geo.is_feasible(p, t, x)
    assert geo.feasible_mask(p, t, x[None, :])[0] == geo.is_feasible(p, t, x)
    assert geo.violations_along(p, [t, t], [x, x]).tolist() == [worst, worst]


def test_distances_upper_along_rejects_infeasible_anchor():
    # wall x <= -0.5 with the anchor at 0: bisecting toward the anchor would
    # stop at x = 0.5 and report 1.0 from x = 1, below the true distance 1.5
    wall = affine_constraint("wall", [1.0], lambda t: 0.5 + 0.0 * np.asarray(t))
    p = simple_problem(unit_velocity, zero_cost, constraints=(wall,))
    with pytest.raises(InfeasibleInput, match=r"anchor infeasible at t=0\.0"):
        geo.distances_upper_along(p, [0.0], [[1.0]])
    with pytest.raises(InfeasibleInput, match=r"anchor infeasible at t=0\.25"):
        geo.distances_upper_along(p, [0.0, 0.25], [[-1.0], [1.0]])


# --- the largest distance, bisected to the end only where it can lie --------------------

def _same_max(p, times, states):
    """``max_distance_upper_along`` is the maximum of
    ``distances_upper_along``, bit for bit; returns it."""
    got = geo.max_distance_upper_along(p, times, states)
    want = geo.distances_upper_along(p, times, states).max()
    assert type(got) is float and np.float64(got).tobytes() == want.tobytes(), (got, want)
    return got


def _near_corner(p, rng, nodes, spread):
    """A path of ``nodes`` points within ``spread`` of a corner of ``p``'s
    box, which lies outside the set, at times within ``6 spread`` of one."""
    lo, hi = p.box[:, 0], p.box[:, 1]
    times = np.full(nodes, rng.uniform(0.0, 2 * math.pi)) + spread * rng.uniform(0.0, 6.0, nodes)
    corner = np.where(rng.random(p.n) < 0.5, lo, hi)
    return times, corner + spread * (rng.random((nodes, p.n)) - 0.5) * (hi - lo)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(pb.registered_problems()), nodes=st.integers(1, 400),
       spread=st.sampled_from([0.0, 0.01, 0.03, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_max_distance_equals_the_largest_distance(name, nodes, spread, seed):
    """Random paths: over the box (``spread`` 1), or near one of its
    corners, where the distances are close (0.01, 0.03) or tie (0)."""
    p = pb.get_problem(name)
    _same_max(p, *_near_corner(p, np.random.default_rng(seed), nodes, spread))


def test_max_distance_at_near_ties(moving_wall, corridor):
    """Paths whose largest distances lie within one bracket of the first
    levels of each other.  Seven of these 60 paths give another maximum if
    each lower bound is taken 2**-11 below its bracket's top, not 2**-8."""
    rng = np.random.default_rng(8)
    for p in (moving_wall, corridor):
        for _ in range(30):
            _same_max(p, *_near_corner(p, rng, 200, 0.03))


def test_max_distance_at_ties_and_single_violations(moving_wall):
    """Every violating node at one distance, a maximum held by several
    nodes among lower ones, one violating node, and feasible paths."""
    times = np.linspace(0.0, 1.0, 200)
    wall = 1.0 + 0.4 * np.sin(times)
    at = np.full(200, times[70])
    assert _same_max(moving_wall, at, np.full((200, 1), wall[70] + 0.3)) > 0.29
    peaks = np.where(np.arange(200) % 7 == 3, wall[70] + 0.2, wall[70] + 0.05)
    assert _same_max(moving_wall, at, peaks[:, None]) > 0.19
    single = wall - 0.1
    single[123] = wall[123] + 0.01
    assert _same_max(moving_wall, times, single[:, None]) > 0.0
    assert _same_max(moving_wall, times, (wall - 0.1)[:, None]) == 0.0
    assert _same_max(moving_wall, times[:1], [[0.0]]) == 0.0


def test_max_distance_on_the_repair_benchmark_references():
    """The 60 references that the ``repair`` benchmark repairs at seed 601."""
    for p, ref in repair_benchmark_references(601):
        assert _same_max(p, ref.times, ref.states) > 5e-3


def test_max_distance_rejects_infeasible_anchor():
    wall = affine_constraint("wall", [1.0], lambda t: 0.5 + 0.0 * np.asarray(t))
    p = simple_problem(unit_velocity, zero_cost, constraints=(wall,))
    for times, states in (([0.0], [[1.0]]), ([0.0, 0.25], [[-1.0], [1.0]])):
        with pytest.raises(InfeasibleInput) as want:
            geo.distances_upper_along(p, times, states)
        with pytest.raises(InfeasibleInput) as got:
            geo.max_distance_upper_along(p, times, states)
        assert str(got.value) == str(want.value)
        assert str(got.value) == f"anchor infeasible at t={times[-1]}"


def _wall_3d():
    """A 3-D slab under a moving wall, closed by two fixed sides: every
    sampled ray leaves it."""
    walls = (affine_constraint("upper", [0.6, 0.0, 0.8], lambda t: -(1.0 + 0.3 * np.sin(t))),
             affine_constraint("lower", [-0.6, 0.0, -0.8], lambda t: -1.0 + 0.0 * t))
    side = affine_constraint("side", [0.0, 1.0, 0.0], lambda t: -1.5 + 0.0 * t)
    back = affine_constraint("back", [0.0, -1.0, 0.0], lambda t: -1.5 + 0.0 * t)
    return simple_problem(unit_velocity, zero_cost, constraints=walls + (side, back), n=3,
                          controls=pb.ControlSamples(3, lambda t, l: np.eye(3)))


@pytest.mark.parametrize("name", pb.registered_problems() + ("wall-3d",))
def test_boundary_samples_match_per_time_loop(name):
    """One batched bisection over every (time, ray) row reproduces the
    per-time sampler bit for bit, rows in time-major order."""
    p = _wall_3d() if name == "wall-3d" else pb.get_problem(name)
    times = np.random.default_rng(5).uniform(0.0, 2 * math.pi, 25)
    for n_dirs in (1, 2, 8, 24):
        ts, X = geo.boundary_samples(p, times, n_dirs)
        want = [oracles.boundary_points_per_time(p, float(t), n_dirs) for t in times]
        assert np.array_equal(ts, np.repeat(times, [len(w) for w in want]))
        assert np.array_equal(X, np.array([x for w in want for x in w]).reshape(-1, p.n))
        for t, w in zip(times[:3], want):
            got = geo.sample_boundary_points(p, float(t), n_dirs)
            assert len(got) == len(w) and all(map(np.array_equal, got, w))


@pytest.mark.parametrize("n_dirs, rays", [(1, 12 + 6), (24, 24 + 6)])
def test_boundary_samples_ray_count_in_3d(n_dirs, rays):
    # n >= 3: max(n_dirs, 4n) random directions plus the 2n axis directions
    ts, X = geo.boundary_samples(_wall_3d(), [0.0, 1.0], n_dirs)
    assert ts.tolist() == [0.0] * rays + [1.0] * rays


def test_boundary_samples_name_first_infeasible_anchor_time():
    wall = affine_constraint("wall", [1.0], lambda t: np.sin(t) - 0.5)
    p = simple_problem(unit_velocity, zero_cost, constraints=(wall,))
    with pytest.raises(InfeasibleInput, match=r"anchor infeasible at t=1\.0$"):
        geo.boundary_samples(p, [0.0, 1.0, 2.0, 3.0], 2)
    ts, X = geo.boundary_samples(p, [], 2)
    assert ts.shape == (0,) and X.shape == (0, 1)
