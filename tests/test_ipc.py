import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest

from feastube import geometry as geo
from feastube import ipc
from feastube import problem as pb
from feastube import simplex
from feastube.errors import BoundarySamplingFailed, LpFailure, NoFeasibleConstants
from feastube.simplex import solve_matrix_game

import oracles
from oracles import game_value_enum, game_value_grid
from util import (
    affine_constraint,
    corner_problem,
    credit_problem,
    over_times,
    simple_problem,
    sway_problem,
    sway_walls,
    two_wall_1d,
    unit_velocity,
    zero_cost,
)


# --- LP / matrix games --------------------------------------------------------

def test_matrix_game_known_value():
    # matching pennies: value 0 at the even mixture
    v, alpha = solve_matrix_game([[1.0, -1.0], [-1.0, 1.0]])
    assert v == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(alpha, [0.5, 0.5], atol=1e-12)


def test_matrix_game_vs_enumeration_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        Q = rng.uniform(-2, 2, size=(m, n))
        v_lp, alpha = solve_matrix_game(Q)
        v_oracle = game_value_enum(Q)
        assert abs(v_lp - v_oracle) <= 1e-9
        # the returned mixture achieves the returned value
        assert float((Q @ alpha).min()) >= v_lp - 1e-9


def test_matrix_game_dominates_simplex_grid():
    rng = np.random.default_rng(7)
    for _ in range(20):
        Q = rng.uniform(-1, 1, size=(3, 4))
        v_lp, _ = solve_matrix_game(Q)
        assert v_lp >= game_value_grid(Q, resolution=16) - 1e-12


def _uniform_game(rng):
    return rng.integers(-50_000, 50_001, (3, 4)) / 1e4      # [-5, 5] in steps of 1e-4


def _sparse_game(rng):
    """40% zeros, 30% small entries of 1e-4 to 3e-2, the rest up to 5: the
    ties at 0 that once misled the ratio test's leaving-row rule."""
    big = rng.integers(0, 50_001, (3, 4)) / 1e4
    small = rng.integers(1, 301, (3, 4)) / 1e4
    u = rng.random((3, 4))
    return np.where(u < 0.4, 0.0, np.where(u < 0.7, small, big))


@pytest.mark.parametrize("draw", [_uniform_game, _sparse_game], ids=["uniform", "sparse"])
def test_matrix_game_value_on_seeded_games(draw):
    rng = np.random.default_rng(16)
    for _ in range(1000):
        Q = draw(rng)
        r, alpha = solve_matrix_game(Q)
        exact = game_value_enum(Q)
        assert abs(r - exact) <= 1e-9
        assert float((Q @ alpha).min()) >= exact - 1e-9
        assert r <= exact + 1e-12


@pytest.mark.parametrize("Q, r, alpha", [
    # the six distinct margin games the benchmark workloads solve
    ([[1.0, 0.0, -1.0]], 1.0, [1, 0, 0]),
    ([[-1.0, 0.0, 1.0]], 1.0, [0, 0, 1]),
    ([[1.0, 0.0, -1.0] * 3], 1.0, [1] + [0] * 8),
    ([[-1.0, 0.0, 1.0] * 3], 1.0, [0, 0, 1] + [0] * 6),
    ([[1.0, -1.0]], 1.0, [1, 0]),
    ([[-1.0, 1.0]], 1.0, [0, 1]),
])
def test_matrix_game_pins_benchmark_games(Q, r, alpha):
    got_r, got_alpha = solve_matrix_game(Q)
    assert got_r == r
    assert got_alpha.tolist() == alpha


def test_matrix_game_gap_names_shape(monkeypatch):
    monkeypatch.setattr(simplex, "_run", lambda *args: None)
    with pytest.raises(LpFailure, match=r"shape 2x3: duality gap inf exceeds 2e-09"):
        solve_matrix_game([[1.0, 2.0, 0.0], [0.0, -1.0, 1.5]])


# --- inward margins -------------------------------------------------------------

def test_margin_at_wall(moving_wall):
    mr = ipc.inward_margin(moving_wall, 0.0, [1.0], delta=0.1)
    assert mr.r == pytest.approx(1.0, abs=1e-12)
    assert mr.v[0] == pytest.approx(-1.0, abs=1e-12)
    # the mixture picks u = -1 (first of the level-0 samples)
    np.testing.assert_allclose(mr.alpha, [1.0, 0.0, 0.0], atol=1e-12)


def test_margin_interior_sentinel(moving_wall):
    mr = ipc.inward_margin(moving_wall, 0.0, [0.0], delta=0.1)
    assert math.isinf(mr.r)
    assert mr.active == ()


def test_margin_thin_corridor_mixture():
    p = two_wall_1d(width=0.005)
    mr = ipc.inward_margin(p, 0.0, [0.0], delta=0.1)
    assert mr.r == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(mr.alpha, [0.5, 0.5], atol=1e-12)
    assert mr.v[0] == pytest.approx(0.0, abs=1e-12)


def test_margin_monotone_in_refinement(moving_wall):
    rng = np.random.default_rng(3)
    for _ in range(10):
        t = float(rng.uniform(0, 2 * math.pi))
        for x in geo.sample_boundary_points(moving_wall, t, n_dirs=2):
            r0 = ipc.inward_margin(moving_wall, t, x, 0.1, level=0).r
            r1 = ipc.inward_margin(moving_wall, t, x, 0.1, level=1).r
            assert r1 >= r0 - 1e-12


def test_margin_scaling_covariance():
    base = pb.get_problem("moving-wall-1d")
    for s in (0.5, 2.0, 3.7):
        def scaled_f(t, x, u, s=s):
            return s * base.f(t, x, u)

        q = pb.ProblemDefinition(
            name="scaled", n=1, f=scaled_f, running_cost=base.running_cost,
            lam=base.lam, controls=base.controls, constraints=base.constraints,
            data=base.data, default_control=base.default_control,
            anchor=base.anchor, box=base.box,
        )
        mr0 = ipc.inward_margin(base, 0.0, [1.0], 0.1)
        mr1 = ipc.inward_margin(q, 0.0, [1.0], 0.1)
        assert mr1.r == pytest.approx(s * mr0.r, rel=1e-12)
        np.testing.assert_allclose(mr1.alpha, mr0.alpha, atol=1e-12)


# --- verification ----------------------------------------------------------------

def test_verify_ipc_moving_wall(moving_wall):
    ver = ipc.verify_ipc(moving_wall, (0.0, 2 * math.pi), r_min=0.9,
                         delta=0.1, n_time=100, n_dirs=2)
    assert ver.ok
    assert ver.certificate.r == pytest.approx(1.0, abs=1e-9)
    assert ver.n_samples == 200
    ver.certificate.validate(moving_wall)


def test_verify_ipc_pinched_corridor():
    p = pb.get_problem("corridor-2d", {"width": 0.01})
    ver = ipc.verify_ipc(p, (0.0, 2 * math.pi), r_min=0.5, delta=0.1,
                         n_time=10, n_dirs=8)
    assert not ver.ok
    assert ver.certificate is None
    assert ver.worst["r"] <= 1e-9


def test_verify_ipc_unreachable_margin(moving_wall):
    ver = ipc.verify_ipc(moving_wall, (0.0, 2 * math.pi), r_min=2.0,
                         delta=0.1, n_time=20, n_dirs=2)
    assert not ver.ok
    assert ver.worst["r"] == pytest.approx(1.0, abs=1e-9)


def test_verify_ipc_needs_constraints():
    p = simple_problem(unit_velocity, zero_cost)
    with pytest.raises(BoundarySamplingFailed):
        ipc.verify_ipc(p, (0.0, 1.0), r_min=0.5)


# --- differential: batched sampling and memoised games against the loops -------

def _same_verification(p, horizon, **kw):
    got = ipc.verify_ipc(p, horizon, **kw)
    want = oracles.verify_ipc_per_time(p, horizon, **kw)
    assert json.dumps(got.to_jsonable()) == json.dumps(want.to_jsonable())
    return got


# CLI defaults of ``ipc verify``
_CLI = dict(r_min=0.5, delta=0.5, n_time=40, n_dirs=24)


@pytest.mark.parametrize("horizon", [(0.0, 2 * math.pi), (2.5, 6.5)])
@pytest.mark.parametrize("name", pb.registered_problems())
def test_verify_ipc_matches_per_time_reference(name, horizon):
    assert _same_verification(pb.get_problem(name), horizon, **_CLI).ok


def test_verify_ipc_matches_reference_on_pinched_corridor():
    p = pb.get_problem("corridor-2d", {"width": 0.01})
    assert not _same_verification(p, (0.0, 2 * math.pi), **_CLI).ok
    assert not _same_verification(p, (0.0, 2 * math.pi), r_min=0.5, delta=0.1,
                                  n_time=10, n_dirs=8).ok


def test_verify_ipc_matches_reference_on_state_dependent_games():
    ver = _same_verification(sway_walls(), (0.0, 2 * math.pi), r_min=0.05, delta=0.5,
                             n_time=40, n_dirs=24, max_witnesses=40)
    assert ver.ok
    speeds = {tuple(w["v"]) for w in ver.to_jsonable()["witnesses"]}
    assert len(speeds) > 30


@pytest.mark.parametrize("name", ["moving-wall-1d", "corridor-2d"])
def test_verify_ipc_matches_reference_at_level_1(name):
    _same_verification(pb.get_problem(name), (0.0, 2 * math.pi), level=1, **_CLI)


def _tilted_corridor(angle=0.7):
    """corridor-2d's moving walls turned by ``angle``: their normals lie off
    the axes, and the shipped ``x @ c`` rounds a row differently in a batch."""
    c = [math.cos(angle), math.sin(angle)]
    walls = (pb._affine_constraint("upper", c, lambda t: -(0.5 + 0.2 * np.sin(t))),
             pb._affine_constraint("lower", [-c[0], -c[1]], lambda t: -0.5 + 0.2 * np.sin(t)))
    return dataclasses.replace(pb.get_problem("corridor-2d"), constraints=walls,
                               name="tilted-corridor-2d")


_MORE_WALLS = {"corner-2d": corner_problem, "credit-3d": credit_problem,
               "tilted-corridor-2d": _tilted_corridor}


@pytest.mark.parametrize("r_min", [0.5, 0.1])
@pytest.mark.parametrize("n_time", [40, 1])
@pytest.mark.parametrize("name", list(_MORE_WALLS))
def test_verify_ipc_matches_reference_on_more_walls(name, n_time, r_min):
    _same_verification(_MORE_WALLS[name](), (0.0, 2 * math.pi),
                       **dict(_CLI, n_time=n_time, r_min=r_min))


def test_tilted_walls_round_apart_in_a_batch():
    # the case above is exercised: some boundary rows of a sampled time have
    # constraint values in the batch that differ from the row's own
    p = _tilted_corridor()
    ts, X = geo.boundary_samples(p, np.linspace(0.0, 2 * math.pi, 40), 24)
    t = float(ts[0])
    rows = X[ts == ts[0]]
    alone = np.array([p.constraint_values(t, x) for x in rows])
    assert p.constraint_values(t, rows).tobytes() != alone.tobytes()


@pytest.mark.parametrize("name", pb.registered_problems())
def test_verify_ipc_matches_reference_at_one_time(name):
    _same_verification(pb.get_problem(name), (2.5, 6.5), **dict(_CLI, n_time=1))


def _model_calls(p, monkeypatch, run):
    """Calls of ``velocities``, ``constraint_values`` and each constraint's
    ``grad`` that ``run(q)`` makes outside ``boundary_samples``, where ``q``
    is ``p`` with counted gradients."""
    calls, sampling = Counter(), [False]

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += not sampling[0]
            return fn(*args, **kwargs)
        return call

    def sample(*args, **kwargs):
        sampling[0] = True
        try:
            return geo.boundary_samples(*args, **kwargs)
        finally:
            sampling[0] = False

    q = dataclasses.replace(p, constraints=tuple(
        dataclasses.replace(c, grad=counted(f"grad {i}", c.grad))
        for i, c in enumerate(p.constraints)))
    with monkeypatch.context() as m:
        for name in ("velocities", "constraint_values"):
            m.setattr(pb.ProblemDefinition, name,
                      counted(name, getattr(pb.ProblemDefinition, name)))
        m.setattr(ipc, "boundary_samples", sample)
        run(q)
    return calls


@pytest.mark.parametrize("name", pb.registered_problems() + tuple(_MORE_WALLS))
def test_verify_ipc_calls_the_model_once_per_sampled_time(name, monkeypatch):
    p = _MORE_WALLS[name]() if name in _MORE_WALLS else pb.get_problem(name)
    n_time = len(np.unique(geo.boundary_samples(p, np.linspace(0.0, 2 * math.pi, 40), 24)[0]))
    # an r_min no margin reaches: no certificate, whose validation checks
    # its witnesses one by one
    calls = _model_calls(p, monkeypatch, lambda q: ipc.verify_ipc(
        q, (0.0, 2 * math.pi), **dict(_CLI, r_min=1e3)))
    want = {"velocities": n_time, "constraint_values": n_time}
    want.update((f"grad {i}", n_time) for i in range(p.m))
    assert n_time == 40 and dict(calls) == want


def test_margin_results_share_no_alpha(moving_wall):
    want = oracles.inward_margin_unmemoised(moving_wall, 0.0, [1.0], 0.1)
    games = {}
    first = ipc.inward_margin(moving_wall, 0.0, [1.0], 0.1, games=games)
    first.alpha[:] = 7.0
    second = ipc.inward_margin(moving_wall, 0.0, [1.0], 0.1, games=games)
    assert len(games) == 1
    assert second.alpha is not first.alpha
    assert np.array_equal(second.alpha, want.alpha)
    assert (second.r, second.active) == (want.r, want.active)
    assert np.array_equal(second.v, want.v)


@pytest.mark.parametrize("name, kw, message", [
    ("moving-wall-1d", {"n_time": 0}, "n_time=0"),
    ("moving-wall-1d", {"n_time": -3}, "n_time=-3"),
    ("corridor-2d", {"n_dirs": 0}, "n_dirs=0"),
    ("moving-wall-1d", {"n_dirs": -2}, "n_dirs=-2"),
    ("moving-wall-1d", {"delta": -1.0}, "delta=-1.0"),
    ("moving-wall-1d", {"delta": 0.0}, "delta=0.0"),
    ("moving-wall-1d", {"delta": math.nan}, "delta=nan"),
])
def test_verify_ipc_names_bad_sampling_parameter(name, kw, message):
    # a plain ValueError from the input check, not a failure further down
    with pytest.raises(ValueError, match=message) as err:
        ipc.verify_ipc(pb.get_problem(name), (0.0, 2 * math.pi), r_min=0.5, **kw)
    assert err.type is ValueError


def _counting_lps(monkeypatch):
    games = []

    def counted(Q):
        games.append(np.asarray(Q).tobytes())
        return solve_matrix_game(Q)

    monkeypatch.setattr(ipc, "solve_matrix_game", counted)
    return games


def test_verify_ipc_solves_each_distinct_game_once(monkeypatch):
    games = _counting_lps(monkeypatch)
    for name in pb.registered_problems():
        p = pb.get_problem(name)
        counts = []
        for _ in range(2):
            games.clear()
            ipc.verify_ipc(p, (0.0, 2 * math.pi), **_CLI)
            counts.append(len(games))
            # up to 24 x 40 boundary points at these settings, but f = u makes
            # a game depend on the active set only
            assert 0 < len(games) == len(set(games)) <= 6
        # the memo lives for one call: a repeat solves the same games again
        assert counts[0] == counts[1]


# --- synthesized constants --------------------------------------------------------

# --- synthesized constants --------------------------------------------------------

def test_synthesize_moving_wall(moving_wall):
    eps, eta = ipc.synthesize_ipc_constants(moving_wall, 1.0, 0.5)
    assert eps == pytest.approx(0.125)          # r / (8 L)
    assert eta == pytest.approx(0.328125)       # delta - eps (M + r/4L + eps)


def test_synthesize_eps_monotone_and_vanishing_in_r(moving_wall):
    prev = 0.0
    for r in (1e-4, 1e-3, 1e-2, 0.1, 1.0):
        eps, eta = ipc.synthesize_ipc_constants(moving_wall, r, 0.5)
        assert eps >= prev - 1e-15
        assert 0 < eta <= 0.5
        prev = eps
    eps, _ = ipc.synthesize_ipc_constants(moving_wall, 1e-9, 0.5)
    assert eps < 1e-9


def test_synthesize_both_vanish_with_curvature():
    # with a nonzero Hoelder constant both radii scale down with the margin
    def h(t, x):
        x = np.asarray(x, dtype=float)
        return x[..., 0] ** 2 - 1.0 + 0.0 * t

    def grad(t, x):
        x = np.asarray(x, dtype=float)
        g = np.zeros_like(x)
        g[..., 0] = 2.0 * x[..., 0]
        return over_times(t, g)

    cons = pb.ConstraintFunction(h=h, grad=grad, holder_theta=0.9,
                                 holder_const=4.0, grad_bound=4.0)
    p = simple_problem(unit_velocity, zero_cost, constraints=(cons,))
    pairs = [ipc.synthesize_ipc_constants(p, r, 0.5) for r in (1.0, 0.1, 0.01, 1e-4)]
    for (e_hi, n_hi), (e_lo, n_lo) in zip(pairs, pairs[1:]):
        assert e_lo <= e_hi + 1e-15 and n_lo <= n_hi + 1e-15
    assert pairs[-1][0] < 1e-5 and pairs[-1][1] < 1e-3


def test_synthesize_infeasible_delta(moving_wall):
    with pytest.raises(NoFeasibleConstants):
        ipc.synthesize_ipc_constants(moving_wall, 1.0, 0.0)
    with pytest.raises(NoFeasibleConstants):
        ipc.synthesize_ipc_constants(moving_wall, 0.0, 0.5)


def _caps(p, r, delta):
    L = max(c.grad_bound for c in p.constraints)
    M = p.data.M
    phi = p.data.phi.sup()
    kh = max(c.holder_const for c in p.constraints)
    theta = min(c.holder_theta for c in p.constraints)
    eta_cap = math.inf
    if phi > 0:
        eta_cap = r / (4 * phi * L)
    if kh > 0 and M > 0:
        eta_cap = min(eta_cap, (r / (4 * kh * M)) ** (1 / theta))
    eps_cap = r / (8 * L)
    if kh > 0:
        eps_cap = min(eps_cap, (r / 8) / (kh * (M + r / (2 * L))))
    cap2 = math.inf
    if kh > 0:
        cap2 = (r / 4) / (kh * (M + r / (4 * L) + eps_cap) ** 2)
    return eta_cap, eps_cap, cap2, M + r / (4 * L)


@pytest.mark.parametrize("name", ["moving-wall-1d", "corridor-2d", "hover-1d"])
@pytest.mark.parametrize("delta", [0.05, 0.2, 0.5, 1.0])
@pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
def test_synthesized_constants_satisfy_all_inequalities(name, delta, r):
    p = pb.get_problem(name)
    eps, eta = ipc.synthesize_ipc_constants(p, r, delta)
    eta_cap, eps_cap, cap2, ball = _caps(p, r, delta)
    assert 0 < eta <= eta_cap * (1 + 1e-12)
    assert 0 < eps <= eps_cap * (1 + 1e-12)
    assert eps <= cap2 * (1 + 1e-12)
    assert eta + eps * (ball + eps) <= delta * (1 + 1e-12)


def test_constants_with_holder_curvature():
    # a curved constraint exercises the Hoelder branches of the caps
    def h(t, x):
        x = np.asarray(x, dtype=float)
        return x[..., 0] ** 2 - 1.0 + 0.0 * t

    def grad(t, x):
        x = np.asarray(x, dtype=float)
        g = np.zeros_like(x)
        g[..., 0] = 2.0 * x[..., 0]
        return over_times(t, g)

    cons = pb.ConstraintFunction(h=h, grad=grad, holder_theta=0.9,
                                 holder_const=4.0, grad_bound=4.0)
    p = simple_problem(unit_velocity, zero_cost, constraints=(cons,))
    eps, eta = ipc.synthesize_ipc_constants(p, 0.5, 0.4)
    eta_cap, eps_cap, cap2, ball = _caps(p, 0.5, 0.4)
    assert 0 < eps <= min(eps_cap, cap2) * (1 + 1e-12)
    assert 0 < eta <= min(eta_cap, 0.4 - eps * (ball + eps)) * (1 + 1e-12)


from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays


@settings(max_examples=40, deadline=None)
@given(Q=arrays(np.float64, (3, 4),
                elements=st.floats(-5, 5).map(lambda v: round(v, 4))))
# a ratio test that pivoted on cancellation noise (1.5e-11, 1.4e-9 beside
# 1.9e3) raised "LP unbounded" on the first, gave a value 0.0066 too high on
# the second and one 4.9e-6 too low on the third
@example(Q=np.array([[0.0, 1.0, 0.0, 0.0039], [4.7812, 0.0312, 0.0, 4.5],
                     [2.0, 0.0, 0.0078, 0.0]]))
@example(Q=np.array([[0.0, 0.0, 1.0, 0.0], [0.0039, 0.0312, 0.0, 1.0],
                     [4.5, 0.0, 0.0156, 0.0]]))
@example(Q=np.array([[0.001, 0.0, 1.8594, 0.0], [5.0, 0.0, 0.001, 0.0],
                     [1.0, 0.0, 0.001, 0.0]]))
def test_matrix_game_value_property(Q):
    # entries at 1e-4 granularity: payoffs at the float noise floor are out
    # of scope for the margin games this solver serves
    v_lp, alpha = solve_matrix_game(Q)
    assert abs(v_lp - game_value_enum(Q)) <= 1e-9
    assert float((Q @ alpha).min()) >= v_lp - 1e-9
    assert v_lp <= game_value_enum(Q) + 1e-12


_CIRCLE = np.column_stack([np.cos(np.arange(8) * math.pi / 4), np.sin(np.arange(8) * math.pi / 4)])


@st.composite
def _walled_problems(draw):
    """Walls ``c.x <= a + b sin t`` in 1-D or 2-D under ``f = u`` or ``sway``."""
    n = draw(st.sampled_from([1, 2]))
    walls = []
    for i in range(draw(st.integers(1, 3))):
        turn, size = draw(st.floats(0, 2 * math.pi)), draw(st.floats(0.1, 1))
        c = size * (np.array([math.copysign(1.0, math.pi - turn)]) if n == 1
                    else np.array([math.cos(turn), math.sin(turn)]))
        a, b = draw(st.floats(-0.2, 1.5)), draw(st.floats(-0.8, 0.8))
        walls.append(affine_constraint(f"wall{i}", c, lambda t, a=a, b=b: -(a + b * np.sin(t))))
    controls = None
    if n == 2:
        controls = pb.ControlSamples(2, lambda t, l: _CIRCLE)
    f = draw(st.sampled_from([unit_velocity, sway_problem().f]))
    return simple_problem(f, zero_cost, constraints=walls, n=n, controls=controls, M=3.0)


def _outcome(verify, p, horizon, **kw):
    try:
        return json.dumps(verify(p, horizon, **kw).to_jsonable())
    except Exception as exc:  # the error type is the outcome to compare
        return type(exc)


def _one_wall_2d(turn, size, a, b):
    c = size * np.array([math.cos(turn), math.sin(turn)])
    wall = affine_constraint("wall0", c, lambda t: -(a + b * np.sin(t)))
    return simple_problem(unit_velocity, zero_cost, constraints=[wall], n=2, M=3.0,
                          controls=pb.ControlSamples(2, lambda t, l: _CIRCLE))


# one wall whose worst witness came out a last bit apart between the batched
# sampler and the per-time reference while the wall was a BLAS product
@example(p=_one_wall_2d(4.76095074766721, 0.5476804259388571, 0.6998306723345096,
                        0.45725712114209194),
         t0=0.0, length=0.0, r_min=1.0, delta=1.0, n_time=2, n_dirs=3)
@settings(max_examples=40, deadline=None)
@given(p=_walled_problems(), t0=st.floats(0, 2 * math.pi), length=st.floats(0, 3),
       r_min=st.floats(0.01, 1), delta=st.floats(0.01, 1),
       n_time=st.integers(1, 12), n_dirs=st.integers(1, 12))
def test_verify_ipc_matches_reference_on_random_walls(p, t0, length, r_min, delta,
                                                      n_time, n_dirs):
    kw = dict(r_min=r_min, delta=delta, n_time=n_time, n_dirs=n_dirs)
    horizon = (t0, t0 + length)
    assert (_outcome(ipc.verify_ipc, p, horizon, **kw)
            == _outcome(oracles.verify_ipc_per_time, p, horizon, **kw))
