import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feastube import geometry as geo
from feastube import ipc
from feastube import problem as pb
from feastube import trajectory as tj
from feastube import value as val
from feastube.errors import (
    EmptyControlSet,
    InvalidOverrideValue,
    UnknownOverrideKey,
    UnknownProblem,
    UnsupportedModulusForm,
)

from oracles import verify_data_assumptions_loop
from util import (
    _affine,
    constant_cost_problem,
    drift_problem,
    over_times,
    simple_problem,
    steady_sway_problem,
    sway_problem,
    switching_problem,
    two_wall_1d,
    unit_velocity,
    x2u_problem,
    zero_cost,
)


# --- registry ---------------------------------------------------------------

def test_registry_builtin_moving_wall():
    p = pb.get_problem("moving-wall-1d")
    assert p.n == 1
    assert p.lam == 2.0
    assert p.m == 2
    # f = u, wall at 1 + 0.4 sin t, floor at -2
    assert float(p.f(0.3, np.array([0.2]), np.array([0.7]))[0]) == pytest.approx(0.7)
    assert float(p.constraints[0].h(0.0, np.array([0.0]))) == pytest.approx(-1.0)
    assert float(p.constraints[1].h(0.0, np.array([0.0]))) == pytest.approx(-2.0)


def test_registry_override_lambda():
    p = pb.get_problem("moving-wall-1d", {"lambda": 5})
    assert p.lam == 5.0


def test_registry_override_string_form():
    p = pb.get_problem("corridor-2d", ["width=0.25"])
    assert float(p.constraints[0].h(0.0, np.array([0.0, 0.125]))) == pytest.approx(0.0)


def test_registry_errors():
    with pytest.raises(UnknownProblem):
        pb.get_problem("no-such")
    with pytest.raises(UnknownOverrideKey):
        pb.get_problem("moving-wall-1d", {"wat": 1.0})
    with pytest.raises(InvalidOverrideValue):
        pb.get_problem("moving-wall-1d", {"lambda": -2.0})
    with pytest.raises(InvalidOverrideValue):
        pb.get_problem("moving-wall-1d", {"lambda": "abc"})


def test_registry_determinism():
    a = pb.get_problem("moving-wall-1d")
    b = pb.get_problem("moving-wall-1d")
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = float(rng.uniform(0, 7))
        x = rng.uniform(-2, 2, size=1)
        u = rng.uniform(-1, 1, size=1)
        assert np.array_equal(a.f(t, x, u), b.f(t, x, u))
        assert np.array_equal(a.running_cost(t, x, u), b.running_cost(t, x, u))
        for ca, cb in zip(a.constraints, b.constraints):
            assert float(ca.h(t, x)) == float(cb.h(t, x))


def test_control_samples_nested_refinement():
    p = pb.get_problem("moving-wall-1d")
    for level in range(3):
        coarse = p.controls.at(0.0, level)[:, 0]
        fine = p.controls.at(0.0, level + 1)[:, 0]
        assert all(any(abs(c - f) < 1e-12 for f in fine) for c in coarse)


@pytest.mark.parametrize("name", pb.registered_problems())
def test_control_samples_are_one_array(name):
    """Each registered sampler returns one read-only array whatever the
    time, so the projection finds the steps that share samples by identity
    alone."""
    p = pb.get_problem(name)
    u = p.controls.at(0.1)
    assert p.controls.at(2.3) is u
    assert not u.flags.writeable


def _sampler(kind, breaks):
    """Samples that change at each time of ``breaks``, by ``kind``: one
    cached array that never changes; fresh arrays with the same bytes; the
    values' signs flip (a zero's too); the row count alternates 2 and 3."""
    cached = np.array([[0.0], [1.0]])

    def sampler(t, level):
        piece = sum(t >= b for b in breaks)
        if kind == "cached":
            return cached
        if kind == "fresh":
            return cached.copy()
        if kind == "values":
            return cached * (-1.0) ** piece
        return np.linspace(0.0, 1.0, 2 + piece % 2)[:, None]

    return sampler


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["cached", "fresh", "values", "shape"]),
       breaks=st.lists(st.floats(0.0, 1.0), max_size=3),
       times=st.lists(st.floats(0.0, 1.0), max_size=12),
       u_time=st.floats(0.0, 1.0), level=st.integers(0, 2))
def test_shared_samples_equal_a_per_time_loop(kind, breaks, times, u_time, level):
    """``ControlSamples.shared`` counts the leading times whose samples have
    the bytes of ``u``, as one comparison per time does; it returns the
    samples of the first time that does not, and draws no sample after it."""
    drawn = []
    sampler = _sampler(kind, breaks)
    controls = pb.ControlSamples(1, lambda t, lv: drawn.append(t) or sampler(t, lv))
    u = controls.at(u_time, level)
    at = [controls.at(t, level) for t in times]
    same = [v.shape == u.shape and v.tobytes() == u.tobytes() for v in at]
    want = same.index(False) if False in same else len(times)
    drawn.clear()
    q, nxt = controls.shared(u, times, level)
    assert q == want and drawn == times[:want + 1]
    if want == len(times):
        assert nxt is None
    else:
        assert nxt.shape == at[want].shape and nxt.tobytes() == at[want].tobytes()


def test_shared_checks_only_a_draw_that_is_not_u(monkeypatch):
    """``ControlSamples.shared`` checks a draw only when it is not ``u``
    itself, which ``at`` has checked; a bad draw raises what ``at`` raises
    at that time."""
    cached = np.array([[0.0], [1.0]])
    bad = {0.6: np.empty((0, 1)), 0.8: np.zeros((2, 2))}
    controls = pb.ControlSamples(1, lambda t, level: bad.get(t, cached))
    u = controls.at(0.0, 0)
    checked, check = [], pb.ControlSamples._checked
    monkeypatch.setattr(pb.ControlSamples, "_checked",
                        lambda self, v, t, level: checked.append(t) or check(self, v, t, level))
    assert controls.shared(u, [0.1, 0.2, 0.3], 0) == (3, None) and checked == []
    for t, err in ((0.6, EmptyControlSet), (0.8, ValueError)):
        with pytest.raises(err) as want:
            controls.at(t, 0)
        with pytest.raises(err) as got:
            controls.shared(u, [0.1, t, 0.2], 0)
        assert str(got.value) == str(want.value)
    fresh = pb.ControlSamples(1, lambda t, level: [[0.0], [1.0]] if t < 0.5 else [[1.0]])
    checked.clear()
    assert fresh.shared(fresh.at(0.0, 0), [0.1, 0.2], 0) == (2, None) and checked == [0.0, 0.1, 0.2]
    q, nxt = fresh.shared(fresh.at(0.0, 0), [0.1, 0.7], 0)
    assert q == 1 and nxt.tobytes() == fresh.at(0.7, 0).tobytes()


def test_constraint_gradient_matches_finite_difference():
    p = pb.get_problem("moving-wall-1d")
    step = 1e-5
    for t in (0.0, 1.3):
        for x0 in (-1.5, 0.2, 0.9):
            x = np.array([x0])
            for c in p.constraints:
                fd = (c.h(t, x + step) - c.h(t, x - step)) / (2 * step)
                assert abs(float(fd) - float(c.grad(t, x)[0])) <= 10 * step ** 2 + 1e-9


def test_constraint_sampled_regularity_bounds():
    p = pb.get_problem("corridor-2d")
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2, 2, size=(30, 2))
    for c in p.constraints:
        grads = np.asarray(c.grad(0.5, pts))
        assert np.all(np.linalg.norm(grads, axis=-1) <= c.grad_bound + 1e-12)
        for a, b in zip(pts[:-1], pts[1:]):
            num = np.linalg.norm(np.asarray(c.grad(0.5, a)) - np.asarray(c.grad(0.5, b)))
            assert num <= c.holder_const * np.linalg.norm(a - b) ** c.holder_theta + 1e-12


# --- moduli -------------------------------------------------------------------

def test_theta_modulus_constant():
    m = pb.Modulus.constant(2.0)
    assert m.theta(0.5) == pytest.approx(1.0)
    assert m.theta(0.0) == 0.0


def test_theta_modulus_piecewise_prefers_largest_levels():
    m = pb.Modulus.piecewise([0.0, 1.0], [3.0, 1.0])
    assert m.theta(0.5) == pytest.approx(1.5)
    assert m.theta(2.0) == pytest.approx(3.0 + 1.0)


def test_theta_modulus_rejects_other_forms():
    data = pb.get_problem("moving-wall-1d").data
    with pytest.raises(UnsupportedModulusForm, match="phi must be a Modulus"):
        dataclasses.replace(data, phi=lambda t: t)


def test_modulus_integral_and_value():
    m = pb.Modulus.piecewise([0.0, 2.0], [1.0, 0.5])
    assert m.integral(0.0, 3.0) == pytest.approx(2.0 + 0.5)
    assert m.integral(1.0, 1.5) == pytest.approx(0.5)
    assert m.value(0.3) == 1.0 and m.value(2.5) == 0.5
    assert m.sup() == 1.0


@settings(max_examples=60, deadline=None)
@given(
    s1=st.floats(min_value=0.0, max_value=5.0),
    s2=st.floats(min_value=0.0, max_value=5.0),
)
def test_theta_subadditive(s1, s2):
    m = pb.Modulus.piecewise([0.0, 0.7, 1.9], [2.0, 5.0, 0.25])
    assert m.theta(s1 + s2) <= m.theta(s1) + m.theta(s2) + 1e-12


def test_theta_nondecreasing():
    m = pb.Modulus.piecewise([0.0, 1.0], [0.5, 2.0])
    vals = [m.theta(s) for s in np.linspace(0, 4, 40)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# --- assumption checks --------------------------------------------------------

def test_assumptions_pass_on_moving_wall():
    p = pb.get_problem("moving-wall-1d")
    rep = pb.verify_data_assumptions(p, seed=0)
    assert rep.ok
    lip = rep["lipschitz-x"]
    assert lip.status == "pass"
    assert lip.worst_witness["value"] == pytest.approx(0.0, abs=1e-12)


def test_assumptions_pass_on_all_benchmarks():
    for name in pb.registered_problems():
        rep = pb.verify_data_assumptions(pb.get_problem(name), seed=1)
        assert rep.ok, f"{name}: {rep.to_jsonable()}"


def test_assumptions_catch_an_a1_below_the_growth_integral():
    # moving-wall's c is 2.8 throughout: a1 = 0.1 leaves int_0^t c above a1 t + a2
    p = pb.get_problem("moving-wall-1d")
    low = dataclasses.replace(p, data=dataclasses.replace(p.data, a1=0.1))
    want, rep = pb.verify_data_assumptions(p, seed=0), pb.verify_data_assumptions(low, seed=0)
    check = rep["affine-majorant"]
    assert want["affine-majorant"].status == "pass" and check.status == "fail"
    T = pb.SamplingSpec().horizon               # the slack grows with t: the last time
    assert check.worst_witness["t"] == T
    assert check.worst_witness["value"] == pytest.approx(2.8 * T)
    assert check.worst_witness["bound"] == pytest.approx(0.1 * T)
    assert want.ok and not rep.ok
    assert [c.to_jsonable() for c in rep.checks if c is not check] == \
        [c.to_jsonable() for c in want.checks if c.assumption_id != "affine-majorant"]


def test_assumptions_catch_lipschitz_violation():
    p = x2u_problem()
    rep = pb.verify_data_assumptions(p, seed=0)
    check = rep["lipschitz-x"]
    assert check.status == "fail"
    assert check.worst_witness["value"] > check.worst_witness["bound"]
    assert check.worst_witness["x"] is not None


def test_assumptions_vacuous_tube_without_constraints():
    p = simple_problem(unit_velocity, zero_cost)
    rep = pb.verify_data_assumptions(p, seed=0)
    assert rep["tube-bounded"].status == "vacuous"


def test_assumptions_nan_constraint_fails_tube_check():
    # a NaN h used to drop every point from the tube, which then passed empty
    wall = _affine("nan-wall", [1.0], lambda t: np.nan + 0.0 * np.asarray(t))
    p = simple_problem(unit_velocity, zero_cost, constraints=[wall])
    rep = pb.verify_data_assumptions(p, seed=0)
    check = rep["tube-bounded"]
    assert check.status == "fail" and not rep.ok
    assert check.worst_witness["t"] == 0.0
    assert check.worst_witness["x"] is not None


# --- the constraints' gradient bounds and the moving set's rate -----------------

def _declaring(p, omega_lip=None, grad_scale=1.0):
    """``p`` with another declared ``omega_lip`` and every ``grad_bound``
    scaled by ``grad_scale``."""
    data = p.data if omega_lip is None else dataclasses.replace(p.data, omega_lip=omega_lip)
    cons = tuple(dataclasses.replace(c, grad_bound=c.grad_bound * grad_scale)
                 for c in p.constraints)
    return dataclasses.replace(p, data=data, constraints=cons)


def _disk(omega_lip=0.3):
    """The disk of radius ``0.8 + 0.3 sin t`` about the origin, which moves at
    ``0.3 |cos t|``; ``|grad h| = 2 |x|`` stays below the declared 3.2 on the
    box, so ``h+ / 3.2`` bounds the distance to the disk from below."""
    def h(t, x):
        return (np.asarray(x, dtype=float) ** 2).sum(axis=-1) - (0.8 + 0.3 * np.sin(t)) ** 2

    disk = pb.ConstraintFunction(h=h, grad=lambda t, x: over_times(t, 2 * np.asarray(x)),
                                 holder_theta=0.5, holder_const=2.0, grad_bound=3.2, name="disk")
    return simple_problem(unit_velocity, zero_cost, constraints=(disk,), n=2,
                          box=[[-1.1, 1.1], [-1.1, 1.1]], omega_lip=omega_lip, name="disk-2d")


_RATE_CASES = {
    "corridor-2d": lambda: pb.get_problem("corridor-2d"),
    "corridor-understated": lambda: _declaring(pb.get_problem("corridor-2d"), 0.1),
    "moving-wall-halved-grad": lambda: _declaring(pb.get_problem("moving-wall-1d"),
                                                  grad_scale=0.5),
    "disk-2d": _disk,
    "disk-understated": lambda: _declaring(_disk(0.1), grad_scale=0.9),
}


@pytest.mark.parametrize("case", sorted(_RATE_CASES))
def test_rate_and_gradient_checks_match_loop_reference(case):
    p = _RATE_CASES[case]()
    for spec in (pb.SamplingSpec(), pb.SamplingSpec(horizon=3.0, time_points=5, space_points=17)):
        for seed in range(3):
            assert (pb.verify_data_assumptions(p, spec, seed).to_jsonable()
                    == verify_data_assumptions_loop(p, spec, seed).to_jsonable())


def test_checks_keep_their_order():
    rep = pb.verify_data_assumptions(pb.get_problem("moving-wall-1d"), seed=0)
    assert [c.assumption_id for c in rep.checks] == [
        "tube-bounded", "lipschitz-x", "growth", "avg-modulus", "affine-majorant",
        "grad-bound", "omega-lip"]


@pytest.mark.parametrize("name", pb.registered_problems())
def test_rate_and_gradient_checks_pass_on_every_benchmark(name):
    p = pb.get_problem(name)
    for seed in (0, 1, 12345):
        rep = pb.verify_data_assumptions(p, seed=seed)
        grad, rate = rep["grad-bound"].worst_witness, rep["omega-lip"].worst_witness
        assert rep["grad-bound"].status == rep["omega-lip"].status == "pass", (name, seed)
        # the walls are affine: every gradient norm equals its bound
        assert grad["value"] == grad["bound"] > 0
        assert rate["bound"] == p.data.omega_lip and rate["value"] <= p.data.omega_lip
        if p.data.omega_lip == 0.0:     # a static set reads exactly 0
            assert rate["value"] == 0.0 and rate["t"] is None


def test_omega_lip_passes_on_the_moving_wall():
    # the wall moves at 0.4 |cos t|: no chord between sampled times beats 0.4
    check = pb.verify_data_assumptions(pb.get_problem("moving-wall-1d"), seed=0)["omega-lip"]
    assert check.status == "pass"
    assert 0.3 < check.worst_witness["value"] <= 0.4


def test_omega_lip_reads_zero_on_a_static_set():
    check = pb.verify_data_assumptions(pb.get_problem("quadratic-cost-1d"), seed=0)["omega-lip"]
    assert check.status == "pass"
    assert check.worst_witness["value"] == 0.0 and check.worst_witness["bound"] == 0.0


def test_omega_lip_fails_with_small_declared_rate():
    p = pb.get_problem("moving-wall-1d")
    q = dataclasses.replace(p, data=dataclasses.replace(p.data, omega_lip=0.1))
    rep = pb.verify_data_assumptions(q, pb.SamplingSpec(time_points=60), seed=0)
    assert rep["grad-bound"].status == "pass"
    check = rep["omega-lip"]
    assert check.status == "fail"
    # wall speed 0.4 |cos t| peaks at t in {0, pi, 2 pi}; the witness must
    # clearly beat the declared 0.1 and come close to the true rate
    w = check.worst_witness
    assert w["value"] > 0.3 and w["bound"] == 0.1
    peaks = np.array([0.0, math.pi, 2 * math.pi])
    assert np.min(np.abs(np.mean(w["t"]) - peaks)) < 0.5


def test_omega_lip_reads_the_corridor_below_its_declared_rate():
    """The estimate that divided upper distance bounds read 0.499 on
    corridor-2d; the lower bounds stay below the walls' rate 0.2."""
    p = pb.get_problem("corridor-2d")
    values = [pb.verify_data_assumptions(p, seed=seed)["omega-lip"].worst_witness["value"]
              for seed in (0, 1, 12345)]
    assert all(0.18 < v <= 0.2 for v in values), values


def test_understated_rate_fails_with_a_counterexample():
    """At a declared 0.1 the corridor fails omega-lip with a witness pair:
    x is feasible at s, and at t its distance to the set, at least the
    largest h+ over the gradient bound, exceeds 0.1 |s - t|; the gradient
    bounds hold, so the pair is a counterexample."""
    p = _declaring(pb.get_problem("corridor-2d"), 0.1)
    rep = pb.verify_data_assumptions(p, seed=0)
    assert rep["grad-bound"].status == "pass"
    check = rep["omega-lip"]
    assert check.status == "fail" and not rep.ok
    w = check.worst_witness
    (s, t), x = w["t"], np.array(w["x"])
    assert (round(s, 3), round(t, 3), round(w["value"], 3)) == (3.551, 2.732, 0.187)
    assert w["bound"] == 0.1
    assert geo.max_violation(p, s, x) <= 0.0 < geo.max_violation(p, t, x)
    lower = np.max(np.maximum(geo.eval_constraints(p, t, x), 0.0) / p.grad_bounds())
    assert w["value"] == lower / abs(t - s) > 0.1
    # a wall of unit gradient: the bound is the distance, which the projection
    # reads up to the feasibility tolerance
    assert geo.distance_to_omega(p, t, x).distance == pytest.approx(lower, abs=2 * geo.TOL_FEAS)


def test_halved_gradient_bound_fails_with_its_point():
    p = _declaring(pb.get_problem("corridor-2d"), grad_scale=0.5)
    rep = pb.verify_data_assumptions(p, seed=0)
    check = rep["grad-bound"]
    assert check.status == "fail" and not rep.ok
    spec = pb.SamplingSpec()
    lo, hi = p.box[:, 0], p.box[:, 1]
    first = lo + np.random.default_rng(0).random((spec.space_points, p.n)) * (hi - lo)
    assert check.worst_witness == {"t": 0.0, "x": first[0].tolist(), "u": None,
                                   "value": 1.0, "bound": 0.5}


def test_nonfinite_gradient_fails_grad_bound_at_its_point():
    # the wall's gradient is NaN left of x = -2 from t = pi on
    base = pb.get_problem("moving-wall-1d")
    wall = base.constraints[0]
    bad = dataclasses.replace(wall, grad=lambda t, x: np.where(
        (np.asarray(x) < -2.0) & (np.asarray(t) >= math.pi), np.nan, wall.grad(t, x)))
    p = dataclasses.replace(base, constraints=(bad,) + base.constraints[1:])
    rep = pb.verify_data_assumptions(p, seed=0)
    spec = pb.SamplingSpec()
    times = np.linspace(0.0, spec.horizon, spec.time_points)
    lo, hi = base.box[0]
    pts = lo + np.random.default_rng(0).random(spec.space_points) * (hi - lo)
    check = rep["grad-bound"]
    assert check.status == "fail"
    assert check.worst_witness == {"t": float(times[times >= math.pi][0]),
                                   "x": float(pts[np.argmax(pts < -2.0)]), "u": None,
                                   "value": math.inf, "bound": 1.0}
    assert rep["omega-lip"].status == "pass"


def test_nonfinite_constraint_fails_omega_lip_with_the_tube_witness():
    base = pb.get_problem("moving-wall-1d")
    cons = tuple(dataclasses.replace(
        c, h=lambda t, x, h=c.h: np.where(np.asarray(t) >= 3.0, np.nan, h(t, x)))
        for c in base.constraints)
    rep = pb.verify_data_assumptions(dataclasses.replace(base, constraints=cons), seed=0)
    assert rep["omega-lip"].status == rep["tube-bounded"].status == "fail"
    assert rep["omega-lip"].worst_witness == rep["tube-bounded"].worst_witness
    assert rep["omega-lip"].worst_witness["t"] >= 3.0
    assert rep["grad-bound"].status == "pass"


def test_rate_and_gradient_checks_are_vacuous_without_constraints():
    rep = pb.verify_data_assumptions(simple_problem(unit_velocity, zero_cost), seed=0)
    assert rep["grad-bound"].status == rep["omega-lip"].status == "vacuous"


def test_gradient_bound_makes_one_gradients_call_per_block(monkeypatch):
    """grad-bound reads the gradients in the blocks of the tube check, and
    omega-lip reads the tube check's constraint values: corridor-2d's four
    blocks make four calls of each."""
    calls = Counter()
    for method in ("gradients", "constraint_values"):
        real = getattr(pb.ProblemDefinition, method)
        monkeypatch.setattr(pb.ProblemDefinition, method,
                            lambda self, *a, real=real, method=method:
                            calls.update([method]) or real(self, *a))
    assert pb.verify_data_assumptions(pb.get_problem("corridor-2d"), seed=1).ok
    assert calls == {"gradients": 4, "constraint_values": 4}


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from(["moving-wall-1d", "corridor-2d", "disk-2d"]),
       declared=st.floats(0.0, 0.45), grad_scale=st.floats(0.5, 1.2),
       time_points=st.integers(2, 12), multiple=st.sampled_from([2, 4]),
       space_points=st.integers(2, 30), extra=st.integers(1, 30), seed=st.integers(0, 99))
def test_rate_and_gradient_failures_survive_denser_sampling(case, declared, grad_scale,
                                                             time_points, multiple,
                                                             space_points, extra, seed):
    """More space points, and more time points whose grid holds the coarser
    one, keep every failure of grad-bound and omega-lip, and omega-lip's
    largest ratio does not fall: the points are a prefix of one seeded
    stream, and at a shared time the nearest time at which a point is
    feasible can only come closer.  ``np.linspace`` gives the shared times
    the same bits when ``N' - 1`` is ``N - 1`` times a power of two."""
    base = _disk() if case == "disk-2d" else pb.get_problem(case)
    p = _declaring(base, declared, grad_scale)
    spec = pb.SamplingSpec(time_points=time_points, space_points=space_points)
    finer = [dataclasses.replace(spec, space_points=space_points + extra),
             dataclasses.replace(spec, time_points=multiple * (time_points - 1) + 1)]
    coarse = pb.verify_data_assumptions(p, spec, seed)
    for fine in (pb.verify_data_assumptions(p, f, seed) for f in finer):
        for cid in ("grad-bound", "omega-lip"):
            assert coarse[cid].status == "pass" or fine[cid].status == "fail", cid
        assert (fine["omega-lip"].worst_witness["value"]
                >= coarse["omega-lip"].worst_witness["value"])


def _problem(name):
    return {"x2u": x2u_problem, "sway-1d": sway_problem, "switching-1d": switching_problem}.get(
        name, lambda: pb.get_problem(name))()


@pytest.mark.parametrize("name", pb.registered_problems() + ("x2u", "sway-1d", "switching-1d"))
def test_assumptions_match_loop_reference(name):
    p = _problem(name)
    for spec in (pb.SamplingSpec(), pb.SamplingSpec(horizon=3.0, time_points=5, space_points=17)):
        for seed in range(4):
            assert (pb.verify_data_assumptions(p, spec, seed).to_jsonable()
                    == verify_data_assumptions_loop(p, spec, seed).to_jsonable())


def test_assumptions_evaluate_the_model_once_per_block_of_shared_samples(monkeypatch):
    """One ``velocities``, one ``costs`` and one ``constraint_values`` call
    per block of sampled times that share their samples: one block on each
    registered 1-D problem (24 times of at most 5 controls at 96 points),
    four on corridor-2d (25 controls, 2 components: 4,800 velocity values a
    time, 6 times a block), and one per run when the row count switches at
    seeded times."""
    calls = Counter()
    for method in ("velocities", "costs", "constraint_values"):
        real = getattr(pb.ProblemDefinition, method)
        monkeypatch.setattr(pb.ProblemDefinition, method,
                            lambda self, *a, real=real, method=method:
                            calls.update([method]) or real(self, *a))
    spec = pb.SamplingSpec()
    times = np.linspace(0.0, spec.horizon, spec.time_points)
    for name in pb.registered_problems() + ("switching-1d",):
        p = _problem(name)
        rows = [len(p.controls.at(t, spec.level)) for t in times]
        runs = 1 + sum(a != b for a, b in zip(rows, rows[1:]))
        assert runs >= 2 if name == "switching-1d" else runs == 1
        blocks = {"corridor-2d": 4}.get(name, runs)
        calls.clear()
        assert pb.verify_data_assumptions(p, spec, seed=1).ok
        assert calls == {"velocities": blocks, "costs": blocks, "constraint_values": blocks}, name
    # one time per block: one call per time, and the same report
    monkeypatch.setattr(pb, "_SAMPLE_BLOCK", 1)
    calls.clear()
    p = pb.get_problem("corridor-2d")
    assert pb.verify_data_assumptions(p, spec, seed=1).to_jsonable() == \
        verify_data_assumptions_loop(p, spec, seed=1).to_jsonable()
    assert calls == {"velocities": 24, "costs": 24, "constraint_values": 24}


@pytest.mark.parametrize("name", ["moving-wall-1d", "switching-1d"])
@pytest.mark.parametrize("i_h, i_f", [(9, 5), (5, 9), (9, 9), (12, 13), (13, 12)])
def test_assumptions_failures_keep_their_sample_order(name, i_h, i_f):
    """Constraints NaN from the ``i_h``-th sampled time on, and ``f`` NaN
    left of x = -2 (in the floor's tube) from the ``i_f``-th: the tube check
    names the NaN ``f`` when it comes at an earlier time than the NaN ``h``,
    and the NaN ``h`` otherwise; lipschitz-x and growth name the NaN ``f``.
    switching-1d's runs of shared samples start at times 0, 3, 12 and 14, so
    the NaN ``h`` falls inside a run or at a run's start."""
    base = _problem(name)
    spec = pb.SamplingSpec()
    times = np.linspace(0.0, spec.horizon, spec.time_points)
    t_h, t_f = times[i_h], times[i_f]
    cons = tuple(dataclasses.replace(
        c, h=lambda t, x, h=c.h: np.where(np.asarray(t) >= t_h, np.nan, h(t, x)))
        for c in base.constraints)

    def f(t, x, u):
        return np.where((np.asarray(x) < -2.0) & (np.asarray(t) >= t_f), np.nan, base.f(t, x, u))

    rep = pb.verify_data_assumptions(dataclasses.replace(base, f=f, constraints=cons), spec, 0)
    lo, hi = base.box[0]
    pts = lo + np.random.default_rng(0).random(spec.space_points) * (hi - lo)
    q = int(np.argmax(pts < -2.0))
    nan_f = {"t": float(t_f), "x": float(pts[q]), "value": math.inf, "bound": None,
             "u": float(base.controls.at(t_f, spec.level)[0, 0])}
    nan_h = {"t": float(t_h), "x": float(pts[0]), "u": None, "value": None, "bound": None}
    assert rep["tube-bounded"].worst_witness == (nan_f if i_f < i_h else nan_h)
    for cid in ("tube-bounded", "lipschitz-x", "growth"):
        assert rep[cid].status == "fail"
    assert rep["lipschitz-x"].worst_witness == rep["growth"].worst_witness == nan_f


@pytest.mark.parametrize("datum", ["f", "running_cost"])
def test_assumptions_nonfinite_data_fail_at_first_sample(datum):
    # NaN left of x = -2, inside the tube around the floor: every check on
    # f and L fails, each naming the first NaN sample (t = 0, not the last t)
    base = pb.get_problem("moving-wall-1d")
    fn = getattr(base, datum)

    def nan_left(t, x, u):
        x0 = np.asarray(x, dtype=float) if datum == "f" else np.asarray(x, dtype=float)[..., 0]
        return np.where(x0 < -2.0, np.nan, fn(t, x, u))

    p = dataclasses.replace(base, **{datum: nan_left})
    rep = pb.verify_data_assumptions(p, seed=0)
    for cid in ("tube-bounded", "lipschitz-x", "growth"):
        check = rep[cid]
        w = check.worst_witness
        assert check.status == "fail", cid
        assert w["t"] == 0.0 and w["x"] < -2.0 and w["u"] is not None, (cid, w)
    assert rep["avg-modulus"].status == "pass" and not rep.ok


def test_velocities_broadcast_and_shape_error(moving_wall):
    u, v = moving_wall.velocities(0.0, [0.3])
    assert v.shape == (len(u), 1) and np.array_equal(v, u)
    const = simple_problem(lambda t, x, u: np.array([0.5]), lambda t, x, u: 2.0)
    u, v = const.velocities(0.0, [0.0])
    assert v.shape == (len(u), 1) and np.all(v == 0.5)
    c = const.costs(0.0, np.zeros((4, 1)))
    assert c.shape == (len(u), 4) and np.all(c == 2.0)
    bad = simple_problem(lambda t, x, u: np.ones(7), lambda t, x, u: np.ones(7))
    with pytest.raises(ValueError):
        bad.velocities(0.0, [0.0])
    with pytest.raises(ValueError):
        bad.costs(0.0, [0.0])


@pytest.mark.parametrize("name", pb.registered_problems() + ("x2u", "sway-1d"))
def test_kernel_matches_per_point_and_per_control_calls(name):
    p = _problem(name)
    rng = np.random.default_rng(5)
    X = p.box[:, 0] + rng.random((2, 3, p.n)) * (p.box[:, 1] - p.box[:, 0])
    for t in (0.0, 1.7):
        u, V = p.velocities(t, X, 1)
        C = p.costs(t, X, 1)
        assert V.shape == (len(u), 2, 3, p.n) and C.shape == (len(u), 2, 3)
        _, V2 = p.velocities(t, X.reshape(6, p.n), 1)
        assert np.array_equal(V2, V.reshape(len(u), 6, p.n))
        for idx in np.ndindex(2, 3):
            x = X[idx]
            u1, v1 = p.velocities(t, x, 1)
            assert np.array_equal(u1, u) and np.array_equal(v1, V[(slice(None),) + idx])
            for j, uj in enumerate(u):
                assert np.array_equal(np.asarray(p.f(t, x, uj), dtype=float), V[(j,) + idx])
                assert float(p.running_cost(t, x, uj)) == C[(j,) + idx]


_ROWWISE = {
    **{name: (lambda name=name: pb.get_problem(name)) for name in pb.registered_problems()},
    "const-cost-1d": constant_cost_problem, "thin-corridor-1d": two_wall_1d,
    "x2u": x2u_problem, "sway-1d": sway_problem, "steady-sway-1d": steady_sway_problem,
    "drift-1d": lambda: drift_problem(1), "drift-2d": lambda: drift_problem(2),
}


@st.composite
def _rowwise_cases(draw):
    """A problem (each one above, or 2-D walls with random coefficients), a
    time, a batch of points in its box, per-point times and a block of one
    to six times."""
    name = draw(st.sampled_from(sorted(_ROWWISE) + ["random-walls-2d"]))
    if name == "random-walls-2d":
        coeff = st.floats(-2, 2, allow_subnormal=False)
        walls = [_affine(f"w{i}", [draw(coeff), draw(coeff)],
                         lambda t, a=draw(st.floats(-1, 1)): a + 0.3 * np.sin(t))
                 for i in range(draw(st.integers(1, 3)))]
        p = simple_problem(unit_velocity, zero_cost, constraints=walls, n=2,
                           controls=pb.ControlSamples(2, lambda t, l: np.eye(2)))
    else:
        p = _ROWWISE[name]()
    P = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    X = p.box[:, 0] + rng.random((P, p.n)) * (p.box[:, 1] - p.box[:, 0])
    block = rng.uniform(0, 7, draw(st.integers(1, 6)))
    return p, draw(st.floats(0, 7)), X, rng.uniform(0, 7, P), block


@settings(max_examples=60, deadline=None)
@given(case=_rowwise_cases())
def test_batched_rows_equal_rows_evaluated_alone(case):
    """Each row of a batched evaluation is byte for byte the row evaluated
    alone: constraint values over a batch of points (at one time and at
    per-point times), velocity row j against f(t, x, u_j), the velocities of
    the sampled controls at per-point times, f in the per-row form
    f(t[:, None], X, U) with one control row per point against f(t, x, u),
    and the velocities and running costs of a block of times, with f given t
    of shape (T, 1, 1) and the cost t of shape (T, 1) on the points
    broadcast to (T, P, n), against each time's own call; the anchors over
    per-point times and over the block, and the constraint gradients over a
    batch of points at one time and at per-point times, against each one's
    own call.  The repair's RK4 reuses the chosen velocity row as its first
    stage, its march evaluates a block of steps at once, the value sweep
    evaluates its slices in blocks of times, the distance and boundary
    functions read their anchors in one call and the viability rule reads
    the gradients of a run of steps in one call, on this basis."""
    p, t, X, ts, block = case
    H, Ht = p.constraint_values(t, X), p.constraint_values(ts, X)
    A, D, Dt = p.anchors(ts), p.gradients(t, X), p.gradients(ts, X)
    assert A.shape == X.shape and D.shape == Dt.shape == (len(X), p.m, p.n)
    u = p.controls.at(t)
    _, Vt = p.velocities(ts, X, 0, u)
    U = np.random.default_rng(len(X)).uniform(-1.0, 1.0, (len(X), p.controls.dim))
    FU = np.broadcast_to(np.asarray(p.f(ts[:, None], X, U), dtype=float), X.shape)
    for q, x in enumerate(X):
        assert H[q].tobytes() == p.constraint_values(t, x).tobytes()
        assert Ht[q].tobytes() == p.constraint_values(ts[q], x).tobytes()
        assert A[q].tobytes() == p.anchors(ts[q]).tobytes()
        assert D[q].tobytes() == p.gradients(t, x).tobytes()
        assert Dt[q].tobytes() == p.gradients(ts[q], x).tobytes()
        assert Vt[:, q].tobytes() == p.velocities(ts[q], x, 0, u)[1].tobytes()
        assert FU[q].tobytes() == np.broadcast_to(
            np.asarray(p.f(ts[q], x, U[q]), dtype=float), x.shape).tobytes()
        u, V = p.velocities(t, x)
        for j, uj in enumerate(u):
            assert V[j].tobytes() == np.asarray(p.f(t, x, uj), dtype=float).tobytes()
    XT = np.broadcast_to(X, block.shape + X.shape)
    u = p.controls.at(float(block[0]))
    _, VT = p.velocities(block[:, None], XT, 0, u)
    CT = p.costs(block[:, None], XT, 0, u)
    AT = p.anchors(block)
    for i, ti in enumerate(block):
        u, V = p.velocities(ti, X)
        assert VT[:, i].tobytes() == V.tobytes()
        assert CT[:, i].tobytes() == p.costs(ti, X, 0, u).tobytes()
        assert AT[i].tobytes() == p.anchors(ti).tobytes()


def test_model_that_does_not_broadcast_over_times_is_named():
    # f and the running cost take an array t only through numpy; math.sin
    # and math.cos take one time, and a ravelled t lines up with the nodes
    def f(t, x, u):
        return np.asarray(u, dtype=float) * math.sin(t) + 0.0 * np.asarray(x, dtype=float)

    def cost(t, x, u):
        return 0.0 * np.asarray(x, dtype=float)[..., 0] + np.cos(np.ravel(t))

    block, X = np.array([[0.1], [0.2], [0.3]]), np.zeros((3, 5, 1))
    for p, method, what in (
            (simple_problem(f, zero_cost, name="sine-drive"), "velocities", "f of sine-drive"),
            (simple_problem(unit_velocity, cost, name="cosine-cost"), "costs",
             "running cost of cosine-cost")):
        assert np.isfinite(getattr(p, method)(0.1, X[0])[-1]).all()     # one time is fine
        with pytest.raises(ValueError) as err:
            getattr(p, method)(block, X, 0, p.controls.at(0.1))
        assert f"{what} does not broadcast over t of shape (3, 1) and x of shape (3, 5, 1)" \
            in str(err.value)
        g = val.grid_for(p, 21, 0.1)
        with pytest.raises(ValueError) as err:
            val.solve_value(p, p.lam, g, relaxed=False, horizon=0.5)
        assert f"{what} does not broadcast over t of shape (5, 1) and x of shape (1, 21, 1)" \
            in str(err.value)
    with pytest.raises(ValueError, match=r"drawn at one time, got t of shape \(3, 1\)"):
        p.costs(block, X)
    # a path's march evaluates f over a block of steps: every construction
    # names the model there, instead of running each step alone
    p = simple_problem(f, zero_cost, name="sine-drive")
    steps, dt, w = 500, 0.01, np.full((500, 1), 0.5)
    cert = ipc.IpcCertificate(r=1.0, delta=0.5, eps=0.5, eta=0.5, witnesses=(), n_samples=0)
    B = tj._BLOCK
    for build in (lambda: tj.integrate(p, 0.0, [0.1], [2] * steps, steps, dt),
                  lambda: tj.integrate_controls(p, 0.0, [0.1], w, dt),
                  lambda: tj.filippov_project(p, 0.0, [0.1], w, steps, dt),
                  lambda: tj.viable_trajectory(p, cert, 0.0, [0.1], steps * dt, dt)):
        with pytest.raises(ValueError, match=rf"f of sine-drive does not broadcast over t of "
                                             rf"shape \({B},( 1)?\) and x of shape \({B}, 1\)"):
            build()

    # anchor and grad take an array t only through numpy as well: every
    # caller that reads the anchors or the gradients over an array of times
    # names the datum instead of looping over the times
    base = pb.get_problem("moving-wall-1d")
    wall, floor = base.constraints

    def grad(t, x):
        return np.full(np.shape(x), 1.0 + 0.0 * math.sin(t))

    p = dataclasses.replace(base, name="one-time-1d",
                            anchor=lambda t: np.array([-0.5 + 0.0 * math.sin(t)]),
                            constraints=(dataclasses.replace(wall, grad=grad), floor))
    assert p.anchors(0.3).tolist() == [-0.5]
    assert p.gradients(0.3, [0.2]).tolist() == [[1.0], [-1.0]]
    anchor = r"anchor of one-time-1d does not broadcast over t of shape \(\d+,\): "
    for call in (lambda: p.anchors(np.array([0.1, 0.2])),
                 lambda: geo.max_distance_upper_along(p, [0.1, 0.2], [[1.5], [1.6]]),
                 lambda: geo.boundary_samples(p, [0.1, 0.2])):
        with pytest.raises(ValueError, match=anchor):
            call()
    gradient = (r"gradient of constraint 'wall' does not broadcast over t of shape \(\d+,\) "
                r"and x of shape \(\d+, 1\): ")
    for call in (lambda: p.gradients(np.array([0.1, 0.2]), np.zeros((2, 1))),
                 lambda: tj.viable_trajectory(p, cert, 0.0, [0.999], 1.0, 0.01)):
        with pytest.raises(ValueError, match=gradient):
            call()


def test_anchor_and_gradient_of_the_wrong_shape_are_named(moving_wall):
    # a constant row over an array of times is the wrong shape: no per-time
    # fallback repairs it
    p = dataclasses.replace(moving_wall, name="flat-1d", anchor=lambda t: np.array([-0.5]))
    with pytest.raises(ValueError, match=re.escape(
            "anchor of flat-1d does not broadcast over t of shape (3,): "
            "anchor returned shape (1,), expected (3, 1)")):
        p.anchors(np.zeros(3))
    wall = dataclasses.replace(moving_wall.constraints[0], grad=lambda t, x: np.ones(1))
    q = dataclasses.replace(moving_wall, constraints=(wall,))
    with pytest.raises(ValueError, match=re.escape(
            "gradient of constraint 'wall' does not broadcast over t of shape () and x of "
            "shape (4, 1): grad returned shape (1,), expected (4, 1)")):
        q.gradients(0.0, np.zeros((4, 1)))


def test_model_that_fails_over_the_points_is_named_at_one_time_too():
    # a result of the wrong shape raised numpy's bare broadcast error at a
    # scalar t, and the named one only over an array t
    def f(t, x, u):
        return np.zeros((3, 7))

    def cost(t, x, u):
        return np.zeros((3, 7))

    X, ts = np.zeros((2, 1)), np.array([0.1, 0.2])
    for p, method, what in ((simple_problem(f, zero_cost, name="wide-f"), "velocities", "f"),
                            (simple_problem(unit_velocity, cost, name="wide-cost"), "costs",
                             "running cost")):
        u = p.controls.at(0.1)
        for t, shape in ((0.1, "()"), (ts, "(2,)")):
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"{what} of {p.name} does not broadcast over t of shape {shape} "
                    f"and x of shape (2, 1): ")):
                getattr(p, method)(t, X, 0, u)


def test_assumptions_failures_monotone_in_density():
    p = x2u_problem()
    coarse = pb.verify_data_assumptions(p, pb.SamplingSpec(space_points=24), seed=7)
    fine = pb.verify_data_assumptions(p, pb.SamplingSpec(space_points=48), seed=7)
    assert coarse["lipschitz-x"].status == "fail"
    assert fine["lipschitz-x"].status == "fail"
    # the finer sampling extends the coarse point stream, so the witness is
    # at least as bad
    assert (fine["lipschitz-x"].worst_witness["value"]
            >= coarse["lipschitz-x"].worst_witness["value"] - 1e-12)


def test_assumption_report_serializable_shape():
    rep = pb.verify_data_assumptions(pb.get_problem("moving-wall-1d"), seed=0)
    js = rep.to_jsonable()
    for entry in js["checks"]:
        assert set(entry) == {"assumption_id", "status", "worst_witness"}
        assert set(entry["worst_witness"]) == {"t", "x", "u", "value", "bound"}


def test_empty_control_sampler_rejected():
    from feastube.errors import EmptyControlSet

    controls = pb.ControlSamples(1, lambda t, l: np.empty((0, 1)))
    with pytest.raises(EmptyControlSet):
        controls.at(0.0, 0)
