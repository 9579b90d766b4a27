"""Feasibility repair as one forward sweep: equal to the re-projecting
reference loop, its guarantees where the two may differ (velocity that
depends on the state), linear work, the branch taken per piece, and the
viable march's predicted steps in the tube."""

import dataclasses
import functools
import itertools
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feastube import geometry as geo
from feastube import ipc
from feastube import trajectory as tj
from feastube import value as val
from feastube.errors import CorrectionFailed, ViabilityLost
from feastube.problem import ConstraintFunction, ControlSamples

import oracles
from test_acceptance import _violating_reference
from test_trajectory import _CERT_OF
from util import affine_constraint, hold_reference, simple_problem, unit_velocity, zero_cost


def sway_wall():
    """Moving wall under a velocity that depends on the state and the time."""
    def f(t, x, u):
        x = np.asarray(x, dtype=float)
        return -0.2 * x + np.asarray(u, dtype=float) * (1.0 + 0.3 * np.sin(3.0 * x + t))

    wall = affine_constraint("wall", [1.0], lambda t: -(1.0 + 0.4 * np.sin(t)))
    floor = affine_constraint("floor", [-1.0], lambda t: -2.0 + 0.0 * t)
    return simple_problem(f, zero_cost, constraints=(wall, floor), M=1.8, phi=1.1,
                          gamma=0.4, omega_lip=0.4, anchor=lambda t: np.array([-0.5]),
                          box=[[-2.5, 2.0]], name="sway-wall-1d")


def _same_repair(p, cert, ref, cons):
    res = tj.nft_correct(p, cert, ref, constants=cons)
    states, ctrl, rho_in, sup_dist, clear = oracles.nft_correct_reprojecting(
        p, cert, ref, constants=cons)
    assert np.array_equal(res.corrected.states, states)
    if ctrl is None:
        assert res.corrected.controls is None
    else:
        assert np.array_equal(res.corrected.controls, ctrl)
    assert (res.rho_in, res.sup_dist, res.interior_clearance) == (rho_in, sup_dist, clear)
    return res


def _assert_guarantees(p, ref, res):
    out = res.corrected
    assert np.array_equal(out.states[0], ref.states[0])
    assert geo.violations_along(p, out.times, out.states).max() <= geo.TOL_FEAS
    assert np.all(geo.clearance_proxy(p, out.times[1:], out.states[1:]) > 1e-12)
    assert res.interior_clearance > 0.0
    assert res.sup_dist <= res.beta_used * res.rho_in


@pytest.mark.parametrize("name", sorted(_CERT_OF))
def test_repair_matches_reprojecting_loop(name, request):
    """c03-style references: a small depth inside a boundary point, drifting out."""
    p = request.getfixturevalue(name)
    cert = request.getfixturevalue(_CERT_OF[name])
    cons = tj.derive_nft_constants(p, cert, 1.0)
    rng = np.random.default_rng(2718)
    for _ in range(3):
        ref, _ = _violating_reference(p, rng)
        _assert_guarantees(p, ref, _same_repair(p, cert, ref, cons))


@pytest.mark.parametrize("steps", [2000, 4000])
def test_hold_repair_matches_reprojecting_loop(moving_wall, mw_cert, steps):
    ref = hold_reference(moving_wall, np.random.default_rng(steps), steps)
    cons = tj.derive_nft_constants(moving_wall, mw_cert, steps * ref.step)
    _assert_guarantees(moving_wall, ref, _same_repair(moving_wall, mw_cert, ref, cons))


def test_tracking_matches_reprojecting_repair(moving_wall, mw_cert, mw_nft_constants,
                                              monkeypatch):
    """``track_feasible`` at the acceptance-c05 settings, with each window
    repaired by the library and by the reference loop."""
    ref = tj.viable_trajectory(moving_wall, mw_cert, 0.0, [0.5], 6.0, 1e-3)

    def reprojecting(p, cert, xhat, level=0, constants=None):
        states, ctrl, *_ = oracles.nft_correct_reprojecting(p, cert, xhat, level, constants)
        return SimpleNamespace(corrected=tj.Trajectory(xhat.times, states, ctrl, xhat.step))

    for offset in (0.01, 0.1):
        got = tj.track_feasible(moving_wall, mw_cert, ref, [0.5 - offset], 5.0,
                                nft_constants=mw_nft_constants)
        with monkeypatch.context() as m:
            m.setattr(tj, "nft_correct", reprojecting)
            want = tj.track_feasible(moving_wall, mw_cert, ref, [0.5 - offset], 5.0,
                                     nft_constants=mw_nft_constants)
        assert np.array_equal(got.trajectory.states, want.trajectory.states)
        assert np.array_equal(got.trajectory.controls, want.trajectory.controls)
        assert np.array_equal(got.deviations, want.deviations)


def test_repair_guarantees_with_state_dependent_velocity():
    p = sway_wall()
    ver = ipc.verify_ipc(p, (0.0, 2 * math.pi), r_min=0.9, delta=0.5, n_time=50, n_dirs=2)
    assert ver.ok
    cons = tj.derive_nft_constants(p, ver.certificate, 1.0)
    rng = np.random.default_rng(31)
    for _ in range(4):
        ref, _ = _violating_reference(p, rng)
        _assert_guarantees(p, ref, tj.nft_correct(p, ver.certificate, ref, constants=cons))


# --- one march, continued piece by piece ---------------------------------------------

@pytest.mark.parametrize("name", ["moving_wall", "corridor", "sway"])
def test_march_split_at_pieces_equals_full_march(name, request):
    p = sway_wall() if name == "sway" else request.getfixturevalue(name)
    rng = np.random.default_rng(5)
    t0, dt, steps = 0.4, 1e-3, 60
    x0 = np.asarray(p.anchor(t0), dtype=float)
    rule = tj._Nearest(p, x0, rng.uniform(-1.0, 1.0, (steps, p.n)), dt, 0)
    full = tj._march(p, t0, x0, steps, dt, rule)
    states = np.empty_like(full[0])
    ctrl = np.empty_like(full[1])
    states[0] = x0
    for a, b in itertools.pairwise([0, 7, 19, 20, 45, steps]):
        tj._march(p, t0, states[a], b - a, dt, rule, start=a, out=(states[a:b + 1], ctrl[a:b]))
    assert np.array_equal(states, full[0])
    assert np.array_equal(ctrl, full[1])


# --- work: RK4 steps per path node ---------------------------------------------------

def _march_work(run, monkeypatch, rule=tj._Rule):
    """Marches, the steps they were asked for, blocks, steps kept by blocks
    and steps run alone in the marches under a rule of class ``rule`` that
    ``run()`` makes.  A step alone is a call of the RK4 kernel outside a
    block."""
    counts, now = Counter(), {"march": False, "block": False}
    march, speculate, kernel = tj._march, tj._speculate, tj._rk4_increments

    def marching(p, t0, x0, steps, dt, r, *args, **kwargs):
        now["march"] = isinstance(r, rule)
        counts["marches"] += now["march"]
        counts["steps"] += steps * now["march"]
        try:
            return march(p, t0, x0, steps, dt, r, *args, **kwargs)
        finally:
            now["march"] = False

    def block(*args):
        now["block"] = True
        try:
            out = speculate(*args)
        finally:
            now["block"] = False
        if now["march"]:
            counts["blocks"] += 1
            counts["kept"] += out[0] if out else 0
        return out

    def increments(*args):
        counts["alone"] += now["march"] and not now["block"]
        return kernel(*args)

    with monkeypatch.context() as m:
        m.setattr(tj, "_march", marching)
        m.setattr(tj, "_speculate", block)
        m.setattr(tj, "_rk4_increments", increments)
        run()
    return counts


def _steps_per_node(p, cert, ref, cons, monkeypatch):
    """RK4 steps the repair keeps per reference node: the steps run alone
    and the proven prefix of every block."""
    work = _march_work(lambda: tj.nft_correct(p, cert, ref, constants=cons), monkeypatch)
    return (work["kept"] + work["alone"]) / len(ref.times)


@pytest.mark.parametrize("name", sorted(_CERT_OF))
def test_repair_work_per_node_is_bounded(name, request, monkeypatch):
    p = request.getfixturevalue(name)
    cert = request.getfixturevalue(_CERT_OF[name])
    cons = tj.derive_nft_constants(p, cert, 1.0)
    rng = np.random.default_rng(2718)
    for _ in range(3):
        ref, _ = _violating_reference(p, rng)
        assert _steps_per_node(p, cert, ref, cons, monkeypatch) <= 3.0


def test_hold_repair_work_per_node_does_not_grow(moving_wall, mw_cert, monkeypatch):
    """Each hold stays within the steps per node of the sweep that marched
    every projected piece to its end, and the longest hold is the cheapest.
    A sweep that re-projects the tail after every corrected piece grows
    with the length and fails both."""
    per_node = []
    for steps in (2000, 4000, 8000):
        ref = hold_reference(moving_wall, np.random.default_rng(steps), steps)
        cons = tj.derive_nft_constants(moving_wall, mw_cert, steps * ref.step)
        per_node.append(_steps_per_node(moving_wall, mw_cert, ref, cons, monkeypatch))
    assert all(w <= cap for w, cap in zip(per_node, (1.6731, 1.5261, 1.2338))), per_node
    assert per_node[2] <= per_node[0], per_node


def test_hold_repair_decides_its_steps_in_the_tube_in_blocks(moving_wall, mw_cert, monkeypatch):
    """The viable marches of a hold repair chatter at the acting tube, and
    the tube's game is pure: blocks take its control, and only a handful of
    steps run alone; a block keeps many steps, as its guesses follow the
    chattering.  A rule that runs every step in the tube alone, and the
    steps near it, runs about 90% of them alone here."""
    for steps in (2000, 4000, 8000):
        ref = hold_reference(moving_wall, np.random.default_rng(steps), steps)
        cons = tj.derive_nft_constants(moving_wall, mw_cert, steps * ref.step)
        work = _march_work(lambda: tj.nft_correct(moving_wall, mw_cert, ref, constants=cons),
                           monkeypatch, tj._Viable)
        assert work["steps"] > 1000 and work["alone"] <= 5, work
        assert 10 * work["blocks"] <= work["steps"], work
        assert work["kept"] + work["alone"] == work["steps"], work


def test_hold_repair_checks_its_steps_in_the_tube_in_few_calls(moving_wall, mw_cert,
                                                                monkeypatch):
    """The viable marches of a hold repair evaluate each constraint about
    2.2 times per block: once at the block's guesses, once after its first
    step in the tube, which measures the shift of a push, and once to check
    the predicted pattern of the block's later steps in the tube.  A walk
    that evaluates the constraints again after every step in the tube
    evaluates them 7 to 8 times per block here."""
    calls, viable = Counter(), {"now": False}

    def counted(c):
        def h(t, x):
            calls[c.name] += viable["now"]
            return c.h(t, x)
        return dataclasses.replace(c, h=h)

    p = dataclasses.replace(moving_wall, constraints=tuple(map(counted, moving_wall.constraints)))
    march = tj._march

    def marching(q, t0, x0, steps, dt, rule, *args, **kwargs):
        viable["now"] = isinstance(rule, tj._Viable)
        try:
            return march(q, t0, x0, steps, dt, rule, *args, **kwargs)
        finally:
            viable["now"] = False

    for steps in (2000, 4000, 8000):
        ref = hold_reference(p, np.random.default_rng(steps), steps)
        cons = tj.derive_nft_constants(p, mw_cert, steps * ref.step)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(tj, "_march", marching)
            work = _march_work(lambda: tj.nft_correct(p, mw_cert, ref, constants=cons),
                               monkeypatch, tj._Viable)
        assert work["blocks"] > 40, work
        assert calls["wall"] == calls["floor"] <= 2.5 * work["blocks"], (calls, work)


@pytest.mark.parametrize("steps", [2, 64, 65, 1000, 3000])
def test_viable_march_off_the_tube_takes_one_block_per_64_steps(moving_wall, mw_cert,
                                                                 steps, monkeypatch):
    """A viable march that never reaches the tube keeps whole blocks of 64
    steps from one ``constraint_values`` call each (two more check the path's
    ends); a lone last step runs alone."""
    calls = Counter()

    def counted(c):
        def h(t, x):
            calls[c.name] += 1
            return c.h(t, x)
        return dataclasses.replace(c, h=h)

    p = dataclasses.replace(moving_wall, constraints=tuple(map(counted, moving_wall.constraints)))
    t0, dt = 1.0, 1e-3
    work = _march_work(lambda: tj.viable_trajectory(p, mw_cert, t0, p.anchor(t0),
                                                    t0 + steps * dt, dt), monkeypatch, tj._Viable)
    assert work["blocks"] + work["alone"] == math.ceil(steps / 64), work
    assert work["alone"] == (steps % 64 == 1)
    assert calls["wall"] == calls["floor"] == work["blocks"] + 2 + work["alone"]


def test_push_keeps_its_steps_in_blocks(moving_wall, mw_cert, mw_nft_constants, monkeypatch):
    """The push of the 0.902-level hold holds its multiplexed controls,
    drawn in advance, so blocks keep all of its steps: the first block
    guesses no motion and keeps one, the next keeps the rest.  No step of
    the repair runs alone.  A push that draws each control at its step's
    true state runs every step alone."""
    t_cross = math.pi + math.asin(0.25)
    ref = tj.integrate(moving_wall, t_cross - 1.0, [0.902], [1] * 1000, 1000, 1e-3)

    def repair():
        res = tj.nft_correct(moving_wall, mw_cert, ref, constants=mw_nft_constants)
        assert res.pieces["push"] == 1, res.pieces

    work = _march_work(repair, monkeypatch)
    assert work["alone"] == 0 and work["kept"] == work["steps"], work
    push = _march_work(repair, monkeypatch, tj._Held)
    assert push["marches"] == 1 and push["steps"] >= 2, push
    assert push["kept"] == push["steps"] and push["blocks"] <= 2, push


# --- the branch taken per piece ------------------------------------------------------

def _piece_count(ref, cons):
    return math.ceil(ref.n_steps / int(cons.Delta / ref.step))


def test_strictly_feasible_input_only_passes(moving_wall, mw_cert, mw_nft_constants):
    ref = tj.integrate(moving_wall, 0.0, [-0.5], [1] * 1000, 1000, 1e-3)
    res = tj.nft_correct(moving_wall, mw_cert, ref, constants=mw_nft_constants)
    assert res.pieces == {"pass": _piece_count(ref, mw_nft_constants), "push": 0, "restart": 0}
    assert res.to_jsonable()["pieces"] == res.pieces


def test_piece_counts_cover_every_piece(moving_wall, mw_cert, mw_nft_constants):
    """Each reference is also repaired by the re-projecting loop, so every
    branch, and the projection that follows it, is checked against it."""
    t_cross = math.pi + math.asin(0.25)
    hold = [1] * 1000
    # 0.002 above the wall's lowest level: under rho_bar, so the push case;
    # 0.05 above it: over rho_bar, so the piece restarts from a viable path,
    # and the projection of the next piece stops after its first kept run that
    # cannot pass
    refs = [(t_cross - 1.0, 0.902, hold, "push"), (t_cross - 1.0, 0.95, hold, "restart")]
    # from the wall's lowest point: a peak 0.0005 over the wall, a fall 0.15
    # deep, then a rise 0.0022 over the rising wall: push, passes (the deep
    # ones marched run by run to their end), push.  The two steps held
    # after the first peak leave the projection 0.002 below the reference,
    # so a push that read unprojected nodes would differ.
    t_low = 1.5 * math.pi
    peaks = [1] * 110 + [2] * 10 + [1] * 2 + [0] * 150 + [1] * 250 + [2] * 267 + [0] * 60
    peaks += [1] * (1000 - len(peaks))
    refs.append((t_low, 1 + 0.4 * math.sin(t_low + 0.12) + 0.0005 - 0.01, peaks, "push"))
    for t0, x0, schedule, branch in refs:
        ref = tj.integrate(moving_wall, t0, [x0], schedule, 1000, 1e-3)
        res = _same_repair(moving_wall, mw_cert, ref, mw_nft_constants)
        assert sum(res.pieces.values()) == _piece_count(ref, mw_nft_constants)
        assert res.pieces[branch] >= 1
        assert res.pieces["push" if branch == "restart" else "restart"] == 0
    assert res.pieces == {"pass": 11, "push": 2, "restart": 0}


def test_push_reads_the_violation_measured_on_the_projection(monkeypatch):
    """A static wall under state-dependent velocity, crossed twice: out for
    51 steps, in for 11, out for 14, then in.  The start is set so that the
    larger crossing, the second, violates by just under 3 dt / k_shift,
    where the push length ceil(k_shift rho / dt) goes from 3 steps to 4.
    The projection from the first push runs about 0.5% of rho outside the
    reference at the second crossing, so that push takes 4 steps: only a
    sweep that measures the violation on projected pieces gets it right."""
    normal = np.array([math.cos(5.5), math.sin(5.5)])
    p = _wall_problem(normal, 1.0, 0.0, sway=True)
    ver = ipc.verify_ipc(p, (0.0, 2 * math.pi), r_min=0.3, delta=0.5, n_time=24, n_dirs=8)
    steps, dt, t0 = 400, 1e-3, 0.1606428205481547
    cons = tj.derive_nft_constants(p, ver.certificate, steps * dt)
    un = p.controls.at(t0, 0) @ normal
    out, into = int(np.argmax(un)), int(np.argmin(un))
    schedule = ([out] * 51 + [into] * 11 + [out] * 14 + [into] * steps)[:steps]
    target = 3 * dt / cons.k_shift * (1 - 1e-3)
    x0 = 0.9 * normal
    for _ in range(8):
        ref = tj.integrate(p, t0, x0, schedule, steps, dt)
        x0 = x0 - (np.max(ref.states @ normal - 1.0) - target) * normal
    ref = tj.integrate(p, t0, x0, schedule, steps, dt)
    measured = []
    measure = geo.max_distance_upper_along
    monkeypatch.setattr(geo, "max_distance_upper_along",
                        lambda *a: measured.append(measure(*a)) or measured[-1])
    res = _same_repair(p, ver.certificate, ref, cons)
    _assert_guarantees(p, ref, res)
    assert res.pieces == {"pass": 78, "push": 2, "restart": 0}
    assert math.ceil(cons.k_shift * res.rho_in / dt) == 3
    # the first value is the reference's own violation; the projection's is
    # above it and below rho_bar, and it lengthens the second push
    assert measured[0] == res.rho_in
    assert res.rho_in < max(measured[1:]) <= cons.rho_bar
    assert math.ceil(cons.k_shift * max(measured[1:]) / dt) == 4


# --- the viability rule's predicted steps in the tube -----------------------------------

def _swinging_wall(omega, amp):
    """The wall ``x <= 1 + amp sin(omega t)`` under the controls -1, 0 and
    1, default 0: as the wall's speed changes within a block, so does the
    gap between the steps that push off it."""
    wall = affine_constraint("wall", [1.0], lambda t: -(1.0 + amp * np.sin(omega * t)))
    return simple_problem(unit_velocity, zero_cost, constraints=(wall,), M=1.0,
                          gamma=amp * omega, omega_lip=amp * omega,
                          box=[[-2.0, 2.0]], name="swinging-wall-1d")


def _bowl(kappa, amp):
    """The curved constraint ``kappa (x^2 - (0.5 + amp sin t)^2) <= 0``
    under hover-1d's controls -1 and 1, default 1.  A push changes ``h`` by
    an amount that depends on ``x``, so the shift one push makes predicts
    the next steps in the tube only approximately."""
    def h(t, x):
        x = np.asarray(x, dtype=float)[..., 0]
        return kappa * (x * x - (0.5 + amp * np.sin(t)) ** 2)

    def grad(t, x):
        return 2.0 * kappa * np.asarray(x, dtype=float)

    bowl = ConstraintFunction(h=h, grad=grad, holder_theta=0.5, holder_const=0.0,
                              grad_bound=4.0 * kappa, name="bowl")
    u = np.array([[-1.0], [1.0]])
    u.setflags(write=False)
    p = simple_problem(unit_velocity, zero_cost, constraints=(bowl,), M=1.0, gamma=amp,
                       omega_lip=amp, controls=ControlSamples(1, lambda t, level: u),
                       box=[[-2.0, 2.0]], name="bowl-1d")
    return dataclasses.replace(p, default_control=u[1])


@functools.lru_cache(maxsize=None)
def _predicted_case(kind, a, b):
    p = _swinging_wall(a, b) if kind == "wall" else _bowl(a, b)
    ver = ipc.verify_ipc(p, (0.0, 2 * math.pi), r_min=0.05, delta=0.5, n_time=24, n_dirs=2)
    assert ver.ok, ver.worst
    return p, ver.certificate


def _mispredicted(run, monkeypatch):
    """How often ``run()``'s viable blocks guess their steps again after
    the check disagreed with a pattern that predicted later steps under the
    game's control."""
    count = Counter()
    decide, guess_after = tj._Viable._decide, tj._Viable._guess_after

    def deciding(self, *args):
        count["predicted"] = False
        return decide(self, *args)

    def guessing(self, T, G, H, k, push, guessed, shift):
        count["wrong"] += count["predicted"]
        out = guess_after(self, T, G, H, k, push, guessed, shift)
        count["predicted"] = bool(guessed[k + 1:].any())
        return out

    with monkeypatch.context() as m:
        m.setattr(tj._Viable, "_decide", deciding)
        m.setattr(tj._Viable, "_guess_after", guessing)
        run()
    return count["wrong"]


@settings(max_examples=16, deadline=None)
@given(case=st.sampled_from([("wall", 2.0, 0.3), ("wall", 3.0, 0.25), ("wall", 1.0, 0.4),
                             ("bowl", 1.0, 0.0), ("bowl", 4.0, 0.1)]),
       t0=st.floats(0.0, 2 * math.pi), dt=st.sampled_from([1e-3, 2e-3, 1e-2]),
       radius=st.sampled_from([None, 0.01]), seed=st.integers(0, 2**16))
def test_predicted_tube_steps_equal_the_loop(case, t0, dt, radius, seed):
    """The viability rule, which guesses its steps in the tube under a
    predicted pattern, is the step loop bit for bit, and so is the repair
    against the re-projecting loop: on moving walls whose speed changes
    within a block, and on a curved constraint, where the prediction errs."""
    p, cert = _predicted_case(*case)
    steps = 400
    x0 = max(geo.sample_boundary_points(p, t0, 2), key=lambda q: q[0]) - 0.02
    got = tj.viable_trajectory(p, cert, t0, x0, t0 + steps * dt, dt, tube_radius=radius)
    want = oracles.viable_trajectory_loop(p, cert, t0, x0, t0 + steps * dt, dt,
                                          tube_radius=radius)
    assert np.array_equal(got.states, want[0]) and np.array_equal(got.controls, want[1])
    # a reference that holds 0.85 of its steps on the outward control
    rng = np.random.default_rng(seed)
    idx = np.where(rng.random(steps) < 0.85, len(p.controls.at(t0)) - 1,
                   rng.integers(0, len(p.controls.at(t0)), steps))
    ref = tj.integrate(p, t0, x0 - 0.02, idx.tolist(), steps, dt)
    cons = tj.derive_nft_constants(p, cert, steps * dt)
    _assert_guarantees(p, ref, _same_repair(p, cert, ref, cons))


@pytest.mark.parametrize("case", [("wall", 3.0, 0.25), ("bowl", 1.0, 0.0)])
def test_predicted_tube_steps_are_checked(case, monkeypatch):
    """On a wall that slows down as it sweeps in, the gaps between the
    steps that push off it take three or more values within 64 steps; on
    the curved constraint the check disagrees with some predicted patterns.
    Both paths are the loop's."""
    p, cert = _predicted_case(*case)
    t0, dt, steps = 0.5, 1e-3, 1500
    x0 = [1.0] if case[0] == "wall" else [0.2]
    paths = []
    wrong = _mispredicted(lambda: paths.append(tj.viable_trajectory(
        p, cert, t0, x0, t0 + steps * dt, dt)), monkeypatch)
    got = paths[0]
    want = oracles.viable_trajectory_loop(p, cert, t0, x0, t0 + steps * dt, dt)
    assert np.array_equal(got.states, want[0]) and np.array_equal(got.controls, want[1])
    pushed = np.flatnonzero(np.abs(got.controls - p.default_control).max(axis=1) > 0)
    assert len(pushed) > 100
    if case[0] == "wall":
        gaps = {tuple(np.diff(pushed[(pushed >= j) & (pushed < j + 64)]))
                for j in range(0, steps, 64)}
        assert any(len(set(g)) > 2 for g in gaps), gaps      # more than alternating
    else:
        assert wrong > 0


# --- shared control samples -------------------------------------------------------

# Sampler draws (ControlSamples.at calls) before ControlSamples.shared held
# the rule of which times share their samples, when the sweep and the two
# march rules each kept a loop of their own: per swinging wall and start
# time, its viable march and its repair.  Each such call drew once.
_AT_CALLS = {"sweep": 200, "relaxed sweep": 200, "hold": 2364,
             (("wall", 2.0, 0.3), 4.0): (104, 835), (("wall", 3.0, 0.25), 0.5): (125, 818),
             (("wall", 1.0, 0.4), 2.0): (76, 723)}


def test_shared_samples_make_no_more_at_calls(hover, moving_wall, mw_cert, monkeypatch):
    """The value sweep and the projection's and viability's march rules
    decide which times share their samples with ``ControlSamples.shared``,
    and draw samples no more often than their own loops did."""
    calls = Counter()
    draw = ControlSamples._draw

    def counted(run):
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(ControlSamples, "_draw",
                      lambda self, t, level: calls.update(["draw"]) or draw(self, t, level))
            run()
        return calls["draw"]

    g = val.grid_for(hover, 241, 0.0025)
    got = {f"{'relaxed ' * r}sweep": counted(lambda: val.solve_value(
        hover, hover.lam, g, relaxed=r, horizon=0.5)) for r in (False, True)}
    ref = hold_reference(moving_wall, np.random.default_rng(2000), 2000)
    cons = tj.derive_nft_constants(moving_wall, mw_cert, 2000 * ref.step)
    got["hold"] = counted(lambda: tj.nft_correct(moving_wall, mw_cert, ref, constants=cons))
    for case, t0 in [k for k in _AT_CALLS if isinstance(k, tuple)]:
        p, cert = _predicted_case(*case)
        steps, dt = 400, 1e-3
        x0 = max(geo.sample_boundary_points(p, t0, 2), key=lambda q: q[0]) - 0.02
        rng = np.random.default_rng(7)
        k = len(p.controls.at(t0))
        ref = tj.integrate(p, t0, x0 - 0.02, np.where(rng.random(steps) < 0.85, k - 1,
                                                     rng.integers(0, k, steps)).tolist(),
                           steps, dt)
        cons = tj.derive_nft_constants(p, cert, steps * dt)
        got[case, t0] = (counted(lambda: tj.viable_trajectory(p, cert, t0, x0, t0 + steps * dt,
                                                              dt)),
                         counted(lambda: tj.nft_correct(p, cert, ref, constants=cons)))
    assert all(np.all(np.array(got[k]) <= np.array(v)) for k, v in _AT_CALLS.items()), got


# --- random affine moving walls ------------------------------------------------------

def _wall_problem(normal, a, b, sway):
    """One wall ``normal . x <= a + b sin t`` under unit-box controls; with
    ``sway`` the velocity depends on the state and the time."""
    n = len(normal)
    grid = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=n)))

    def f(t, x, u):
        x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
        if not sway:
            return 0.0 * x + u
        return -0.2 * x + u * (1.0 + 0.3 * np.sin(3.0 * x[..., :1] + t))

    wall = affine_constraint("wall", normal, lambda t: -(a + b * np.sin(t)))
    speed = math.sqrt(n) * (1.8 if sway else 1.0)
    return simple_problem(f, zero_cost, constraints=(wall,), n=n,
                          controls=ControlSamples(n, lambda t, level: grid),
                          M=speed, phi=1.1 if sway else 0.0, gamma=b, omega_lip=b,
                          box=np.tile([[-2.5, 2.5]], (n, 1)), name="random-wall")


def test_ledger_beta_overflows_to_inf():
    """A ledger whose ``(1 + K beta~)^m - 1`` passes exp(709) derives and
    validates with beta = inf instead of raising OverflowError."""
    p = _wall_problem(np.array([math.cos(0.8), math.sin(0.8)]), 1.0, 0.2, sway=True)
    ver = ipc.verify_ipc(p, (0.0, 1.0), r_min=0.3, delta=0.5, n_time=12, n_dirs=8)
    cons = tj.derive_nft_constants(p, ver.certificate, 1.0)
    assert cons.m * math.log1p(cons.K_growth * cons.beta_tilde) > 710
    assert cons.beta3 == cons.beta == math.inf
    cons.validate(p, 1.0)


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([1, 2]), angle=st.floats(0.0, 2 * math.pi),
       a=st.floats(0.6, 1.2), b=st.floats(0.0, 0.4), t0=st.floats(0.0, 2 * math.pi),
       depth=st.floats(1e-3, 0.3), drift=st.none() | st.integers(0, 8),
       seed=st.integers(0, 2**16), sway=st.booleans())
def test_repair_on_random_moving_walls(n, angle, a, b, t0, depth, drift, seed, sway):
    normal = np.array([math.cos(angle), math.sin(angle)][:n])
    if n == 1:
        normal = np.sign(normal) + (normal == 0)
    p = _wall_problem(normal, a, b, sway)
    ver = ipc.verify_ipc(p, (t0, t0 + 1.0), r_min=0.3, delta=0.5, n_time=12, n_dirs=8)
    assert ver.ok, ver.worst
    # start ``depth`` inside the wall and mostly hold one control: the
    # outward one, or the one drift names
    u0 = p.controls.at(t0, 0)
    hold = int(np.argmax(u0 @ normal)) if drift is None else drift % len(u0)
    rng = np.random.default_rng(seed)
    steps, dt = 500, 2e-3
    idx = np.where(rng.random(steps) < 0.85, hold, rng.integers(0, len(u0), steps))
    x0 = (a + b * math.sin(t0) - depth) * normal
    ref = tj.integrate(p, t0, x0, idx.tolist(), steps, dt)
    try:
        res = tj.nft_correct(p, ver.certificate, ref)
    except (CorrectionFailed, ViabilityLost) as exc:
        assert str(exc)
        return
    _assert_guarantees(p, ref, res)
    if not sway:
        _same_repair(p, ver.certificate, ref, res.constants)
