import dataclasses
import functools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feastube import geometry as geo
from feastube import ipc
from feastube import problem as pb
from feastube import trajectory as tj
from feastube.errors import (
    ConstantsInfeasible,
    CorrectionFailed,
    InfeasibleStart,
    NonFiniteState,
    ViabilityLost,
)
from feastube.simplex import solve_matrix_game

import oracles
from oracles import best_feasible_tracking
from util import (
    affine_constraint,
    corner_problem,
    credit_problem,
    drift_problem,
    drift_velocity,
    simple_problem,
    sway_problem,
    sway_walls,
    unit_velocity,
    zero_cost,
)


# --- integration -----------------------------------------------------------------

def test_integrate_constant_control_zero(moving_wall):
    traj = tj.integrate(moving_wall, 0.0, [0.5], [1] * 10, 10, 0.1)
    assert np.max(np.abs(traj.states - 0.5)) == 0.0


def test_integrate_linear_exact(moving_wall):
    traj = tj.integrate(moving_wall, 0.0, [0.0], [2] * 100, 100, 0.01)
    assert abs(traj.states[-1, 0] - 1.0) < 1e-12


@pytest.mark.parametrize("schedule, why", [
    ([0, -1, 0], r"step 1 \(t=0\.1\) is -1, not an index into the 3 control samples there"),
    ([0, 1], r"step 2 \(t=0\.2\) is missing, not an index into the 3 control samples there"),
    ([0, 7, 0], r"step 1 \(t=0\.1\) is 7, not an index into the 3 control samples there"),
])
def test_integrate_rejects_a_schedule_index_without_a_sample(moving_wall, schedule, why):
    with pytest.raises(ValueError, match=why):
        tj.integrate(moving_wall, 0.0, [0.0], schedule, 3, 0.1)


def test_integrate_exponential_decay():
    def f(t, x, u):
        return -np.asarray(x, dtype=float) + 0.0 * np.asarray(u, dtype=float)

    p = simple_problem(f, zero_cost, name="decay-stub")
    traj = tj.integrate(p, 0.0, [1.0], [0] * 100, 100, 0.01)
    assert abs(traj.states[-1, 0] - math.exp(-1.0)) < 1e-8


def test_integrate_blowup_raises():
    def f(t, x, u):
        x = np.asarray(x, dtype=float)
        return x ** 2 + 1.0 + 0.0 * np.asarray(u, dtype=float)

    p = simple_problem(f, zero_cost, name="blowup")
    with pytest.raises(NonFiniteState):
        tj.integrate(p, 0.0, [1.0], [0] * 2000, 2000, 0.05)


def test_trajectory_residual_contract(moving_wall):
    traj = tj.integrate(moving_wall, 0.3, [0.1], [0, 1, 2, 2, 0] * 4, 20, 0.05)
    for j in range(traj.n_steps):
        t = float(traj.times[j])
        step = oracles.rk4_step(moving_wall.f, t, traj.states[j], traj.controls[j], traj.step)
        assert np.linalg.norm(traj.states[j + 1] - step) <= tj.TOL_ODE


def test_rk4_step_rejects_nan_state():
    def f(t, x, u):
        return np.full_like(np.asarray(x, dtype=float), np.nan)

    p = simple_problem(f, zero_cost, name="nan-velocity")
    for steps in (1, 5):     # a step alone, and a block that keeps none
        with pytest.raises(NonFiniteState, match=r"blow-up near t=0\.0"):
            tj.integrate_controls(p, 0.0, [0.0], np.zeros((steps, 1)), 0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rk4_step_rejects_nonfinite_second_component(bad):
    # only the last component goes bad: a test that reduces with max() and
    # meets a NaN after a finite value drops it
    def f(t, x, u):
        return np.array([0.0, bad])

    p = simple_problem(f, zero_cost, n=2, name="bad-second-component")
    for steps in (1, 5):
        with pytest.raises(NonFiniteState, match=r"blow-up near t=0\.0"):
            tj.integrate_controls(p, 0.0, [0.0, 0.0], np.zeros((steps, 2)), 0.1)


# k / prime: no short binary fraction, so products with it round
_TIMES = st.integers(0, 7000).map(lambda k: k / 997)
_STEPS = st.integers(1, 2000).map(lambda k: k / 19937)


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([1, 2, 3]), kind=st.sampled_from(["sway", "drift"]),
       t=_TIMES, dt=_STEPS, with_k1=st.booleans(), rows=st.integers(1, 5), data=st.data())
def test_rk4_step_matches_loop_reference(n, kind, t, dt, with_k1, rows, data):
    """One step, the kernel's one-row case plus the state, equals the loop
    reference's byte for byte, for a velocity that varies in x and t (sway)
    or in t alone (drift), with k1 evaluated in the step or handed in as a
    row of a batch of controls.  The kernel's rows, over steps at different
    times, states and controls, are those steps, each taken alone."""
    f = sway_problem().f if kind == "sway" else drift_velocity(n)
    coords = st.lists(st.floats(-1.9, 1.9), min_size=n, max_size=n)
    T = t + dt * np.arange(rows)
    X = np.array([data.draw(coords) for _ in range(rows)])
    U = np.array([data.draw(coords) for _ in range(rows)]) / 1.9
    K1 = np.asarray(f(T[:, None], X, U), dtype=float) if with_k1 else None
    D = tj._rk4_increments(f, T, X, U, dt, K1)
    for i in range(rows):
        k1 = np.asarray(f(T[i], X[i], U[i][None, :]), dtype=float)[:1] if with_k1 else None
        inc = tj._rk4_increments(f, T[i:i + 1], X[i:i + 1], U[i:i + 1], dt, k1)
        got = X[i] + inc[0]
        want = oracles.rk4_step(f, float(T[i]), X[i], U[i], dt)
        assert got.shape == want.shape == (n,)
        assert got.tobytes() == want.tobytes() == (X[i] + D[i]).tobytes()
        assert inc.tobytes() == D[i].tobytes()


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan])
def test_every_construction_rejects_nonpositive_dt(moving_wall, mw_cert, dt):
    with pytest.raises(ValueError, match="dt"):
        tj.integrate(moving_wall, 0.0, [0.0], [1] * 10, 10, dt)
    with pytest.raises(ValueError, match="dt"):
        tj.integrate_controls(moving_wall, 0.0, [0.0], np.zeros((10, 1)), dt)
    with pytest.raises(ValueError, match="dt"):
        tj.filippov_project(moving_wall, 0.0, [0.0], np.zeros((10, 1)), 10, dt)
    for steps in (None, 10):
        with pytest.raises(ValueError, match="dt"):
            tj.viable_trajectory(moving_wall, mw_cert, 0.0, [0.0], 1.0, dt, steps=steps)


def test_integrate_controls_rejects_no_steps(moving_wall):
    with pytest.raises(ValueError, match="steps"):
        tj.integrate_controls(moving_wall, 0.0, [0.0], np.zeros((0, 1)), 0.1)


@pytest.mark.parametrize("steps", [0, -2])
def test_filippov_project_rejects_no_steps(moving_wall, steps):
    with pytest.raises(ValueError, match=f"need steps >= 1, got steps={steps}"):
        tj.filippov_project(moving_wall, 0.0, [0.0], np.zeros((0, 1)), steps, 0.1)


def test_state_at_array_matches_scalar(corridor):
    ref = tj.integrate(corridor, 0.3, [0.1, -0.2], [0, 5, 7, 3, 8] * 8, 40, 0.025)
    ts = 0.3 + np.array([0.0, 0.0123, 0.5, 0.77, 1.0 + 5e-10])
    got = ref.state_at(ts)
    assert got.shape == (len(ts), 2)
    for row, t in zip(got, ts):
        assert np.array_equal(row, ref.state_at(float(t)))
    assert ref.state_at(0.3).shape == (2,)
    with pytest.raises(ValueError, match="outside"):
        ref.state_at(np.array([0.5, 1.4]))


# --- velocity projection ------------------------------------------------------------

def test_filippov_reproduces_realizable_reference(moving_wall):
    ref = tj.integrate(moving_wall, 0.0, [0.2], [0, 2, 1, 2, 0, 0, 2, 1] * 5, 40, 0.02)
    proj = tj.filippov_project(moving_wall, 0.0, [0.2], ref.velocities(), 40, 0.02)
    assert np.max(np.abs(proj.states - ref.states)) <= 1e-9


def test_filippov_alternates_on_unrealizable_zero(hover):
    proj = tj.filippov_project(hover, 0.0, [0.0], np.zeros((30, 1)), 30, 0.01)
    assert np.max(np.abs(proj.states)) <= 0.01 + 1e-12
    assert set(np.unique(proj.controls)) == {-1.0, 1.0}


def test_filippov_nearest_velocity_rule(moving_wall):
    proj = tj.filippov_project(moving_wall, 0.0, [0.0], 0.4 * np.ones((50, 1)), 50, 0.01)
    assert set(np.unique(proj.controls)) == {0.0}
    # linear divergence from the unrealizable target path
    assert proj.states[-1, 0] == pytest.approx(0.0)


def test_filippov_mismatch_is_minimal(moving_wall):
    rng = np.random.default_rng(8)
    w = rng.uniform(-1.3, 1.3, size=(25, 1))
    proj = tj.filippov_project(moving_wall, 0.0, [0.0], w, 25, 0.02)
    for j in range(proj.n_steps):
        t = float(proj.times[j])
        _, vels = moving_wall.velocities(t, proj.states[j], 0)
        chosen = np.asarray(
            moving_wall.f(t, proj.states[j], proj.controls[j]), dtype=float
        )
        best = np.min(np.linalg.norm(vels - w[j], axis=1))
        assert np.linalg.norm(chosen - w[j]) <= best + 1e-12


# --- viability -----------------------------------------------------------------------

def test_viable_interior_stays_constant(moving_wall, mw_cert):
    traj = tj.viable_trajectory(moving_wall, mw_cert, 0.0, [0.0], 2.0, 1e-2)
    assert np.max(np.abs(traj.states - 0.0)) == 0.0


def test_viable_from_wall_descends(moving_wall, mw_cert):
    traj = tj.viable_trajectory(moving_wall, mw_cert, math.pi, [1.0], 2 * math.pi, 1e-3)
    viol = geo.violations_along(moving_wall, traj.times, traj.states)
    assert viol.max() <= geo.TOL_FEAS
    # the wall pushes the state down while it moves down
    assert traj.states[-1, 0] < 1.0


def test_viable_coarse_step_fails():
    # fast wall: one coarse default step loses more clearance than the
    # acting tube provides, so the violation is caught at the next node
    p = pb.get_problem("moving-wall-1d", {"amplitude": 0.9})
    ver = ipc.verify_ipc(p, (0, 2 * math.pi), r_min=0.05, delta=0.5,
                         n_time=40, n_dirs=2)
    assert ver.ok
    with pytest.raises(ViabilityLost):
        tj.viable_trajectory(p, ver.certificate, math.pi, [0.65], 2 * math.pi, 0.5)
    # the same run at a fine step stays feasible
    fine = tj.viable_trajectory(p, ver.certificate, math.pi, [0.65], 2 * math.pi, 1e-3)
    assert geo.violations_along(p, fine.times, fine.states).max() <= geo.TOL_FEAS


# --- repair constants -----------------------------------------------------------------

def test_constants_moving_wall(moving_wall, mw_cert, mw_nft_constants):
    cons = mw_nft_constants
    assert cons.eps == pytest.approx(0.125)
    assert cons.k_shift == pytest.approx(16.0)
    # binding condition: 2 * 0.4 * Delta * 16 < 1  =>  Delta < 0.078125
    assert cons.Delta <= 0.078125
    assert cons.Delta >= 0.078125 * 0.999
    assert cons.m == 13
    assert cons.rho_bar == pytest.approx(min((0.125 - cons.Delta) / 2, 0.125 / 32))
    drift = math.exp(0.0) * (0.4 * cons.Delta + 0.0)
    assert cons.beta1 == pytest.approx(2 * (1.0 + drift) * 16.0)
    assert cons.beta2 == pytest.approx(2 * cons.Delta / cons.rho_bar)
    assert cons.beta == pytest.approx(
        max(cons.beta_tilde, (1 + cons.K_growth * cons.beta_tilde) ** cons.m - 1)
    )
    cons.validate(moving_wall, 1.0)


def test_constants_zero_moduli_bound_by_tube():
    p = pb.get_problem("corridor-2d")
    ver = ipc.verify_ipc(p, (0, 2 * math.pi), r_min=0.9, delta=0.5,
                         n_time=12, n_dirs=8)
    cons = tj.derive_nft_constants(p, ver.certificate, 1.0)
    eta_hat = min(ver.certificate.eta, p.data.eta_tilde)
    # gamma = phi = 0: only the tube condition 4 Delta M <= eta_hat binds
    assert cons.Delta == pytest.approx(eta_hat / (4 * p.data.M))


def test_constants_invalid_certificate(moving_wall, mw_cert):
    bad = ipc.IpcCertificate(r=mw_cert.r, delta=mw_cert.delta, eps=-1.0,
                             eta=mw_cert.eta, witnesses=(), n_samples=1)
    with pytest.raises(ConstantsInfeasible):
        tj.derive_nft_constants(moving_wall, bad, 1.0)


# --- repair ---------------------------------------------------------------------------

def _violating_reference(p, t0, x0, steps, dt, u_idx):
    return tj.integrate(p, t0, x0, [u_idx] * steps, steps, dt)


def test_nft_deep_interior_passthrough(moving_wall, mw_cert):
    ref = _violating_reference(moving_wall, 0.0, [-0.5], 1000, 1e-3, 1)
    res = tj.nft_correct(moving_wall, mw_cert, ref)
    assert res.sup_dist == 0.0
    assert np.array_equal(res.corrected.states, ref.states)
    assert res.interior_clearance > 0


def test_nft_infeasible_start_raises(moving_wall, mw_cert):
    ref = _violating_reference(moving_wall, 0.0, [1.5], 100, 1e-3, 1)
    with pytest.raises(InfeasibleStart):
        tj.nft_correct(moving_wall, mw_cert, ref)


def test_nft_wall_dip(moving_wall, mw_cert):
    # constant reference at 0.95 while the wall dips to 0.9
    t_end = math.pi + math.asin(0.25)
    ref = _violating_reference(moving_wall, t_end - 1.0, [0.95], 1000, 1e-3, 1)
    res = tj.nft_correct(moving_wall, mw_cert, ref)
    assert res.rho_in == pytest.approx(0.05, abs=1e-3)
    corrected = res.corrected
    assert np.array_equal(corrected.states[0], ref.states[0])
    viol = geo.violations_along(moving_wall, corrected.times, corrected.states)
    assert viol.max() <= geo.TOL_FEAS
    assert res.interior_clearance > 0
    assert res.sup_dist <= res.beta_used * res.rho_in
    # the corrected path dips below the wall level
    assert corrected.states[-1, 0] < 0.9


def test_nft_solves_each_margin_game_once_per_call(moving_wall, mw_cert, monkeypatch):
    games = []

    def counted(Q):
        games.append(np.asarray(Q).tobytes())
        return solve_matrix_game(Q)

    monkeypatch.setattr(ipc, "solve_matrix_game", counted)
    t_end = math.pi + math.asin(0.25)
    ref = _violating_reference(moving_wall, t_end - 1.0, [0.95], 1000, 1e-3, 1)
    counts = []
    for _ in range(2):
        games.clear()
        res = tj.nft_correct(moving_wall, mw_cert, ref)
        counts.append(len(games))
        assert res.pieces["push"] + res.pieces["restart"] > 0
        assert 0 < len(games) == len(set(games))
    # the memo lives for one repair: a repeat solves the same games again
    assert counts[0] == counts[1]


def test_nft_matches_brute_force_scale(moving_wall, mw_cert):
    # coarse-grid exhaustive search over feasible control sequences gives the
    # least possible sup-distance; the repair may do better only by grid
    # resolution effects
    t_end = math.pi + math.asin(0.25)
    t0 = t_end - 1.0
    dt_coarse = 0.125
    ref_c = _violating_reference(moving_wall, t0, [0.95], 8, dt_coarse, 1)
    brute = best_feasible_tracking(moving_wall, t0, ref_c.states, dt_coarse)
    ref = _violating_reference(moving_wall, t0, [0.95], 1000, 1e-3, 1)
    res = tj.nft_correct(moving_wall, mw_cert, ref)
    assert res.sup_dist >= brute - 2 * moving_wall.data.M * dt_coarse
    assert res.sup_dist <= res.beta_used * res.rho_in


def test_nft_scaling_in_violation(moving_wall, mw_cert):
    # same wall, reference offset scaled: sup_dist tracks the violation
    t_end = math.pi + math.asin(0.25)
    t0 = t_end - 1.0
    ratios = []
    for rho in (0.05, 0.025):
        x0 = 0.9 + rho
        ref = _violating_reference(moving_wall, t0, [x0], 1000, 1e-3, 1)
        res = tj.nft_correct(moving_wall, mw_cert, ref)
        assert res.rho_in == pytest.approx(rho, abs=1e-3)
        ratios.append(res.sup_dist / res.rho_in)
    assert abs(ratios[0] - ratios[1]) / ratios[1] <= 0.10


def test_nft_grid_too_coarse(moving_wall, mw_cert):
    ref = _violating_reference(moving_wall, 0.0, [0.5], 5, 0.2, 1)
    with pytest.raises(CorrectionFailed):
        tj.nft_correct(moving_wall, mw_cert, ref)


# --- tracking -------------------------------------------------------------------------

def test_tracking_identical_start(moving_wall, mw_cert):
    ref = tj.viable_trajectory(moving_wall, mw_cert, 0.0, [0.5], 3.0, 1e-3)
    run = tj.track_feasible(moving_wall, mw_cert, ref, ref.states[0], 2.0)
    assert np.max(run.deviations) <= tj.TOL_ODE


def test_tracking_bound_and_feasibility(moving_wall, mw_cert):
    ref = tj.viable_trajectory(moving_wall, mw_cert, 0.0, [0.5], 6.0, 1e-3)
    run = tj.track_feasible(moving_wall, mw_cert, ref, [0.4], 5.0)
    times = run.trajectory.times
    assert np.all(run.deviations <= run.bound(times) + 1e-12)
    assert np.all(np.isfinite(run.deviations))
    viol = geo.violations_along(moving_wall, times, run.trajectory.states)
    assert viol.max() <= geo.TOL_FEAS


def test_tracking_constants_constructor_rejects_bad_k1():
    with pytest.raises(ValueError):
        tj.TrackingConstants(K1=0.1, K2=0.0, k_tilde=0.0, K=0.1, C=3.0, beta=1.0)


def test_tracking_constants_majorize_phi_integral():
    p = pb.get_problem("moving-wall-1d")
    tc = tj.derive_tracking_constants(p, beta=5.0, horizon=5.0)
    for t in np.linspace(0, 5, 21):
        assert p.data.phi.integral(0, t + 1) <= tc.K2 * t + tc.k_tilde + 1e-12
    assert 2 * 5.0 + 1 < math.exp(tc.K1)
    assert tc.K == pytest.approx(tc.K1 + tc.K2)
    assert tc.C == pytest.approx(math.exp(tc.k_tilde) * 11.0)


def test_filippov_integrated_tracking_bound():
    # state-coupled dynamics exercise the Lipschitz growth factor in the
    # projection contract: ||target path - realized|| bounded by the
    # accumulated per-step mismatch inflated by exp(theta_phi(T))
    def f(t, x, u):
        return -0.5 * np.asarray(x, dtype=float) + np.asarray(u, dtype=float)

    controls = pb.ControlSamples(1, lambda t, l: np.linspace(-1, 1, 5)[:, None])
    p = simple_problem(f, zero_cost, controls=controls, phi=0.5, c=2.0,
                       name="coupled")
    rng = np.random.default_rng(12)
    steps, dt = 200, 0.01
    w = rng.uniform(-1.2, 1.2, size=(steps, 1))
    proj = tj.filippov_project(p, 0.0, [0.3], w, steps, dt)
    z = np.vstack([[0.3], 0.3 + np.cumsum(w * dt, axis=0)])
    mismatch = np.array([
        np.linalg.norm(np.asarray(p.f(float(proj.times[j]), proj.states[j],
                                      proj.controls[j]), dtype=float) - w[j])
        for j in range(steps)
    ])
    growth = math.exp(p.data.phi.theta(steps * dt))
    bound = growth * float(mismatch.sum()) * dt + 5 * (1 + p.data.M) * dt
    assert float(np.max(np.abs(proj.states - z))) <= bound


# --- one march for every construction -------------------------------------------------

_CERT_OF = {"moving_wall": "mw_cert", "corridor": "corridor_cert",
            "hover": "hover_cert", "quadratic": "quadratic_cert"}


def _assert_same_path(traj, ref_states, ref_ctrl):
    assert np.array_equal(traj.states, ref_states)
    assert np.array_equal(traj.controls, ref_ctrl)


@pytest.mark.parametrize("name", sorted(_CERT_OF) + ["corner-2d"])
def test_constructions_match_loop_references(name, request):
    """Every step-loop construction reproduces its hand-written RK4 sweep bit
    for bit, starting a small depth inside the boundary and drifting out.
    On corner-2d the viable path reaches the corner, where its game is
    mixed and the mixture credit picks the controls."""
    if name in _WALLED:
        p, cert = _walled_case(name)
        dt = 1e-3
    else:
        p = request.getfixturevalue(name)
        cert = request.getfixturevalue(_CERT_OF[name])
        dt = 0.01
    rng = np.random.default_rng(47)
    t0, steps = 0.4, 60
    xb = geo.sample_boundary_points(p, t0, 8)[0]
    hv = geo.eval_constraints(p, t0, xb)
    g = np.asarray(p.constraints[int(np.argmax(hv))].grad(t0, xb), dtype=float).reshape(-1)
    g /= np.linalg.norm(g)
    x0 = xb - 0.05 * g
    u0 = p.controls.at(t0, 0)
    outward = int(np.argmax(u0 @ g))
    idx = np.where(rng.random(steps) < 0.8, outward, rng.integers(0, len(u0), steps))

    ref = tj.integrate(p, t0, x0, idx.tolist(), steps, dt)
    _assert_same_path(ref, *oracles.integrate_loop(p, t0, x0, idx, steps, dt))

    U = rng.uniform(-1.0, 1.0, (steps, p.controls.dim))
    _assert_same_path(tj.integrate_controls(p, t0, x0, U, dt),
                      *oracles.integrate_controls_loop(p, t0, x0, U, dt))

    for w in (ref.velocities() + 0.3 * rng.standard_normal((steps, p.n)),
              np.zeros((steps, p.n)), 0.5 * ref.velocities()):
        _assert_same_path(tj.filippov_project(p, t0, x0, w, steps, dt),
                          *oracles.filippov_project_loop(p, t0, x0, w, steps, dt))

    for radius in (None, 0.06):
        traj = tj.viable_trajectory(p, cert, t0, x0, t0 + 1.0, dt, tube_radius=radius)
        _assert_same_path(traj, *oracles.viable_trajectory_loop(
            p, cert, t0, x0, t0 + 1.0, dt, tube_radius=radius))

    cons = tj.derive_nft_constants(p, cert, 1.0)
    rho = float(geo.distances_upper_along(p, ref.times, ref.states).max())
    shallow = dataclasses.replace(cert, delta=1e-6)
    # a finite margin pushes for s > 0 steps; an infinite one replays at once
    assert math.isfinite(ipc.inward_margin(p, t0, x0, cert.delta).r)
    assert ipc.inward_margin(p, t0, x0, shallow.delta).r == math.inf
    for c, rho_c in ((cert, max(rho, 1e-3)), (cert, 1e-8), (shallow, max(rho, 1e-3))):
        got = tj._case_push_and_replay(p, c, cons, t0, ref.states, rho_c, dt, 0)
        want = oracles.push_and_replay_loop(p, c, cons, t0, ref.states, rho_c, dt)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


# --- velocity evaluations per step -------------------------------------------------

def _counting_f(p):
    """Copy of ``p`` whose ``f`` counts the velocity rows it evaluates."""
    rows = [0]

    def f(t, x, u):
        v = np.asarray(p.f(t, x, u), dtype=float)
        rows[0] += v.size // p.n
        return v

    return dataclasses.replace(p, f=f), rows


@pytest.mark.parametrize("name", sorted(_CERT_OF))
def test_projection_evaluates_few_f_rows_per_kept_step(name, request):
    # a block's iteration evaluates the k sampled velocities for the nearest
    # rule, whose chosen rows are RK4's first stage, and three stages, for
    # each of its steps; the target path's guesses cost one iteration more
    p, rows = _counting_f(request.getfixturevalue(name))
    steps = 37
    w = np.full((steps, p.n), 0.3)
    tj.filippov_project(p, 0.2, p.anchor(0.2), w, steps, 0.01)
    k = len(p.controls.at(0.2))
    assert rows[0] <= 2 * (k + 3) * steps


_PROJECTED = {"sway-1d": sway_problem, "drift-1d": lambda: drift_problem(1),
              "drift-2d": lambda: drift_problem(2)}


@pytest.mark.parametrize("name", sorted(_PROJECTED))
def test_projection_matches_loop_reference_when_f_varies(name):
    """The reused first stage is bit for bit the loop's ``f(t, x, u)`` when f
    depends on x (sway) or on t (drift)."""
    p = _PROJECTED[name]()
    rng = np.random.default_rng(11)
    t0, dt, steps = 0.3, 0.02, 80
    x0 = 0.5 * rng.uniform(-1.0, 1.0, p.n)
    for w in (rng.standard_normal((steps, p.n)), np.zeros((steps, p.n)),
              np.tile(0.7 * p.controls.at(t0)[-1] + 0.05, (steps, 1))):
        _assert_same_path(tj.filippov_project(p, t0, x0, w, steps, dt),
                          *oracles.filippov_project_loop(p, t0, x0, w, steps, dt))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 17, 128, 129, 300])
def test_row_norms_equal_numpy_bit_for_bit(n):
    """The selection's norms over a block of steps sum each step's squares
    in numpy's order for any state size (one running sum below 8 terms,
    pairwise blocks from 8 on), as that step's own norm does."""
    D = np.random.default_rng(n).standard_normal((6, 5, n)) * np.logspace(-3, 3, n)
    got = pb.summed_norms(D)
    for s in range(5):
        assert got[:, s].tobytes() == np.linalg.norm(D[:, s], axis=1).tobytes()


_SELECTING = {**_PROJECTED, "corridor-2d": lambda: pb.get_problem("corridor-2d")}


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(_SELECTING)), t=_TIMES, dt=_STEPS,
       target=st.sampled_from(["random", "midpoint"]),
       z_next=st.sampled_from(["random", "along"]), rows=st.integers(1, 4), data=st.data())
def test_select_control_matches_loop_reference(name, t, dt, target, z_next, rows, data):
    """The nearest-velocity rule picks the loop reference's control row, also
    for a target exactly between two sampled velocities, where the tie is
    broken by the next position and then by the lowest index; over a block
    of steps at different times and states, each step's as if alone."""
    p = _SELECTING[name]()
    coords = st.lists(st.floats(-1.4, 1.4), min_size=p.n, max_size=p.n)
    T = t + dt * np.arange(rows)
    X = np.array([data.draw(coords) for _ in range(rows)])
    u = p.controls.at(t)          # the same at every time for these problems
    _, V = p.velocities(T, X, 0, u)
    W, Z = np.empty_like(X), np.empty_like(X)
    for i in range(rows):
        if target == "random":
            W[i] = data.draw(coords)
        else:
            pair = st.lists(st.integers(0, len(V) - 1), min_size=2, max_size=2, unique=True)
            a, b = data.draw(pair)
            W[i] = (V[a, i] + V[b, i]) / 2
        Z[i] = X[i] + dt * W[i] if z_next == "along" else data.draw(coords)
    idx, q = tj._select(V, X, W, Z, dt)
    assert q == rows
    for i in range(rows):
        want = oracles.nearest_control(p, float(T[i]), X[i], W[i], Z[i], dt, 0)
        assert u[idx[i]].tobytes() == want.tobytes()
        assert V[idx[i], i].tobytes() == np.asarray(p.f(T[i], X[i], want), dtype=float).tobytes()


def _drift_walls():
    """``drift-2d`` between two walls ``|y - 0.2 sin t| <= 1``."""
    walls = (affine_constraint("upper", [0.0, 1.0], lambda t: -(1.0 + 0.2 * np.sin(t))),
             affine_constraint("lower", [0.0, -1.0], lambda t: -(1.0 - 0.2 * np.sin(t))))
    return dataclasses.replace(drift_problem(2), constraints=walls, name="drift-walls-2d")


@pytest.mark.parametrize("make", [sway_walls, _drift_walls], ids=["sway-walls", "drift-walls"])
def test_viable_trajectory_matches_loop_reference_when_f_varies(make):
    """The viability rule reproduces the loop reference bit for bit when f
    depends on x and t (sway) or on t (drift), starting just inside the
    upper wall while it moves down."""
    p = make()
    cert = ipc.verify_ipc(p, (0.0, 2 * math.pi), r_min=0.05, delta=0.5,
                          n_time=24, n_dirs=8).certificate
    t0, dt = 2.0, 0.01
    xb = max(geo.sample_boundary_points(p, t0, 8), key=lambda q: q[-1])
    x0 = xb - 0.03 * np.eye(p.n)[-1]
    for radius in (None, 0.06):
        traj = tj.viable_trajectory(p, cert, t0, x0, t0 + 1.0, dt, tube_radius=radius)
        _assert_same_path(traj, *oracles.viable_trajectory_loop(
            p, cert, t0, x0, t0 + 1.0, dt, tube_radius=radius))
        # the rule acted: some steps left the default control
        assert np.any(np.abs(traj.controls - p.default_control).max(axis=1) > 0)


def test_nonfinite_sampled_velocity_is_named():
    """A NaN among the sampled velocities stops the nearest-velocity rule
    with the time, the state and the control row, not an IndexError."""
    def f(t, x, u):
        u = np.asarray(u, dtype=float)
        return np.where(u < 0, np.nan, 0.0) + u + 0.0 * np.asarray(x, dtype=float)

    p = simple_problem(f, zero_cost, name="nan-velocity")
    with pytest.raises(NonFiniteState, match=r"control \[-1\.0\] at t=0\.0, x=\[0\.0\]"):
        tj.filippov_project(p, 0.0, [0.0], np.full((10, 1), 1.0), 10, 0.01)


def _first_state(states, bad):
    """Index of the first row of ``states`` for which ``bad`` holds."""
    return next(j for j, x in enumerate(states) if bad(x))


def test_nonfinite_velocity_is_named_at_its_step():
    """A velocity that turns NaN only once the path has moved stops the
    projection at that step, with that step's time and state."""
    def f(t, x, u):
        x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
        return np.where((u < 0) & (x > 0.05), np.nan, 0.0) + u + 0.0 * x

    p = simple_problem(f, zero_cost, name="late-nan-velocity")
    steps, dt = 40, 0.01
    states, _ = oracles.integrate_loop(p, 0.0, [0.0], [2] * steps, steps, dt)
    j = _first_state(states, lambda x: x[0] > 0.05)
    assert j > 3
    t, x = j * dt, states[j]
    msg = (f"velocity of control [-1.0] at t={t}, x={x.tolist()} is not finite: "
           f"{[math.nan]}")
    with pytest.raises(NonFiniteState) as err:
        tj.filippov_project(p, 0.0, [0.0], np.full((steps, 1), 1.0), steps, dt)
    assert str(err.value) == msg


@pytest.mark.parametrize("construction", ["integrate", "project"])
def test_blow_up_is_named_at_its_step(construction):
    """A state that leaves every bound stops the march at the step that
    produced it, named by that step's start time."""
    def f(t, x, u):
        x = np.asarray(x, dtype=float)
        return x ** 2 + 1.0 + 0.0 * np.asarray(u, dtype=float)

    p = simple_problem(f, zero_cost, name="blowup")
    steps, dt = 400, 0.01
    with np.errstate(over="ignore", invalid="ignore"):
        states, _ = oracles.integrate_loop(p, 0.0, [1.0], [2] * steps, steps, dt)
    j = _first_state(states, lambda x: not abs(x[0]) <= 1e12) - 1
    assert j > 10
    with pytest.raises(NonFiniteState) as err:
        if construction == "integrate":
            tj.integrate(p, 0.0, [1.0], [2] * steps, steps, dt)
        else:
            tj.filippov_project(p, 0.0, [1.0], np.zeros((steps, 1)), steps, dt)
    assert str(err.value) == f"state blow-up near t={j * dt}"


def test_viability_loss_is_named_at_its_step(hover, hover_cert):
    """A default control that carries the path through the wall between
    two nodes of a thin acting tube stops the march at the first node past
    the wall, with its time and violation."""
    steps, dt = 100, 0.007
    states, _ = oracles.integrate_loop(hover, 0.0, [0.0], [1] * steps, steps, dt)
    j = _first_state(states, lambda x: geo.max_violation(hover, 0.0, x) > geo.TOL_FEAS)
    viol = geo.max_violation(hover, j * dt, states[j])
    assert j > 10 and viol > 1e-4
    with pytest.raises(ViabilityLost) as err:
        tj.viable_trajectory(hover, hover_cert, 0.0, [0.0], steps * dt, dt, tube_radius=1e-6)
    assert str(err.value) == f"feasibility lost at t={j * dt} (max h = {viol:.3e}); dt too coarse?"


@pytest.mark.parametrize("radius", [0.05, 0.2])
def test_nonpositive_margin_is_named_at_its_step(hover_cert, radius):
    """Controls that all point out through the wall give a pure margin game
    of negative value: the march stops at its first step in the acting
    tube, with that step's time, though a block meets the step first."""
    wall = affine_constraint("wall", [1.0], lambda t: -0.5 + 0.0 * t)
    p = simple_problem(unit_velocity, zero_cost, constraints=(wall,),
                       controls=pb.ControlSamples(1, lambda t, l: np.array([[0.5], [1.0]])),
                       name="outward-1d")
    p = dataclasses.replace(p, default_control=np.array([0.5]))
    assert ipc.inward_margin(p, 0.0, [0.5], hover_cert.delta).r == -0.5
    steps, dt = 200, 0.01
    states, _ = oracles.integrate_loop(p, 0.0, [0.0], [0] * steps, steps, dt)
    j = _first_state(states, lambda x: x[0] - 0.5 >= -radius)
    assert j > 10
    with pytest.raises(ViabilityLost) as err:
        tj.viable_trajectory(p, hover_cert, 0.0, [0.0], steps * dt, dt, tube_radius=radius)
    assert str(err.value) == f"nonpositive inward margin at t={j * dt}"


def test_pure_step_at_a_nonzero_credit_follows_the_credit():
    """The viable path's first step is a mixed pick at a box corner; 500
    steps later it meets the first wall alone, whose game is pure, but the
    credit left by that pick makes the multiplexer choose another control.
    A block may take a pure step only at a zero credit, so the path is
    still the loop's."""
    p = credit_problem()
    cert = dataclasses.replace(_walled_case("corner-2d")[1], delta=0.1)
    x0, dt, steps = [0.499, 0.499, 0.499], 1e-3, 700
    want = oracles.viable_trajectory_loop(p, cert, 0.0, x0, steps * dt, dt, steps=steps,
                                          tube_radius=0.003)
    u = p.controls.at(0.0)
    taken = np.flatnonzero(np.abs(want[1] - p.default_control).max(axis=1) > 0)
    assert taken[0] == 0 and taken[1] > 64
    assert ipc.inward_margin(p, taken[1] * dt, want[0][taken[1]], cert.delta).alpha.tolist() == \
        [1.0, 0.0, 0.0, 0.0]
    assert np.array_equal(want[1][taken[1]], u[1])
    _assert_same_path(tj.viable_trajectory(p, cert, 0.0, x0, steps * dt, dt, steps=steps,
                                           tube_radius=0.003), *want)


def _batch_dependent_problem():
    """Velocity ``u @ B.T`` with a non-dyadic ``B``: a BLAS product that may
    round a control's row differently in a batch than alone, between two
    walls ``|y| <= 0.5``."""
    B = np.array([[0.93, 0.17], [-0.11, 1.07]])

    def f(t, x, u):
        return np.asarray(u, dtype=float) @ B.T + 0.0 * np.asarray(x, dtype=float)

    ring = np.column_stack([np.cos(np.arange(8) * math.pi / 4), np.sin(np.arange(8) * math.pi / 4)])
    walls = (affine_constraint("upper", [0.0, 1.0], lambda t: -0.5 + 0.0 * t),
             affine_constraint("lower", [0.0, -1.0], lambda t: -0.5 + 0.0 * t))
    return simple_problem(f, zero_cost, constraints=walls, n=2, M=1.5,
                          controls=pb.ControlSamples(2, lambda t, l: ring),
                          box=[[-2.0, 2.0], [-1.0, 1.0]], name="batch-dependent-2d")


def test_residual_contract_when_rows_depend_on_the_batch():
    p = _batch_dependent_problem()
    cert = ipc.verify_ipc(p, (0.0, 2.0), r_min=0.1, delta=0.3, n_time=4, n_dirs=8).certificate
    t0, dt, steps = 0.0, 0.01, 150
    x0 = np.array([0.1, 0.45])
    w = np.tile([0.2, 1.0], (steps, 1))
    paths = [tj.filippov_project(p, t0, x0, w, steps, dt),
             tj.viable_trajectory(p, cert, t0, x0, t0 + steps * dt, dt, tube_radius=0.05)]
    stepped = 0
    for traj in paths:
        for j in range(traj.n_steps):
            want = oracles.rk4_step(p.f, float(traj.times[j]), traj.states[j],
                                    traj.controls[j], dt)
            assert np.abs(traj.states[j + 1] - want).max() <= tj.TOL_ODE
            stepped += 1
    # the viable path met the wall: some steps took the margin mixture
    assert np.any(np.abs(paths[1].controls - p.default_control).max(axis=1) > 0)
    assert stepped == 2 * steps


# --- blocks of steps, kept only where proven exact -------------------------------------

def _scrambled_guesses(rng, calls):
    """A ``tj._guesses`` hook: each block cut at a random length, its guesses
    kept, moved by one ulp, moved at random, sent to +-inf, or made NaN."""
    def hook(j, G):
        calls.append(j)
        G = G[:rng.integers(1, len(G) + 1)]
        kind = rng.integers(6)
        if kind == 1:
            G[1:] = np.nextafter(G[1:], np.inf)
        elif kind == 2:
            G[1:] += rng.normal(0.0, 0.05, G[1:].shape)
        elif kind == 3:
            G[1:] = rng.uniform(-3.0, 3.0, G[1:].shape)
        elif kind == 4:
            G[1:] = np.inf * rng.choice([-1.0, 1.0], G[1:].shape)
        elif kind == 5:
            G[1:] = np.nan
        return G
    return hook


_WALLED = {"sway-walls": sway_walls, "drift-walls": _drift_walls, "corner-2d": corner_problem}
_MARCHED = {**_PROJECTED, **_WALLED}


@functools.lru_cache(maxsize=None)
def _walled_case(name):
    p = _WALLED[name]()
    cert = ipc.verify_ipc(p, (0.0, 2 * math.pi), r_min=0.05, delta=0.5,
                          n_time=24, n_dirs=8).certificate
    return p, cert


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(_CERT_OF) + sorted(_MARCHED)),
       construction=st.sampled_from(["integrate", "controls", "project", "viable", "push"]),
       steps=st.integers(2, 150), seed=st.integers(0, 2 ** 32 - 1))
# corner-2d at dt = 1e-3 (the seeds' draw): the viable path reaches the
# corner, whose mixed game runs on the mixture credit
@example(name="corner-2d", construction="viable", steps=150, seed=1)
@example(name="corner-2d", construction="viable", steps=120, seed=4)
@example(name="corner-2d", construction="viable", steps=150, seed=7)
@example(name="corner-2d", construction="push", steps=100, seed=9)
def test_march_equals_loop_reference_from_any_guesses(
        name, construction, steps, seed, moving_wall, corridor, hover, quadratic,
        mw_cert, corridor_cert, hover_cert, quadratic_cert):
    """Whatever a block guesses and wherever it ends, every construction is
    its step loop bit for bit: only steps proven exact are kept, and a block
    that raises or warns at its guesses (an inf guess makes f's 0 * x NaN)
    is redone alone."""
    fixtures = {"moving_wall": (moving_wall, mw_cert), "corridor": (corridor, corridor_cert),
                "hover": (hover, hover_cert), "quadratic": (quadratic, quadratic_cert)}
    if name in fixtures:
        p, cert = fixtures[name]
    elif name in _WALLED:
        p, cert = _walled_case(name)
    else:
        p, cert = _PROJECTED[name](), None
    if cert is None and construction in ("viable", "push"):
        construction = "project"
    rng = np.random.default_rng(seed)
    t0, dt = float(rng.uniform(0.0, 6.0)), float(rng.choice([0.01, 0.02, 1e-3]))
    if p.m:
        xb = max(geo.sample_boundary_points(p, t0, 8), key=lambda q: q[-1])
        x0 = xb - 0.03 * np.eye(p.n)[-1]
    else:
        x0 = rng.uniform(-0.5, 0.5, p.n)
    u0 = p.controls.at(t0, 0)
    idx = rng.integers(0, len(u0), steps)
    calls = []
    with mock.patch.object(tj, "_guesses", _scrambled_guesses(rng, calls)):
        if construction == "integrate":
            got = tj.integrate(p, t0, x0, idx.tolist(), steps, dt)
            want = oracles.integrate_loop(p, t0, x0, idx, steps, dt)
        elif construction == "controls":
            U = rng.uniform(-1.0, 1.0, (steps, p.controls.dim))
            got = tj.integrate_controls(p, t0, x0, U, dt)
            want = oracles.integrate_controls_loop(p, t0, x0, U, dt)
        elif construction == "project":
            w = rng.choice([0.0, 0.3, 1.0]) * rng.standard_normal((steps, p.n))
            got = tj.filippov_project(p, t0, x0, w, steps, dt)
            want = oracles.filippov_project_loop(p, t0, x0, w, steps, dt)
        elif construction == "viable":
            radius = rng.choice([None, 0.06])
            got = tj.viable_trajectory(p, cert, t0, x0, t0 + steps * dt, dt, tube_radius=radius)
            want = oracles.viable_trajectory_loop(p, cert, t0, x0, t0 + steps * dt, dt,
                                                  tube_radius=radius)
        else:
            ref = oracles.integrate_loop(p, t0, x0, idx, steps, dt)[0]
            cons = tj.derive_nft_constants(p, cert, 1.0)
            got = tj.Trajectory(t0 + dt * np.arange(steps + 1), *tj._case_push_and_replay(
                p, cert, cons, t0, ref, 1e-3, dt, 0), dt)
            want = oracles.push_and_replay_loop(p, cert, cons, t0, ref, 1e-3, dt)
    assert calls or construction == "push"
    _assert_same_path(got, *want)


def test_residual_contract_from_any_guesses():
    """With velocity rows that depend on the batch, a march from any guesses
    still meets the residual contract at every step."""
    p = _batch_dependent_problem()
    cert = ipc.verify_ipc(p, (0.0, 2.0), r_min=0.1, delta=0.3, n_time=4, n_dirs=8).certificate
    t0, dt, steps = 0.0, 0.01, 150
    x0 = np.array([0.1, 0.45])
    w = np.tile([0.2, 1.0], (steps, 1))
    for seed in range(4):
        with mock.patch.object(tj, "_guesses", _scrambled_guesses(np.random.default_rng(seed), [])):
            paths = [tj.filippov_project(p, t0, x0, w, steps, dt),
                     tj.viable_trajectory(p, cert, t0, x0, t0 + steps * dt, dt, tube_radius=0.05)]
        for traj in paths:
            for j in range(traj.n_steps):
                want = oracles.rk4_step(p.f, float(traj.times[j]), traj.states[j],
                                        traj.controls[j], dt)
                assert np.abs(traj.states[j + 1] - want).max() <= tj.TOL_ODE


def test_velocity_that_overflows_off_the_path_does_not_warn():
    """A velocity that overflows, and warns, only far from the path (|x| > 1.7)
    gives the loop's path: the blocks whose guesses go there are redone
    alone, and no warning reaches the caller, whatever the filters."""
    def f(t, x, u):
        x = np.asarray(x, dtype=float)
        return np.asarray(u, dtype=float) + 0.0 * np.exp(400.0 * np.abs(x))

    p = simple_problem(f, zero_cost, name="overflow-off-path")
    steps, dt = 120, 0.01
    rng = np.random.default_rng(3)
    idx = rng.integers(0, 3, steps)
    w = rng.uniform(-0.5, 0.5, (steps, 1))
    calls = []

    def far(j, G):
        calls.append(j)
        G[1:] = 3.0
        return G

    with mock.patch.object(tj, "_guesses", far), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _assert_same_path(tj.integrate(p, 0.0, [0.0], idx.tolist(), steps, dt),
                          *oracles.integrate_loop(p, 0.0, [0.0], idx, steps, dt))
        _assert_same_path(tj.filippov_project(p, 0.0, [0.0], w, steps, dt),
                          *oracles.filippov_project_loop(p, 0.0, [0.0], w, steps, dt))
    assert len(calls) >= 2 * steps / tj._BLOCK
    assert not caught, [str(w.message) for w in caught]


def test_velocity_that_warns_on_the_path_warns_as_the_loop_does():
    """A velocity whose evaluation overflows, and warns, at every step past
    |x| = 0.89 warns as often as the loop under the "default" action: once
    per location.  The blocks that meet the overflow are redone alone, and
    catching it there leaves the warnings registry as it was."""
    def f(t, x, u):
        x = np.asarray(x, dtype=float)
        return np.asarray(u, dtype=float) + 1.0 / (1.0 + np.exp(800.0 * np.abs(x)))

    p = simple_problem(f, zero_cost, name="overflow-on-path")
    steps, dt = 150, 0.01
    idx = [2] * steps
    paths, shown = [], []
    for march in (tj.integrate, oracles.integrate_loop):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            paths.append(march(p, 0.0, [0.8], idx, steps, dt))
        shown.append([(w.category, str(w.message), w.lineno) for w in caught])
    _assert_same_path(paths[0], *paths[1])
    assert shown[0] == shown[1] and len(shown[0]) == 1, shown


def test_blocks_end_where_the_samples_change():
    """Control samples that change every few steps, in values and in count:
    each block's velocities use only the samples its steps share, so the
    projection is its loop reference bit for bit."""
    def sampler(t, level):
        phase = int(t / 0.047)
        return np.linspace(-1.0, 1.0, 3 + phase % 3)[:, None] * (1.0 + 0.1 * phase)

    p = simple_problem(sway_problem().f, zero_cost, controls=pb.ControlSamples(1, sampler),
                       name="shifting-samples")
    steps, dt = 120, 0.01
    w = np.random.default_rng(8).uniform(-1.0, 1.0, (steps, 1))
    want = oracles.filippov_project_loop(p, 0.0, [0.2], w, steps, dt)
    _assert_same_path(tj.filippov_project(p, 0.0, [0.2], w, steps, dt), *want)
    with mock.patch.object(tj, "_guesses", _scrambled_guesses(np.random.default_rng(9), [])):
        _assert_same_path(tj.filippov_project(p, 0.0, [0.2], w, steps, dt), *want)


@pytest.mark.parametrize("error", [TypeError, AttributeError, IndexError, ValueError])
@pytest.mark.parametrize("method", ["guess", "block"])
@pytest.mark.parametrize("construction", ["integrate", "project", "viable"])
def test_defect_in_a_rules_block_code_raises(construction, method, error, moving_wall, mw_cert):
    """Only a floating-point error or a toolkit error at a block's guesses
    sends the block's steps to run alone: an error of the rule's own code
    in a block is raised, not hidden behind paths that are merely slower."""
    rule = {"integrate": tj._Held, "project": tj._Nearest, "viable": tj._Viable}[construction]

    def faulty(self, *args):
        raise error("defect in the rule")

    steps, dt = 200, 1e-3
    with mock.patch.object(rule, method, faulty), pytest.raises(error, match="defect in the rule"):
        if construction == "integrate":
            tj.integrate(moving_wall, 0.0, [0.5], [1] * steps, steps, dt)
        elif construction == "project":
            tj.filippov_project(moving_wall, 0.0, [0.5], np.full((steps, 1), 0.3), steps, dt)
        else:
            tj.viable_trajectory(moving_wall, mw_cert, 0.0, [0.5], steps * dt, dt)
