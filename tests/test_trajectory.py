import dataclasses
import math

import numpy as np
import pytest

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
from util import simple_problem, zero_cost


# --- integration -----------------------------------------------------------------

def test_integrate_constant_control_zero(moving_wall):
    traj = tj.integrate(moving_wall, 0.0, [0.5], [1] * 10, 10, 0.1)
    assert np.max(np.abs(traj.states - 0.5)) == 0.0


def test_integrate_linear_exact(moving_wall):
    traj = tj.integrate(moving_wall, 0.0, [0.0], [2] * 100, 100, 0.01)
    assert abs(traj.states[-1, 0] - 1.0) < 1e-12


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
        step = tj._rk4_step(moving_wall.f, t, traj.states[j], traj.controls[j], traj.step)
        assert np.linalg.norm(traj.states[j + 1] - step) <= tj.TOL_ODE


def test_rk4_step_rejects_nan_state():
    def f(t, x, u):
        return np.full_like(np.asarray(x, dtype=float), np.nan)

    with pytest.raises(NonFiniteState, match="blow-up"):
        tj._rk4_step(f, 0.0, np.zeros(1), np.zeros(1), 0.1)


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


@pytest.mark.parametrize("name", sorted(_CERT_OF))
def test_constructions_match_loop_references(name, request):
    """Every step-loop construction reproduces its hand-written RK4 sweep bit
    for bit, starting a small depth inside the boundary and drifting out."""
    p = request.getfixturevalue(name)
    cert = request.getfixturevalue(_CERT_OF[name])
    rng = np.random.default_rng(47)
    t0, dt, steps = 0.4, 0.01, 60
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
