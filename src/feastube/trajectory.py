"""Trajectory construction: integration, velocity projection, repair, tracking.

All constructed paths live on a uniform time grid with one sampled control
per step, so the per-step dynamics residual contract is exact.  Every path is
one RK4 march (``_march``) under a per-step control rule: a control index, an
explicit control row, the nearest velocity to a target, or the viability
rule.  A rule that has already evaluated the chosen control's velocity at
the step's start hands that row to RK4 as its first stage, so the step
costs one velocity evaluation fewer.  A march can be continued from a later
step into given arrays, which is how the repair extends its projection one
piece at a time in a single forward sweep.  Mixture velocities are realized
by deterministic proportional multiplexing of their support controls across
consecutive steps (discrete chattering); for the shipped benchmarks the
optimal margin mixtures are pure controls and the multiplexer degenerates to
a constant choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import geometry as geo
from .errors import (
    ConstantsInfeasible,
    CorrectionFailed,
    InfeasibleInput,
    InfeasibleStart,
    NonFiniteState,
    ViabilityLost,
)
from .ipc import IpcCertificate, _margin, inward_margin
from .problem import ProblemDefinition

Array = np.ndarray

TOL_ODE = 1e-9
_RHO_FLOOR = 1e-8


# ---------------------------------------------------------------------------
# trajectories and integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniform-grid path with optional piecewise-constant controls.

    When controls are present, each state transition matches one fixed-step
    RK4 move of the dynamics under that step's control within ``TOL_ODE``.
    """

    times: Array
    states: Array
    controls: Array | None
    step: float

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if states.ndim == 1:
            states = states[:, None]
        if times.ndim != 1 or len(times) != len(states) or len(times) < 2:
            raise ValueError("times and states must align with at least two nodes")
        if np.max(np.abs(np.diff(times) - self.step)) > 1e-9 * max(1.0, self.step):
            raise ValueError("time grid must be uniform with the declared step")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(states))):
            raise NonFiniteState("non-finite trajectory data")
        controls = self.controls
        if controls is not None:
            controls = np.asarray(controls, dtype=float)
            if controls.ndim == 1:
                controls = controls[:, None]
            if len(controls) != len(times) - 1:
                raise ValueError("need one control per step")
            controls.setflags(write=False)
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "controls", controls)

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t1(self) -> float:
        return float(self.times[-1])

    def velocities(self) -> Array:
        return np.diff(self.states, axis=0) / self.step

    def state_at(self, t) -> Array:
        """Linear interpolation at a time or an array of times; endpoints clamp within tol."""
        ts = self.times
        t = np.asarray(t, dtype=float)
        outside = ~((t >= ts[0] - 1e-9) & (t <= ts[-1] + 1e-9))
        if np.any(outside):
            raise ValueError(f"t={t[outside][0]} outside [{ts[0]}, {ts[-1]}]")
        pos = np.clip((t - ts[0]) / self.step, 0.0, len(ts) - 1.0)
        j = np.minimum(pos.astype(int), len(ts) - 2)
        frac = (pos - j)[..., None]
        return (1 - frac) * self.states[j] + frac * self.states[j + 1]


def _rk4_step(f: Callable, t: float, x: Array, u: Array, dt: float,
              k1: Array | None = None) -> Array:
    """One classical RK4 step under the held control ``u``.

    ``k1`` is ``f(t, x, u)`` when the caller already holds it, for instance
    as row ``j`` of ``ProblemDefinition.velocities(t, x)`` for ``u = u_j``;
    it is then not evaluated again.  That row is bit for bit ``f(t, x, u)``
    when ``f`` computes each row alone (the convention in ``problem``); an
    ``f`` that does not still gives a step within ``TOL_ODE`` of the one
    evaluated here.
    """
    half = dt / 2
    t_half = t + half
    k1 = np.asarray(f(t, x, u) if k1 is None else k1, dtype=float)
    k2 = np.asarray(f(t_half, x + half * k1, u), dtype=float)
    k3 = np.asarray(f(t_half, x + half * k2, u), dtype=float)
    k4 = np.asarray(f(t + dt, x + dt * k3, u), dtype=float)
    out = x + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.maximum.reduce(np.abs(out)) <= 1e12:  # NaN fails the comparison too
        raise NonFiniteState(f"state blow-up near t={t}")
    return out


def _check_grid(dt: float, steps: int = 1) -> None:
    if not dt > 0:
        raise ValueError(f"need dt > 0, got dt={dt}")
    if steps < 1:
        raise ValueError(f"need steps >= 1, got steps={steps}")


def _march(p: ProblemDefinition, t0: float, x0, steps: int, dt: float,
           choose: Callable[[int, float, Array], tuple[Array, Array | None]],
           start: int = 0,
           out: tuple[Array, Array] | None = None) -> tuple[Array, Array]:
    """Fixed-step RK4 from ``x0`` over steps ``j`` from ``start`` on, at
    ``t = t0 + j * dt``.

    ``choose(j, t, x)`` returns the control ``u`` held over step ``j`` and
    the velocity ``f(t, x, u)`` when the rule has already evaluated it
    (``None`` otherwise); ``_rk4_step`` uses that row as its first stage.

    Returns the ``(steps + 1, n)`` states and the ``(steps, d)`` controls,
    written into ``out`` when given.  A march continued from its own state
    at a later ``start`` is bit-identical to the one long march.
    """
    _check_grid(dt, steps)
    if out is None:
        out = np.empty((steps + 1, p.n)), np.empty((steps, p.controls.dim))
    states, ctrl = out
    states[0] = np.asarray(x0, dtype=float).reshape(-1)
    for i, j in enumerate(range(start, start + steps)):
        t = t0 + j * dt
        u, k1 = choose(j, t, states[i])
        ctrl[i] = u
        states[i + 1] = _rk4_step(p.f, t, states[i], u, dt, k1)
    return states, ctrl


def integrate(
    p: ProblemDefinition,
    t0: float,
    x0,
    schedule,
    steps: int,
    dt: float,
    level: int = 0,
) -> Trajectory:
    """Fixed-step RK4 under a per-step sequence of control indices."""
    return Trajectory(t0 + dt * np.arange(steps + 1), *_march(
        p, t0, x0, steps, dt, lambda j, t, x: (p.controls.at(t, level)[int(schedule[j])], None)
    ), dt)


def integrate_controls(p: ProblemDefinition, t0: float, x0, controls, dt: float) -> Trajectory:
    """RK4 under explicit per-step control vectors (shape (N, d))."""
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    steps = len(controls)
    return Trajectory(t0 + dt * np.arange(steps + 1),
                      *_march(p, t0, x0, steps, dt, lambda j, t, x: (controls[j], None)), dt)


# ---------------------------------------------------------------------------
# velocity selection
# ---------------------------------------------------------------------------

def _row_norms(d: Array) -> Array:
    """``np.linalg.norm(d, axis=1)`` as numpy computes it, without its dispatch."""
    return np.sqrt(np.add.reduce(d * d, axis=1))


def _select_control(p, t, x, target_v, z_next, dt, level):
    """Sampled control with the nearest velocity to the target, and that velocity.

    Ties in velocity mismatch are broken by proximity of the induced next
    position to the target path node (this is what lets opposing controls
    cancel drift around an unrealizable target), then by lowest index.
    """
    u, vels = p.velocities(t, x, level)
    mism = _row_norms(vels - target_v)
    tie = (mism <= np.minimum.reduce(mism) + 1e-12).nonzero()[0]
    if tie.size > 1:
        pos = _row_norms(x + dt * vels[tie] - z_next)
        tie = tie[pos <= pos.min() + 1e-12]
    i = int(tie[0])
    return u[i], vels[i]


def _nearest_rule(p, x0: Array, w: Array, dt: float, level: int) -> Callable:
    """Step rule of the projection: the sampled velocity nearest ``w[j]``,
    ties toward the target path ``z[j + 1] = x0 + dt * sum_{i <= j} w[i]``."""
    z = x0 + np.vstack([np.zeros(w.shape[1]), np.cumsum(w * dt, axis=0)])
    return lambda j, t, x: _select_control(p, t, x, w[j], z[j + 1], dt, level)


class _MixtureMultiplexer:
    """Deterministic proportional scheduling of mixture support controls."""

    def __init__(self, k: int):
        self.credit = np.zeros(k)

    def pick(self, alpha: Array) -> int:
        if len(alpha) != len(self.credit):
            self.credit = np.zeros(len(alpha))
        self.credit += alpha
        j = int(np.argmax(self.credit))
        self.credit[j] -= 1.0
        return j


def filippov_project(
    p: ProblemDefinition,
    t0: float,
    x0,
    ref_velocity,
    steps: int,
    dt: float,
    level: int = 0,
) -> Trajectory:
    """Forward sweep choosing, per step, the sampled velocity nearest a target.

    ``ref_velocity`` is an ``(N, n)`` array of per-step target velocities.
    The realized path stays within
    ``exp(theta_phi(T)) * sum_j mismatch_j * dt + O(dt)`` of the target path
    started at the same point.
    """
    _check_grid(dt, steps)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    w = np.asarray(ref_velocity, dtype=float).reshape(steps, -1)
    if not np.all(np.isfinite(w)):
        raise ValueError("reference velocities must be finite")
    return Trajectory(t0 + dt * np.arange(steps + 1),
                      *_march(p, t0, x0, steps, dt, _nearest_rule(p, x0, w, dt, level)), dt)


# ---------------------------------------------------------------------------
# viability
# ---------------------------------------------------------------------------

def viable_trajectory(
    p: ProblemDefinition,
    cert: IpcCertificate,
    t0: float,
    x0,
    t1: float,
    dt: float,
    level: int = 0,
    steps: int | None = None,
    tube_radius: float | None = None,
    *,
    games: dict | None = None,
) -> Trajectory:
    """Feasible path: margin mixture inside a boundary sub-tube, default outside.

    The acting tube is a step-resolution sub-tube of the certified eta-tube
    (radius ``min(eta, 1.5 (M + omega_lip) dt)`` by default): the certificate
    guarantees the margin mixture everywhere in the eta-tube, and acting only
    where one step could reach the boundary keeps the path within O(dt) of
    the tube wall instead of retreating eta-deep.  ``games`` is the margin
    game memo of ``ipc.inward_margin``; by default the path keeps its own.
    """
    if steps is None:
        _check_grid(dt)
        steps = max(1, int(round((t1 - t0) / dt)))
    x = np.asarray(x0, dtype=float).reshape(-1)
    if not geo.is_feasible(p, t0, x):
        raise InfeasibleInput(f"x0 infeasible at t0={t0}")
    trig = tube_radius
    if trig is None:
        trig = min(cert.eta, 1.5 * (p.data.M + p.data.omega_lip) * dt)
    near = -trig * np.maximum(p.grad_bounds(), 1e-12)   # h_i at or above: in the tube
    m = p.m
    mux = _MixtureMultiplexer(1)
    games = {} if games is None else games

    def choose(j, t, x):
        hv = geo.eval_constraints(p, t, x)
        viol = float(hv.max()) if m else -math.inf
        if viol > geo.TOL_FEAS:
            raise ViabilityLost(f"feasibility lost at t={t} (max h = {viol:.3e}); dt too coarse?")
        if m and bool((hv >= near).any()):
            mr, u, vels = _margin(p, t, x, hv, cert.delta, level, games)
            if math.isfinite(mr.r) and mr.r <= 0:
                raise ViabilityLost(f"nonpositive inward margin at t={t}")
            if math.isfinite(mr.r):
                k = mux.pick(mr.alpha)
                return u[k], vels[k]
        return p.default_control, None

    states, ctrl = _march(p, t0, x, steps, dt, choose)
    if not geo.is_feasible(p, t0 + steps * dt, states[-1]):
        raise ViabilityLost("feasibility lost at the final node; dt too coarse?")
    return Trajectory(t0 + dt * np.arange(steps + 1), states, ctrl, dt)


# ---------------------------------------------------------------------------
# repair constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NftConstants:
    """Constant ledger for the feasibility repair construction.

    ``validate`` asserts the defining inequalities exactly as used by the
    construction; ``beta`` is the final linear-in-violation factor.
    """

    eps: float
    k_shift: float
    Delta: float
    rho_bar: float
    m: int
    beta_tilde: float
    beta: float
    K_growth: float
    eta_hat: float
    beta1: float
    beta2: float
    beta3: float

    def validate(self, p: ProblemDefinition, delta_interval: float) -> None:
        M = p.data.M
        eps, k, D = self.eps, self.k_shift, self.Delta
        checks = [
            D <= eps,
            self.rho_bar + M * D < eps,
            k * self.rho_bar < eps,
            k > 1.0 / eps,
            4 * D * M <= self.eta_hat,
            delta_interval / self.m <= D * (1 + 1e-12),
        ]
        tphi, tgam = p.data.phi.theta(D), p.data.gamma.theta(D)
        drift = math.exp(tphi) * (tgam + tphi * M)
        checks += [drift < eps, 2 * drift * k < k * eps - 1]
        want = max(self.beta_tilde, _beta3(self.m, self.K_growth, self.beta_tilde))
        checks += [self.beta == want or abs(self.beta - want) <= 1e-9 * max(1.0, self.beta)]
        if not all(checks):
            raise ConstantsInfeasible(f"constants ledger inconsistent: {checks}")

    def to_jsonable(self) -> dict:
        return {k: (float(v) if not isinstance(v, int) else v)
                for k, v in self.__dict__.items()}


def _beta3(m: int, K_growth: float, beta_tilde: float) -> float:
    """``(1 + K_growth * beta_tilde)^m - 1``, or inf once its logarithm passes 700."""
    log_b3 = m * math.log1p(K_growth * beta_tilde)
    return math.inf if log_b3 > 700 else math.expm1(log_b3)


def derive_nft_constants(
    p: ProblemDefinition, cert: IpcCertificate, delta_interval: float
) -> NftConstants:
    """Constants for repair over intervals of the given length.

    The step cap Delta is found by bisection (the moduli envelopes are
    nondecreasing, so the defining conditions are monotone in Delta); the
    time-shift rate is fixed at k = 2 / eps.
    """
    eps = cert.eps
    if not (math.isfinite(eps) and eps > 0):
        raise ConstantsInfeasible(f"certificate eps must be positive, got {eps}")
    if delta_interval <= 0:
        raise ConstantsInfeasible("delta_interval must be positive")
    k = 2.0 / eps
    M = p.data.M
    eta_hat = min(cert.eta, p.data.eta_tilde)
    phi, gamma = p.data.phi, p.data.gamma

    def ok(D: float) -> bool:
        if not D > 0 or D > eps:
            return False
        if M > 0 and (M * D >= eps or 4 * D * M > eta_hat):
            return False
        tphi, tgam = phi.theta(D), gamma.theta(D)
        drift = math.exp(tphi) * (tgam + tphi * M)
        return drift < eps and 2 * drift * k < k * eps - 1

    hi = eps
    if M > 0:
        hi = min(hi, eta_hat / (4 * M), eps / M * (1 - 1e-12))
    if ok(hi):
        D = hi
    else:
        D = float(geo._bisect(lambda D: ok(float(D)), 0.0, hi, 200)) * (1 - 1e-9)
    if not ok(D):
        raise ConstantsInfeasible("no positive step length satisfies the repair conditions")

    rho_bar = min((eps - M * D) / 2, eps / (2 * k))
    m = max(1, int(math.ceil(delta_interval / D)))
    tphi, tgam = phi.theta(D), gamma.theta(D)
    drift = math.exp(tphi) * (tgam + tphi * M)
    beta1 = 2 * (M + drift) * k
    beta2 = 2 * M * D / rho_bar if M > 0 else 0.0
    beta_tilde = max(beta1, beta2)
    K_growth = math.exp(phi.theta(delta_interval))
    beta3 = _beta3(m, K_growth, beta_tilde)
    cons = NftConstants(
        eps=eps, k_shift=k, Delta=D, rho_bar=rho_bar, m=m,
        beta_tilde=beta_tilde, beta=max(beta_tilde, beta3),
        K_growth=K_growth, eta_hat=eta_hat,
        beta1=beta1, beta2=beta2, beta3=beta3,
    )
    cons.validate(p, delta_interval)
    return cons


# ---------------------------------------------------------------------------
# neighboring feasible trajectory repair
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NftResult:
    corrected: Trajectory
    rho_in: float
    sup_dist: float
    beta_used: float
    interior_clearance: float
    constants: NftConstants
    pieces: dict[str, int]     # pieces per branch: "pass", "push", "restart"

    def to_jsonable(self) -> dict:
        return {
            "rho_in": float(self.rho_in),
            "sup_dist": float(self.sup_dist),
            "beta_used": float(self.beta_used),
            "interior_clearance": float(self.interior_clearance),
            "bound": float(self.beta_used * self.rho_in),
            "pieces": dict(self.pieces),
        }


def _strictly_inside(p, times, states) -> bool:
    """Positive clearance at every node after the first."""
    return bool(np.all(geo.clearance_proxy(p, times[1:], states[1:]) > 1e-12))


def _measure_rho(p, times, states) -> float:
    return float(geo.distances_upper_along(p, times, states).max())


def _case_push_and_replay(p, cert, cons, t_a, ref_states, rho_c, dt, level, games=None):
    """Insert the inward mixture for k*rho time, then replay the reference
    derivative with that time shift; project onto sampled controls."""
    steps = len(ref_states) - 1
    refvel = np.diff(ref_states, axis=0) / dt
    start = ref_states[0]
    mr = inward_margin(p, t_a, start, cert.delta, level, games=games)
    if math.isfinite(mr.r) and mr.r <= 0:
        raise CorrectionFailed(f"inward margin nonpositive at t={t_a}")
    s = 0
    if math.isfinite(mr.r):
        s = min(int(math.ceil(cons.k_shift * rho_c / dt)), steps)
    w = np.vstack([np.repeat(mr.v[None, :], s, axis=0), refvel[: steps - s]])
    replay = _nearest_rule(p, start, w, dt, level)
    mux = _MixtureMultiplexer(len(mr.alpha))

    def choose(j, t, x):
        if j < s:
            return p.controls.at(t, level)[mux.pick(mr.alpha)], None
        return replay(j, t, x)

    return _march(p, t_a, start, steps, dt, choose)


def nft_correct(
    p: ProblemDefinition,
    cert: IpcCertificate,
    xhat: Trajectory,
    level: int = 0,
    constants: NftConstants | None = None,
) -> NftResult:
    """Repair a violating reference into a strictly feasible neighbor.

    Works piece by piece on a partition finer than the ledger step, in one
    forward sweep: pieces that are already strictly inside pass through
    unchanged; a piece whose running violation is small gets the inward push
    with time-shifted replay; larger violations first replace the reference
    with a viable path from the same start.  From the end of each corrected
    piece the path follows the reference's velocities (nearest sampled
    velocity), marched one piece ahead of the sweep, and the running
    violation is the largest distance measured on that projection so far.
    The output shares the reference's start, is strictly inside on the open
    interval, and stays within ``beta * rho`` of the reference.
    """
    times = np.asarray(xhat.times, dtype=float)
    ref0 = np.asarray(xhat.states, dtype=float)
    N = len(times) - 1
    dt = xhat.step
    t0, t1 = float(times[0]), float(times[-1])
    if not geo.is_feasible(p, t0, ref0[0]):
        raise InfeasibleStart(f"reference start infeasible at t0={t0}")
    cons = constants or derive_nft_constants(p, cert, t1 - t0)
    steps_per_piece = int(cons.Delta / dt)  # every piece must fit the ledger step
    if steps_per_piece < 1:
        raise CorrectionFailed(
            f"grid step {dt} exceeds the ledger step {cons.Delta:.3g}; reduce dt"
        )

    rho_measured = _measure_rho(p, times, ref0)
    rho_eff = max(rho_measured, _RHO_FLOOR)

    cur = ref0.copy()
    ctrl = np.zeros((N, p.controls.dim))
    have_ctrl = np.zeros(N, dtype=bool)
    if xhat.controls is not None:
        ctrl[:] = xhat.controls
        have_ctrl[:] = True
    bounds = list(range(0, N, steps_per_piece)) + [N]
    pieces = {"pass": 0, "push": 0, "restart": 0}

    # Fast path: a strictly feasible input is already its own repair.
    if rho_measured <= 0.0 and _strictly_inside(p, times, cur):
        clear = np.min(geo.clearance_proxy(p, times[1:], cur[1:]))
        pieces["pass"] = len(bounds) - 1
        return NftResult(xhat, rho_eff, 0.0, cons.beta, float(clear), cons, pieces)

    refvel = np.diff(ref0, axis=0) / dt
    rho_prev = rho_eff
    origin, project = None, None   # the pending projection: junction and step rule
    games: dict = {}               # margin games solved so far in this repair
    for ja, jb in zip(bounds[:-1], bounds[1:]):
        t_a = float(times[ja])
        if project is not None:
            _march(p, float(times[origin]), cur[ja], jb - ja, dt, project,
                   start=ja - origin, out=(cur[ja:jb + 1], ctrl[ja:jb]))
            have_ctrl[ja:jb] = True
            rho_prev = max(rho_prev, _measure_rho(p, times[ja + 1:jb + 1], cur[ja + 1:jb + 1]))
        piece_clear = _strictly_inside(p, times[ja:jb + 1], cur[ja:jb + 1])
        deep = geo.clearance_proxy(p, t_a, cur[ja]) > cons.eta_hat / 2
        feas_now = geo.violations_along(p, times[ja:jb + 1], cur[ja:jb + 1]).max() <= geo.TOL_FEAS
        if feas_now and (piece_clear or deep):
            pieces["pass"] += 1
            continue
        if deep or rho_prev > cons.rho_bar:
            # violation too large for the push construction: restart the piece
            # from a viable path with (numerically) zero violation
            pieces["restart"] += 1
            ref_piece = viable_trajectory(
                p, cert, t_a, cur[ja], float(times[jb]), dt, level, steps=jb - ja,
                games=games,
            ).states
            rho_c = _RHO_FLOOR
        else:
            pieces["push"] += 1
            ref_piece = cur[ja:jb + 1].copy()
            rho_c = max(rho_prev, _RHO_FLOOR)
        piece_states, piece_ctrl = _case_push_and_replay(
            p, cert, cons, t_a, ref_piece, rho_c, dt, level, games
        )
        pv = geo.violations_along(p, times[ja:jb + 1], piece_states)
        if pv.max() > geo.TOL_FEAS:
            raise CorrectionFailed(
                f"piece [{t_a:.4f}, {times[jb]:.4f}] still violates by {pv.max():.3e}"
            )
        cur[ja:jb + 1] = piece_states
        ctrl[ja:jb] = piece_ctrl
        have_ctrl[ja:jb] = True
        origin, project = jb, _nearest_rule(p, cur[jb], refvel[jb:], dt, level)
        rho_prev = rho_eff

    worst = geo.violations_along(p, times, cur)
    if worst.max() > geo.TOL_FEAS:
        raise CorrectionFailed(f"repair left a violation of {worst.max():.3e}")
    if not _strictly_inside(p, times, cur):
        raise CorrectionFailed("repair is feasible but not strictly inside")
    sup_dist = float(np.max(np.linalg.norm(cur - ref0, axis=1)))
    if sup_dist > cons.beta * rho_eff * (1 + 1e-9):
        raise CorrectionFailed(
            f"distance {sup_dist:.3e} exceeds the certified bound {cons.beta * rho_eff:.3e}"
        )
    if not np.array_equal(cur[0], ref0[0]):
        raise CorrectionFailed("repair moved the anchor point")
    clear = np.min(geo.clearance_proxy(p, times[1:], cur[1:]))
    corrected = Trajectory(times, cur, ctrl if bool(have_ctrl.all()) else None, dt)
    return NftResult(corrected, rho_eff, sup_dist, cons.beta, float(clear), cons, pieces)


# ---------------------------------------------------------------------------
# exponential tracking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrackingConstants:
    """Exponential tracking ledger: deviation <= C * exp(K (t - t0)) * |x1 - x0|."""

    K1: float
    K2: float
    k_tilde: float
    K: float
    C: float
    beta: float

    def __post_init__(self) -> None:
        if not 2 * self.beta + 1 < math.exp(self.K1):
            raise ValueError("need 2*beta + 1 < exp(K1)")
        if abs(self.K - (self.K1 + self.K2)) > 1e-9 * max(1.0, abs(self.K)):
            raise ValueError("K must equal K1 + K2")
        target = math.exp(self.k_tilde) * (2 * self.beta + 1)
        if abs(self.C - target) > 1e-9 * max(1.0, target):
            raise ValueError("C must equal exp(k_tilde) * (2*beta + 1)")

    def to_jsonable(self) -> dict:
        return {k: float(v) for k, v in self.__dict__.items()}


def derive_tracking_constants(
    p: ProblemDefinition, beta: float, horizon: float, samples: int = 64
) -> TrackingConstants:
    """Fit the growth ledger from the repair factor and the Lipschitz modulus.

    K2 and k_tilde affinely majorize t -> integral of phi over [0, t+1]
    (least squares, then the intercept is lifted to a true majorant on the
    sampled horizon).
    """
    if not math.isfinite(beta):
        raise ConstantsInfeasible("repair factor overflowed; tracking constants undefined")
    ts = np.linspace(0.0, max(horizon, 1.0), samples)
    y = np.array([p.data.phi.integral(0.0, t + 1.0) for t in ts])
    a = float(np.linalg.lstsq(np.column_stack([ts, np.ones_like(ts)]), y, rcond=None)[0][0])
    K2 = max(a, 0.0)
    k_tilde = float(np.max(y - K2 * ts))
    K1 = math.log(2 * beta + 1) + 1e-9
    return TrackingConstants(
        K1=K1, K2=K2, k_tilde=k_tilde, K=K1 + K2,
        C=math.exp(k_tilde) * (2 * beta + 1), beta=beta,
    )


@dataclass(frozen=True, eq=False)
class TrackingRun:
    trajectory: Trajectory
    constants: TrackingConstants
    deviations: Array
    offset: float

    def bound(self, t: Array | float) -> Array:
        c = self.constants
        return c.C * np.exp(c.K * (np.asarray(t) - self.trajectory.t0)) * self.offset

    def to_jsonable(self) -> dict:
        return {
            "offset": float(self.offset),
            "max_deviation": float(np.max(self.deviations)),
            "constants": self.constants.to_jsonable(),
        }


def track_feasible(
    p: ProblemDefinition,
    cert: IpcCertificate,
    ref: Trajectory,
    x1,
    horizon: float,
    level: int = 0,
    nft_constants: NftConstants | None = None,
) -> TrackingRun:
    """Feasible trajectory from a new start that tracks a feasible reference.

    Works in unit windows: project the reference derivative from the current
    state, repair the projection to strict feasibility, concatenate.  The
    per-node deviations satisfy the exponential ledger bound.
    """
    t0 = ref.t0
    dt = ref.step
    x1 = np.asarray(x1, dtype=float).reshape(-1)
    if not geo.is_feasible(p, t0, x1):
        raise InfeasibleInput("tracking start must be feasible")
    if ref.t1 + 1e-9 < t0 + horizon:
        raise ValueError("reference does not cover the requested horizon")
    cons = nft_constants or derive_nft_constants(p, cert, 1.0)
    tc = derive_tracking_constants(p, cons.beta, horizon)

    offset = float(np.linalg.norm(x1 - ref.state_at(t0)))
    all_states = [x1[None, :]]
    all_ctrl = []
    cur = x1
    t = t0
    remaining = float(horizon)
    while remaining > 1e-9:
        span = min(1.0, remaining)
        steps = max(1, int(round(span / dt)))
        refvel = np.diff(ref.state_at(t + np.arange(steps + 1) * dt), axis=0) / dt
        proj = filippov_project(p, t, cur, refvel, steps, dt, level)
        repaired = nft_correct(p, cert, proj, level, constants=cons)
        all_states.append(repaired.corrected.states[1:])
        all_ctrl.append(repaired.corrected.controls)
        cur = repaired.corrected.states[-1]
        t += steps * dt
        remaining -= steps * dt
    states = np.vstack(all_states)
    ctrl = np.vstack(all_ctrl)
    times = t0 + dt * np.arange(len(states))
    traj = Trajectory(times, states, ctrl, dt)
    devs = np.linalg.norm(traj.states - ref.state_at(times), axis=1)
    return TrackingRun(traj, tc, devs, offset)
