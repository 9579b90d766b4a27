"""Trajectory construction: integration, velocity projection, repair, tracking.

All constructed paths live on a uniform time grid with one sampled control
per step, so the per-step dynamics residual contract is exact.  Every path is
one RK4 march (``_march``) under a step rule: a control index, an explicit
control row, the nearest velocity to a target, or the viability rule.  A
rule that has already evaluated the chosen control's velocity at the step's
start hands that row to RK4 as its first stage, so the step costs one
velocity evaluation fewer.  A march can be continued from a later step into
given arrays, which is how the repair extends its projection one piece at a
time in a single forward sweep.  Mixture velocities are realized by
deterministic proportional multiplexing of their support controls across
consecutive steps (discrete chattering); for the shipped benchmarks the
optimal margin mixtures are pure controls and the multiplexer degenerates to
a constant choice.

States have one to a few components, where a numpy call costs far more in
dispatch than in arithmetic, so the march pays its calls once per block of
up to ``_BLOCK`` steps (parallel-in-time integration, Nievergelt 1964).  It
guesses the block's states; the rule decides every step's control at its
guess in one call, ``f`` evaluates each RK4 stage in one call over the
block's rows, and ``cumsum`` adds the increments in a step loop's order.
The block keeps its longest prefix whose guesses equal the computed states
bit for bit: each kept step was decided and evaluated at its true state, so
it is the step loop's (``problem``'s convention makes each batched row that
row's own).  The next block starts at the first differing step.  A step the
rule can decide only at its true state (in the viability rule's acting
tube, a push step), and a block that raises at its guesses, runs alone:
``_rk4_step``, on Python floats in numpy's order.  A block runs under
``np.errstate`` with every floating-point error numpy would report made to
raise, so a numpy warning it would give is the loop's too, at the loop's
step; the warning filters are left alone, so a repeated warning is shown as
often as the loop shows it.  A warning ``f`` issues itself through
``warnings`` at a guess is not held back.
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
_BLOW_UP = 1e12          # a state component beyond this stops the march
# Steps per block: an iteration costs ~60 numpy calls at any length, and a
# state-dependent f keeps only a few steps per iteration.
_BLOCK = 64
_STEPS = np.arange(_BLOCK)
# Test seam: ``_guesses(j, G)`` replaces the guesses of the block from step
# ``j`` (the march keeps row 0); its rows set the block's length.
_guesses = None


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
    """One classical RK4 step under the held control ``u``: a step run alone.

    ``k1`` is ``f(t, x, u)`` when the caller already holds it, for instance
    as row ``j`` of ``ProblemDefinition.velocities(t, x)`` for ``u = u_j``;
    it is then not evaluated again.  That row is bit for bit ``f(t, x, u)``
    when ``f`` computes each row alone (the convention in ``problem``); an
    ``f`` that does not still gives a step within ``TOL_ODE`` of the one
    evaluated here.

    ``x`` is the ``(n,)`` state.  The stage points and the final combination
    are formed on Python floats, component by component, in numpy's order
    (``((k1 + 2 k2) + 2 k3) + k4``, times ``dt / 6``, plus ``x``): IEEE ``+``
    and ``*`` round the same either way, so the step is ``_rk4_increments``'
    one-row case bit for bit, without a dispatch per operation, and never
    warns.  Each stage velocity is first broadcast to ``x``'s shape, as the
    array expression would.  ``f`` still sees arrays.
    """
    half = dt / 2
    t_half = t + half
    xs = x.tolist()
    a = _components(f(t, x, u) if k1 is None else k1, x.shape)
    b = _components(f(t_half, np.array([xi + half * ki for xi, ki in zip(xs, a)]), u), x.shape)
    c = _components(f(t_half, np.array([xi + half * ki for xi, ki in zip(xs, b)]), u), x.shape)
    d = _components(f(t + dt, np.array([xi + dt * ki for xi, ki in zip(xs, c)]), u), x.shape)
    sixth = dt / 6
    out = [xi + sixth * (ai + 2 * bi + 2 * ci + di)
           for xi, ai, bi, ci, di in zip(xs, a, b, c, d)]
    # every component, so that a NaN anywhere fails (max() would skip one)
    if not all(abs(v) <= _BLOW_UP for v in out):
        raise NonFiniteState(f"state blow-up near t={t}")
    return np.array(out)


def _components(k, shape: tuple) -> list:
    """A stage velocity as a list of floats, broadcast to the state's shape
    as the array arithmetic would (a shape that does not broadcast raises)."""
    k = np.asarray(k, dtype=float)
    if k.shape != shape:
        k = np.broadcast_to(k, shape)
    return k.tolist()


def _rk4_increments(f: Callable, T: Array, X: Array, U: Array, dt: float,
                    K1: Array | None = None) -> Array:
    """RK4 increments ``dt / 6 * (((k1 + 2 k2) + 2 k3) + k4)`` of the steps
    from the states ``X`` (b, n) at the times ``T`` (b,) under the controls
    ``U`` (b, d), one call ``f(T[:, None], X, U)`` per stage; ``K1`` is the
    first stage when the rule has it.  ``X`` plus a row is ``_rk4_step``."""
    half = dt / 2
    t_half = (T + half)[:, None]

    def stage(t, Y):
        k = np.asarray(f(t, Y, U), dtype=float)
        return k if k.shape == X.shape else np.broadcast_to(k, X.shape)

    k1 = stage(T[:, None], X) if K1 is None else K1
    k2 = stage(t_half, X + half * k1)
    k3 = stage(t_half, X + half * k2)
    k4 = stage((T + dt)[:, None], X + dt * k3)
    return (dt / 6) * (((k1 + 2 * k2) + 2 * k3) + k4)


def _check_grid(dt: float, steps: int = 1) -> None:
    if not dt > 0:
        raise ValueError(f"need dt > 0, got dt={dt}")
    if steps < 1:
        raise ValueError(f"need steps >= 1, got steps={steps}")


def _march(p: ProblemDefinition, t0: float, x0, steps: int, dt: float, rule,
           start: int = 0, out: tuple[Array, Array] | None = None,
           holds: Callable[[int, int], bool] | None = None) -> tuple[Array, Array] | None:
    """Fixed-step RK4 from ``x0`` over steps ``j`` from ``start`` on, at
    ``t = t0 + j * dt``, under a step rule.

    ``rule.step(j, t, x)`` returns the control held over step ``j`` from its
    true state and the velocity ``f(t, x, u)`` if the rule evaluated it
    (else ``None``).  While ``rule.blocking``, ``rule.block(j, T, G)``
    decides the steps from ``j`` at the times ``T`` and guessed states
    ``G``: their controls, their velocities or ``None``, and how many it
    decided.  ``rule.path``, if not ``None``, guesses every step's state;
    else the march extrapolates the last increment.

    The march equals the loop ``x = _rk4_step(f, t, x, *rule.step(j, t, x))``
    bit for bit, whatever the guesses and block ends (module docstring).
    Returns the ``(steps + 1, n)`` states and the ``(steps, d)`` controls,
    written into ``out`` when given.  A march continued from its own state
    at a later ``start`` is bit-identical to the one long march.
    ``holds(a, b)``, if given, is asked after each run of kept steps, which
    filled state rows ``a + 1`` to ``b``, whether to go on; at the first
    False the march returns None, with the later steps unmarched.
    """
    _check_grid(dt, steps)
    if out is None:
        out = np.empty((steps + 1, p.n)), np.empty((steps, p.controls.dim))
    states, ctrl = out
    states[0] = np.asarray(x0, dtype=float).reshape(-1)
    ahead = None                 # states computed past the last kept step: guesses from step i on
    incr = np.zeros(p.n)         # the last increment computed, to extrapolate guesses
    i = 0
    while i < steps:
        j, x = start + i, states[i]
        block = None
        if rule.blocking and steps - i > 1:
            G = _guess(rule, j, min(steps - i, _BLOCK), x, ahead, incr)
            T = t0 + (j + _STEPS[:len(G)]) * dt      # t0 + j * dt, as a step alone computes it
            try:
                # a block that raises or would warn at its guesses is redone
                # alone, where the step at fault, if any, raises or warns itself
                with np.errstate(**{k: "ignore" if v == "ignore" else "raise"
                                    for k, v in np.geterr().items()}):
                    block = _speculate(p.f, rule, j, T, G, dt)
            except Exception:
                block = None
        if block is not None and block[0]:
            kept, C, U, incr = block
            states[i + 1:i + kept + 1] = C[1:kept + 1]
            ctrl[i:i + kept] = U[:kept]
            ahead = C[kept:]
        else:
            t = t0 + j * dt
            u, k1 = rule.step(j, t, x)
            ctrl[i] = u
            states[i + 1] = _rk4_step(p.f, t, x, u, dt, k1)
            kept, ahead = 1, None
        if holds is not None and not holds(i, i + kept):
            return None
        i += kept
    return states, ctrl


def _guess(rule, j: int, b: int, x: Array, ahead: Array | None, incr: Array) -> Array:
    """Guesses of the ``b`` states from step ``j`` at ``x``: those the last
    block computed ahead, then the rule's path or ``incr`` added per step."""
    G = np.empty((b, len(x)))
    G[0] = x
    a = 1
    if ahead is not None:
        a = min(len(ahead), b)
        G[1:a] = ahead[1:a]
    if a < b and rule.path is not None:
        G[a:] = rule.path[j + a:j + b]
    elif a < b:
        G[a:] = incr
        np.cumsum(G[a - 1:], axis=0, out=G[a - 1:])
    if _guesses is not None:
        G = np.array(_guesses(j, G.copy()), dtype=float).reshape(-1, len(x))[:b]
        G[0] = x
    return G


def _speculate(f: Callable, rule, j: int, T: Array, G: Array, dt: float):
    """One block from step ``j``: ``(kept, C, U, incr)`` with the states
    ``C`` computed from the guesses ``G`` (row 0 the start), the controls,
    the last increment, and how many leading steps are proven exact; ``None``
    when the rule decides fewer than two steps, which then run alone."""
    U, K1, q = rule.block(j, T, G)
    if q < 2:
        return None
    G = G[:q]
    incr = _rk4_increments(f, T[:q], G, U[:q], dt, K1)
    C = np.empty((q + 1, G.shape[1]))
    C[0] = G[0]
    C[1:] = incr
    np.cumsum(C, axis=0, out=C)
    # a step is kept if it and every step before it started from an exact
    # guess and ended within bounds
    kept = _first_row(np.greater_equal(G.view(np.int64) != C[:-1].view(np.int64),
                                       np.abs(C[1:]) <= _BLOW_UP))
    return kept, C, U, incr[-1]


def _first_row(mask: Array) -> int:
    """The first row of ``mask`` (b, m) with a true entry, or b."""
    k = int(mask.argmax()) if mask.size else 0
    return k // mask.shape[1] if mask.size and mask.flat[k] else len(mask)


class _Held:
    """Step rule of controls fixed in advance: ``rows(j, T)`` are those of
    the steps from ``j`` at the times ``T``."""

    blocking = True
    path = None

    def __init__(self, rows: Callable[[int, Array], Array]):
        self.rows = rows

    def step(self, j, t, x):
        return self.rows(j, np.array([t]))[0], None

    def block(self, j, T, G):
        return self.rows(j, T), None, len(T)


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
    def rows(j, T):
        return np.array([p.controls.at(t, level)[int(schedule[j + k])]
                         for k, t in enumerate(T.tolist())])

    return Trajectory(t0 + dt * np.arange(steps + 1),
                      *_march(p, t0, x0, steps, dt, _Held(rows)), dt)


def integrate_controls(p: ProblemDefinition, t0: float, x0, controls, dt: float) -> Trajectory:
    """RK4 under explicit per-step control vectors (shape (N, d))."""
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    steps = len(controls)
    rule = _Held(lambda j, T: controls[j:j + len(T)])
    return Trajectory(t0 + dt * np.arange(steps + 1), *_march(p, t0, x0, steps, dt, rule), dt)


# ---------------------------------------------------------------------------
# velocity selection
# ---------------------------------------------------------------------------

def _row_norms(D: Array) -> Array:
    """``np.linalg.norm(D, axis=-1)``: each row's squares summed alone, so a
    step's norms in a block are its norms alone."""
    return np.sqrt(np.add.reduce(D * D, axis=-1))


def _select(V: Array, G: Array, W: Array, Z: Array, dt: float) -> tuple[Array, int]:
    """Per step, the sampled control with the nearest velocity to the target:
    indices into ``V`` (k, b, n) for the steps at the states ``G`` (b, n)
    with target velocities ``W`` and next target positions ``Z`` (b, n), and
    how many leading steps have no NaN velocity.

    Ties in velocity mismatch are broken by proximity of the induced next
    position to the target path node (this is what lets opposing controls
    cancel drift around an unrealizable target), then by lowest index.  The
    arithmetic never warns, as Python floats would not.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mism = _row_norms(V - W)
        lo = mism.min(axis=0)          # NaN where a velocity is NaN
        nan = np.isnan(lo)
        q = int(nan.argmax()) if nan.any() else len(lo)
        tie = mism <= lo + 1e-12
        idx = tie.argmax(axis=0)
        if np.count_nonzero(tie[:, :q]) > q:     # some step has tied controls
            pos = np.where(tie, _row_norms(G + dt * V - Z), np.inf)
            idx = (tie & (pos <= pos.min(axis=0) + 1e-12)).argmax(axis=0)
    return idx, q


class _Nearest:
    """Step rule of the projection: the sampled velocity nearest ``w[j]``,
    ties toward the target path ``path[j + 1] = x0 + dt * sum_{i <= j} w[i]``.
    It serves marches from one ``t0``: it keeps which steps' samples share
    their bytes."""

    blocking = True

    def __init__(self, p: ProblemDefinition, x0: Array, w: Array, dt: float, level: int):
        self.p, self.dt, self.level = p, dt, level
        self.path = x0 + np.vstack([np.zeros(w.shape[1]), np.cumsum(w * dt, axis=0)])
        self.w = np.broadcast_to(w, (len(w), p.n))   # a one-column target spans the state
        self.span = (0, 0, None)     # steps [lo, hi) whose samples have the bytes of u

    def _samples(self, j: int, T: Array) -> tuple[Array, int]:
        """The samples at step ``j`` and how many steps from it (at the
        times ``T``) have samples with their bytes."""
        at, level = self.p.controls.at, self.level
        lo, hi, u = self.span
        if not lo <= j < hi:
            lo, hi, u = j, j + 1, at(float(T[0]), level)
        ts = T.tolist()
        while hi < j + len(ts):
            v = at(ts[hi - j], level)
            if v is not u and (v.shape != u.shape or v.tobytes() != u.tobytes()):
                break
            hi += 1
        self.span = lo, hi, u
        return u, min(hi - j, len(ts))

    def block(self, j, T, G):
        u, q = self._samples(j, T)
        if q < 2:
            return None, None, q
        _, V = self.p.velocities(T[:q], G[:q], self.level, u)
        idx, q = _select(V, G[:q], self.w[j:j + q], self.path[j + 1:j + q + 1], self.dt)
        return u[idx[:q]], V[idx[:q], np.arange(q)], q

    def step(self, j, t, x):
        u, vels = self.p.velocities(t, x, self.level)
        idx, q = _select(vels[:, None], x[None], self.w[j:j + 1], self.path[j + 1:j + 2], self.dt)
        if not q:
            i = int(np.flatnonzero(np.isnan(vels).any(axis=1))[0])
            raise NonFiniteState(f"velocity of control {u[i].tolist()} at t={t}, x={x.tolist()} "
                                 f"is not finite: {vels[i].tolist()}")
        return u[idx[0]], vels[idx[0]]


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
                      *_march(p, t0, x0, steps, dt, _Nearest(p, x0, w, dt, level)), dt)


# ---------------------------------------------------------------------------
# viability
# ---------------------------------------------------------------------------

class _Viable:
    """Step rule of ``viable_trajectory``: the margin mixture where some
    constraint is within the acting tube of radius ``trig``, the default
    control elsewhere.  A block decides its steps outside the tube from one
    ``constraint_values`` call.  A step in the tube or past the wall runs
    alone, and so do the ``_BLOCK`` steps after it: near the tube the path
    chatters, out for a few steps and in for one, and a block would keep
    only the steps before the next step in the tube."""

    path = None

    def __init__(self, p: ProblemDefinition, cert: IpcCertificate, level: int, trig: float,
                 games: dict):
        self.p, self.cert, self.level, self.games = p, cert, level, games
        near = -trig * np.maximum(p.grad_bounds(), 1e-12)   # h_i at or above its entry: in the tube
        self.near = near.tolist()
        self.stop = np.minimum(near, geo.TOL_FEAS)            # in the tube, or past the wall
        self.defaults = np.broadcast_to(p.default_control, (_BLOCK, p.controls.dim))
        self.mux = _MixtureMultiplexer(1)
        self.tube = -_BLOCK          # the last step in the tube
        self.blocking = True

    def block(self, j, T, G):
        q = _first_row(self.p.constraint_values(T, G) >= self.stop)
        return self.defaults[:q], None, q

    def step(self, j, t, x):
        p = self.p
        hv = geo.eval_constraints(p, t, x)
        hs = hv.tolist()   # finite: constraint_values raises on a non-finite h
        viol = max(hs, default=-math.inf)
        if viol > geo.TOL_FEAS:
            raise ViabilityLost(f"feasibility lost at t={t} (max h = {viol:.3e}); dt too coarse?")
        if not any(h >= c for h, c in zip(hs, self.near)):
            self.blocking = j - self.tube >= _BLOCK
            return p.default_control, None
        self.tube, self.blocking = j, False
        mr, u, vels = _margin(p, t, x, hv, self.cert.delta, self.level, self.games)
        if math.isfinite(mr.r) and mr.r <= 0:
            raise ViabilityLost(f"nonpositive inward margin at t={t}")
        if math.isfinite(mr.r):
            k = self.mux.pick(mr.alpha)
            return u[k], vels[k]
        return p.default_control, None


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
    rule = _Viable(p, cert, level, trig, {} if games is None else games)
    states, ctrl = _march(p, t0, x, steps, dt, rule)
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


class _Push:
    """Step rule of the push: the inward mixture's support controls; each
    step advances the mixture credit, so it runs alone."""

    blocking = False

    def __init__(self, p: ProblemDefinition, level: int, alpha: Array):
        self.p, self.level, self.alpha = p, level, alpha
        self.mux = _MixtureMultiplexer(len(alpha))

    def step(self, j, t, x):
        return self.p.controls.at(t, self.level)[self.mux.pick(self.alpha)], None


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
    states, ctrl = np.empty((steps + 1, p.n)), np.empty((steps, p.controls.dim))
    states[0] = start
    if s:
        _march(p, t_a, start, s, dt, _Push(p, level, mr.alpha), out=(states[:s + 1], ctrl[:s]))
    if s < steps:
        _march(p, t_a, states[s], steps - s, dt, _Nearest(p, start, w, dt, level),
               start=s, out=(states[s:], ctrl[s:]))
    return states, ctrl


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
    The violation is measured only while a push is still possible: not once
    it exceeds ``rho_bar``, nor on a piece that starts deep inside and does
    not pass, which restarts.  Such a piece either passes or restarts, so
    its projection stops after the first run of kept steps that cannot pass;
    the restart overwrites it.  So a skipped tail or measurement cannot raise.
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
        deep = geo.clearance_proxy(p, t_a, cur[ja]) > cons.eta_hat / 2
        projected = True   # whether cur[ja:jb + 1] holds the whole piece
        if project is not None:
            holds = None
            if deep or rho_prev > cons.rho_bar:
                # the piece passes or restarts: stop at the first kept run
                # of steps that cannot pass, and the restart overwrites it
                def holds(a, b):
                    ts, xs = times[ja + a:ja + b + 1], cur[ja + a:ja + b + 1]
                    if deep:
                        return geo.violations_along(p, ts, xs).max() <= geo.TOL_FEAS
                    return _strictly_inside(p, ts, xs)

            projected = _march(p, float(times[origin]), cur[ja], jb - ja, dt, project,
                               start=ja - origin, out=(cur[ja:jb + 1], ctrl[ja:jb]),
                               holds=holds) is not None
            have_ctrl[ja:jb] = True
        passes = projected and (
            geo.violations_along(p, times[ja:jb + 1], cur[ja:jb + 1]).max() <= geo.TOL_FEAS
            and (deep or _strictly_inside(p, times[ja:jb + 1], cur[ja:jb + 1])))
        # the violation matters only while a push is possible: above rho_bar,
        # or on a deep piece that does not pass, the piece restarts
        if project is not None and rho_prev <= cons.rho_bar and (passes or not deep):
            rho_prev = max(rho_prev, _measure_rho(p, times[ja + 1:jb + 1], cur[ja + 1:jb + 1]))
        if passes:
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
        origin, project = jb, _Nearest(p, cur[jb], refvel[jb:], dt, level)
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
