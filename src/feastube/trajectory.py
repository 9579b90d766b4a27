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
up to ``_BLOCK`` = 256 steps (parallel-in-time integration, Nievergelt
1964), which holds a whole repair piece: a block costs about 60 numpy calls
at any length, a row past the first wrong guess a few ns per call.  It
guesses the block's states; the rule decides every step's control at its
guess in one call, ``f`` evaluates each RK4 stage in one call over the
block's rows, and ``np.add.accumulate`` (``cumsum`` without its call
overhead) adds the increments in a step loop's order.  The block keeps its
longest prefix whose guesses equal the computed states bit for bit: each
kept step was decided and evaluated at its true state, so it is the step
loop's (``problem``'s convention makes each batched row that row's own).
The next block starts at the first differing step.  Every rule guesses by
``_Rule.guess``: the increments the last block computed for the same steps,
then the last kept one, or the rule's target path.  The viability rule then
guesses its steps in the acting tube: it predicts which steps take the
margin game's control from the shift in the constraint values that one
such step makes, and checks the whole predicted pattern with one
``constraint_values`` call, guessing again only from a step the check
finds wrong; the checked steps' velocities and constraint gradients come
from one call each per run of steps that share their samples.  Controls
fixed in advance (``_Held``: a schedule, explicit rows, the push's
multiplexed mixture) are decided in blocks, and so is a viable step in the
acting tube when its memoised margin game is pure at a zero mixture credit
(``_Viable``).  What runs alone, through the same kernel on one row, is a
step the rule can decide only at its true state (a viable step in the tube
whose game is mixed, nonpositive or not yet solved, or that meets a nonzero
credit, the ``_AFTER_MIXED`` steps after a mixed one) and a block that
raises what a wrong guess can cause: a floating-point error or a
``FeastubeError`` (a non-finite constraint value or state, a failed LP).
Any other error propagates, such as a defect in a rule's code or an ``f``
that does not broadcast over a block's rows (named).  A block runs under
``np.errstate`` with every floating-point error numpy would report made to
raise, so a numpy warning it would give is the loop's too, at the loop's
step, where it runs alone under the caller's ``np.errstate`` as the loop
does; the warning filters are left alone, so a repeated warning is shown as
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
    FeastubeError,
    InfeasibleInput,
    InfeasibleStart,
    NonFiniteState,
    ViabilityLost,
)
from .ipc import IpcCertificate, _games, inward_margin
from .problem import ProblemDefinition, summed_norms

Array = np.ndarray

TOL_ODE = 1e-9
_RHO_FLOOR = 1e-8
_BLOW_UP = 1e12          # a state component beyond this stops the march
# Steps per block: an iteration costs ~60 numpy calls at any length, while a
# row past the first wrong guess costs a few ns per call; 256 holds a whole
# repair piece (Delta / dt is under 100 steps on the shipped problems at
# dt = 1e-3).
_BLOCK = 256
_STEPS = np.arange(_BLOCK)
# Steps a viable march runs alone after a step whose margin game is mixed:
# the credit then moves at every step in the tube, and a block would end at
# each.  A longer window runs alone steps that blocks would keep: a 3,000-step
# march of the credit-3d test problem runs 2,565 steps alone at 64, 2,757 at
# 256 and all 3,000 at 1,024.
_AFTER_MIXED = 64
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
            k = int(np.argmin(np.isfinite(times) & np.isfinite(states).all(axis=1)))
            raise NonFiniteState(f"non-finite trajectory data at node {k}, t={times[k]}")
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


def _rk4_increments(p: ProblemDefinition, T: Array, X: Array, U: Array, dt: float,
                    K1: Array | None = None) -> Array:
    """RK4 increments ``dt / 6 * (((k1 + 2 k2) + 2 k3) + k4)`` of the steps
    from the states ``X`` (b, n) at the times ``T`` (b,) under the controls
    ``U`` (b, d), one ``p.velocity_rows`` call per stage; ``K1`` is the
    first stage when the rule has it.  ``X`` plus a row is the state after
    that step, as a block and a step run alone (one row) both take it."""
    half = dt / 2
    t_half = (T + half)[:, None]
    k1 = p.velocity_rows(T[:, None], X, U) if K1 is None else K1
    k2 = p.velocity_rows(t_half, X + half * k1, U)
    k3 = p.velocity_rows(t_half, X + half * k2, U)
    k4 = p.velocity_rows((T + dt)[:, None], X + dt * k3, U)
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
    (else ``None``).  While ``rule.blocking``, ``rule.guess(j, T, x)``
    guesses the states of the steps from ``j`` at the times ``T`` and
    ``rule.block(j, T, G)`` decides those steps at the guesses ``G``: their
    controls, their velocities or ``None``, and how many it decided.
    ``rule.kept(D, k)`` then receives the exact increments ``D`` of the
    steps computed, of which the first ``k`` were kept: a block's, or the
    one row of a step run alone.  Both take their increments from
    ``_rk4_increments``; a state with a component beyond ``_BLOW_UP`` or
    not finite raises ``NonFiniteState`` naming the step's time.

    The march equals the loop that runs every step alone under
    ``rule.step`` bit for bit, whatever the guesses and block ends (module
    docstring): a block holds up to ``_BLOCK`` steps and keeps only the
    prefix it proves exact, whatever its length.
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
    i = 0
    while i < steps:
        j, x = start + i, states[i]
        block = None
        if rule.blocking and steps - i > 1:
            T = t0 + (j + _STEPS[:min(steps - i, _BLOCK)]) * dt   # t0 + j * dt, as a step alone computes it
            try:
                # a block that meets a floating-point error or a toolkit
                # error at its guesses is redone alone, where the step at
                # fault, if any, raises or warns itself
                with np.errstate(**{k: "ignore" if v == "ignore" else "raise"
                                    for k, v in np.geterr().items()}):
                    G = rule.guess(j, T, x)
                    if _guesses is not None:
                        G = np.array(_guesses(j, G.copy()), dtype=float).reshape(-1, len(x))[:len(T)]
                        G[0], T = x, T[:len(G)]
                    block = _speculate(p, rule, j, T, G, dt)
            except (FloatingPointError, FeastubeError):
                block = None
        if block is not None and block[0]:
            kept, C, U, D = block
            states[i + 1:i + kept + 1] = C[1:kept + 1]
            ctrl[i:i + kept] = U[:kept]
        else:
            t = t0 + j * dt
            u, k1 = rule.step(j, t, x)
            ctrl[i] = u
            D = _rk4_increments(p, np.array([t]), x[None], u[None], dt,
                                None if k1 is None else k1[None])
            np.add(x, D[0], out=states[i + 1])
            if not (np.abs(states[i + 1]) <= _BLOW_UP).all():     # a NaN fails too
                raise NonFiniteState(f"state blow-up near t={t}")
            kept = 1
        rule.kept(D, kept)
        if holds is not None and not holds(i, i + kept):
            return None
        i += kept
    return states, ctrl


def _speculate(p: ProblemDefinition, rule, j: int, T: Array, G: Array, dt: float):
    """One block from step ``j``: ``(kept, C, U, D)`` with the states ``C``
    computed from the guesses ``G`` (row 0 the start), the controls, the
    increments, and how many leading steps are proven exact; ``None`` when
    the rule decides fewer than two steps, which then run alone."""
    U, K1, q = rule.block(j, T, G)
    if q < 2:
        return None
    G = G[:q]
    D = _rk4_increments(p, T[:q], G, U[:q], dt, K1)
    C = np.empty((q + 1, G.shape[1]))
    C[0] = G[0]
    C[1:] = D
    np.add.accumulate(C, axis=0, out=C)
    # a step is kept if it and every step before it started from an exact
    # guess and ended within bounds
    kept = _first_row(np.greater_equal(G.view(np.int64) != C[:-1].view(np.int64),
                                       np.abs(C[1:]) <= _BLOW_UP))
    return kept, C, U, D


def _first_row(mask: Array) -> int:
    """The first row of ``mask`` (b, m) with a true entry, or b."""
    k = int(mask.argmax()) if mask.size else 0
    return k // mask.shape[1] if mask.size and mask.flat[k] else len(mask)


class _Rule:
    """What a step rule of ``_march`` does unless it says otherwise: it
    decides blocks, and guesses by ``guess`` from the increments kept, a
    block's or the one row of a step run alone.
    ``tubes`` are the steps last decided under a control of another kind
    (the viability rule's steps in the tube)."""

    blocking = True
    path = None          # target states, guessed after the last block's rows
    drift = 0.0          # the increment guessed per step past the last block's rows
    push = None          # the last kept increment of a step in ``tubes``
    last = (0, (), ())   # the last block: its first step, increments, ``tubes``
    tubes = ()

    def guess(self, j: int, T: Array, x: Array) -> Array:
        """Guesses of the states of the steps from ``j`` at ``x`` and the
        times ``T``: ``x`` plus the last block's increments (``_drift``),
        then ``drift`` added per step, or the rule's ``path``."""
        G = np.empty((len(T), len(x)))
        G[0], self.j = x, j
        a = self._drift(G, 0) + 1
        if self.path is None:
            G[a:] = self.drift
            a = len(G)
        else:
            G[a:] = self.path[j + a:j + len(G)]
        if a > 1:
            np.add.accumulate(G[:a], axis=0, out=G[:a])
        return G

    def _drift(self, G: Array, a: int) -> int:
        """Writes into ``G[a + 1:a + 1 + m]`` the increments guessed for the
        ``m`` steps from row ``a`` on that the last block computed: its own,
        where it took a control of the same kind, else ``drift``.  Returns
        ``m``."""
        j0, D, tubes = self.last
        lo = self.j - j0 + a             # step a's row in the last block
        m = max(0, min(len(D) - lo, len(G) - 1 - a)) if lo >= 0 else 0
        if m:
            G[a + 1:a + 1 + m] = D[lo:lo + m]
            alike = [r - lo + a + 1 for r in tubes if lo <= r < lo + m] if tubes else None
            if alike:
                G[alike] = self.drift
        return m

    def kept(self, D, k: int) -> None:
        """Keeps the increments ``D`` of a block (a step run alone has one)
        for the next guesses.  ``drift`` becomes the last of ``D``, or with
        ``tubes`` the last of the ``k`` kept not in them; ``push`` the last
        of those kept in them."""
        if len(D) > 1:
            self.last = self.j, D, self.tubes
        if not self.tubes:
            if self.tubes is not None:           # else alone, with a mixed pick
                self.drift = D[-1]
            return
        tubes, r = [r for r in self.tubes if r < k], k - 1
        if tubes:
            self.push = D[tubes[-1]]
        while tubes and tubes[-1] == r:
            tubes.pop()
            r -= 1
        if r >= 0:
            self.drift = D[r]


class _Held(_Rule):
    """Step rule of controls fixed in advance: row ``j`` of the ``(steps,
    d)`` array ``U`` is held over step ``j``."""

    def __init__(self, U: Array):
        self.U = U

    def step(self, j, t, x):
        return self.U[j], None

    def block(self, j, T, G):
        return self.U[j:j + len(T)], None, len(T)


def _sampled_rows(p: ProblemDefinition, t0: float, dt: float, level: int, schedule,
                  steps: int) -> Array:
    """The ``(steps, d)`` controls ``p.controls.at(t, level)[schedule[j]]``
    of the steps ``j`` at ``t = t0 + j * dt``; an index that is missing or
    outside the samples at its step raises ValueError naming the step."""
    rows = np.empty((steps, p.controls.dim))
    for j in range(steps):
        t = t0 + j * dt
        u = p.controls.at(t, level)
        i = int(schedule[j]) if j < len(schedule) else None
        if i is None or not 0 <= i < len(u):
            raise ValueError(f"schedule at step {j} (t={t}) is {'missing' if i is None else i}, "
                             f"not an index into the {len(u)} control samples there")
        rows[j] = u[i]
    return rows


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
    _check_grid(dt, steps)
    rule = _Held(_sampled_rows(p, t0, dt, level, schedule, steps))
    return Trajectory(t0 + dt * np.arange(steps + 1), *_march(p, t0, x0, steps, dt, rule), dt)


def integrate_controls(p: ProblemDefinition, t0: float, x0, controls, dt: float) -> Trajectory:
    """RK4 under explicit per-step control vectors (shape (N, d))."""
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    steps = len(controls)
    return Trajectory(t0 + dt * np.arange(steps + 1),
                      *_march(p, t0, x0, steps, dt, _Held(controls)), dt)


# ---------------------------------------------------------------------------
# velocity selection
# ---------------------------------------------------------------------------

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
        mism = summed_norms(V - W)
        lo = mism.min(axis=0)          # NaN where a velocity is NaN
        nan = np.isnan(lo)
        q = int(nan.argmax()) if nan.any() else len(lo)
        tie = mism <= lo + 1e-12
        idx = tie.argmax(axis=0)
        if np.count_nonzero(tie[:, :q]) > q:     # some step has tied controls
            pos = np.where(tie, summed_norms(G + dt * V - Z), np.inf)
            idx = (tie & (pos <= pos.min(axis=0) + 1e-12)).argmax(axis=0)
    return idx, q


class _Nearest(_Rule):
    """Step rule of the projection: the sampled velocity nearest ``w[j]``,
    ties toward the target path ``path[j + 1] = x0 + dt * sum_{i <= j} w[i]``.
    It serves marches from one ``t0``: it keeps which steps' samples share
    their bytes."""

    def __init__(self, p: ProblemDefinition, x0: Array, w: Array, dt: float, level: int):
        self.p, self.dt, self.level = p, dt, level
        self.path = x0 + np.vstack([np.zeros(w.shape[1]), np.cumsum(w * dt, axis=0)])
        self.w = np.broadcast_to(w, (len(w), p.n))   # a one-column target spans the state
        self.span = (0, 0, None)     # steps [lo, hi) whose samples have the bytes of u

    def _samples(self, j: int, T: Array) -> tuple[Array, int]:
        """The samples at step ``j`` and how many steps from it (at the
        times ``T``) share them (``ControlSamples.shared``)."""
        controls, level = self.p.controls, self.level
        lo, hi, u = self.span
        if not lo <= j < hi:
            lo, hi, u = j, j + 1, controls.at(float(T[0]), level)
        if hi < j + len(T):
            hi += controls.shared(u, T[hi - j:].tolist(), level)[0]
        self.span = lo, hi, u
        return u, min(hi - j, len(T))

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

def _pure(alpha: Array) -> int | None:
    """The index of the one weight of ``alpha`` that is exactly 1 while every
    other is 0, else None: from a zero credit the multiplexer picks that
    control and leaves the credit at zero."""
    a = alpha.tolist()
    return a.index(1.0) if 1.0 in a and a.count(0.0) == len(a) - 1 else None


class _Viable(_Rule):
    """Step rule of ``viable_trajectory``: the margin mixture where some
    constraint is within the acting tube of radius ``trig``, the default
    control elsewhere.

    A block decides its steps from one ``constraint_values`` call, and a
    step in the tube from its memoised margin game.  Where that game is
    pure and the mixture credit is zero, the multiplexer picks the game's
    control and leaves the credit at zero, so the block takes the control.
    The block ends before a step past the wall, and before a step in the
    tube whose game is mixed or nonpositive, or that meets a nonzero
    credit; that step runs alone, where it advances the credit or raises.
    A game not yet solved is solved at the block's first step in the tube,
    whose guess follows from the default increments alone, and the block
    ends after that step; later in the block such a step ends it and runs
    alone.  After a step with a mixed game the ``_AFTER_MIXED`` steps that
    follow run alone too: the credit then moves at every step in the tube,
    and a block would end at each.

    The rule guesses as every rule does (``_Rule.guess``): from the
    block's start the path drifts under the last increment of the default
    control, or takes the last block's increment for a step that block
    also computed with a control of the same kind (exact when the velocity
    changes with time only).  A step that takes the game's control moves
    by the last kept increment of such a step instead.  The first such step
    of a block is guessed again alone, which measures the shift it makes in
    each later row's constraint values.  From then on the steps after a
    step guessed wrong are guessed under a predicted pattern: each next
    step that takes the game's control is where the values, moved by that
    shift per such step, reach the tube again.  One ``np.add.accumulate``
    builds the pattern's guesses and one ``constraint_values`` call checks
    them; the steps in the tube up to the first row the check finds wrong
    take their controls from one ``velocities`` call, their games'
    gradients from one ``gradients`` call and their payoff matrices from one
    stacked ``ipc._games`` call (per run of equal samples), and their games
    from the memo row by row.  A step that runs alone builds its game
    through the same kernel, on one row.  Any guess is safe, as the march
    keeps only the prefix it proves exact; the prediction only saves
    calls.  The pattern need not be periodic: the gaps between
    such steps change as a moving wall's speed does.
    """

    def __init__(self, p: ProblemDefinition, cert: IpcCertificate, level: int, trig: float,
                 games: dict):
        self.p, self.cert, self.level, self.games = p, cert, level, games
        self.entry = -trig * np.maximum(p.grad_bounds(), 1e-12)   # h_i at or above it: in the tube
        self.near = self.entry.tolist()
        self.stop = np.minimum(self.entry, geo.TOL_FEAS)            # in the tube, or past the wall
        self.defaults = np.broadcast_to(p.default_control, (_BLOCK, p.controls.dim))
        self.mux = _MixtureMultiplexer(1)
        self.G = None                # the last guesses, their controls U and how many decided
        self.tube = -_AFTER_MIXED    # the last step with a mixed game

    def guess(self, j, T, x):
        G = self.G = super().guess(j, T, x)
        self._decide(T, G, True)
        return G

    def block(self, j, T, G):
        if G is not self.G:          # guesses replaced: decide them as they are
            self._decide(T, G, False)
        return self.U, None, self.q

    def _decide(self, T: Array, G: Array, walk: bool) -> None:
        """Sets the controls ``U`` of the steps at the guesses ``G``, how
        many of them ``q`` a block decides, and which of those took the
        game's control.  With ``walk``, the rows of ``G`` after the first
        step whose guess took the other kind of control are guessed again,
        under a predicted pattern of steps that take the game's control."""
        p, entry = self.p, self.entry
        b = q = len(G)
        U, tubes = self.defaults[:b], []
        H = p.constraint_values(T, G)
        guessed = np.zeros(b, dtype=bool)   # steps guessed under the game's control
        shift = None                        # per row, the change in H of one more such step
        v = _first_row(H >= self.stop)
        while v < b:
            inside = (H[v:] >= entry).any(axis=1)
            w = v + _first_row(H[v:] > geo.TOL_FEAS)          # the first step past the wall
            e = end = w
            if walk:                        # the first step whose guess may be wrong
                e = min(w, v + _first_row((inside != guessed[v:])[:, None]))
                end = e + 1 if e < w and inside[e - v] else e
            rows = (v + np.flatnonzero(inside[:end - v])).tolist()
            solved, took = len(self.games), True
            for k, took in zip(rows, self._takes(T, G, H, rows, walk, tubes)):
                if took is None:
                    break
                if took is not p.default_control:
                    if not tubes:
                        U = U.copy()
                    U[k] = took
                    tubes.append(k)
                if walk and (took is not p.default_control) != guessed[k]:
                    break
            else:
                if e == w:                  # past the wall, or the block's end
                    q = w
                    break
                if rows and rows[-1] == e:  # a step in the tube that keeps the default
                    v = e + 1
                    continue
                k = e                       # guessed under the game's control, outside the tube
            if took is None:
                q = k
                break
            push = bool(tubes) and tubes[-1] == k
            if push and len(self.games) > solved:
                q = k + 1                   # a game solved here: the block ends after it
                break
            v = k + 1
            if v < b:
                shift = self._guess_after(T, G, H, k, push, guessed, shift)
                if shift is None:
                    q = v                   # no increment kept under this game to guess by
                    break
        self.U, self.q, self.tubes = U, q, tubes

    def _takes(self, T: Array, G: Array, H: Array, rows: list, walk: bool, tubes: list):
        """Per step of ``rows`` in the tube, in order: the control a block
        may take there, the default control where no constraint is active,
        or None.  The velocities and the constraints' gradients come from
        one call each per run of steps that share their samples
        (``ControlSamples.runs``), each step's as it is alone, and the run's
        payoff matrices from one ``ipc._games`` call.  Its games are read
        from the memo step by step, as the block takes them: a game is
        solved only with ``walk`` while ``tubes`` is empty."""
        p, level = self.p, self.level
        for a, b, u in p.controls.runs(T[rows].tolist(), level):
            run = rows[a:b]
            _, V = p.velocities(T[run], G[run], level, u)
            for game in _games(p, T[run], G[run], H[run], V.transpose(1, 0, 2), self.cert.delta,
                               self.games, lambda: walk and not tubes,
                               p.gradients(T[run], G[run])):
                if game is None:
                    yield None
                    return
                r, alpha, _ = game
                if r == math.inf:
                    yield p.default_control
                    continue
                j = _pure(alpha)
                yield None if r <= 0 or j is None or self.mux.credit.any() else u[j]

    def _guess_after(self, T: Array, G: Array, H: Array, k: int, push: bool,
                     guessed: Array, shift: Array | None) -> Array | None:
        """Guesses the rows of ``G`` after row ``k`` again, step ``k`` under
        the game's control if ``push``, and updates ``H`` and ``guessed``
        there.  A later step is predicted to take the game's control where
        ``H``, moved by ``shift`` per step of that kind gained since, first
        reaches the tube again; with no ``shift`` none is, and the change
        that this push makes in ``H`` is returned as the shift.  None when
        no increment kept under the game's control guesses step ``k``."""
        b, a = len(G), k + 1
        j0, D, last = self.last
        pred = [k] if push else []
        if shift is not None:
            gained = np.cumsum(guessed[k:b - 1])       # such steps guessed in [k, i)
            base = H[a:] - gained[:, None] * shift[a:]
            i = a
            while i < b - 1:
                i += _first_row(base[i - a:] + len(pred) * shift[i:] >= self.entry)
                if i < b - 1:
                    pred.append(i)
                    i += 1
        G[a + self._drift(G, k):] = self.drift
        for n, s in enumerate(pred):
            li = self.j - j0 + s
            if li not in last and self.push is None:
                if s == k:
                    return None
                del pred[n:]
                break
            G[s + 1] = D[li] if li in last else self.push
        guessed[k:] = False
        guessed[pred] = True
        np.add.accumulate(G[k:], axis=0, out=G[k:])
        before = H[a:].copy() if shift is None else None
        H[a:] = self.p.constraint_values(T[a:], G[a:])
        if shift is None:
            shift = np.zeros_like(H)
            shift[a:] = H[a:] - before
        return shift

    def step(self, j, t, x):
        p = self.p
        hv = geo.eval_constraints(p, t, x)
        hs = hv.tolist()   # finite: constraint_values raises on a non-finite h
        viol = max(hs, default=-math.inf)
        if viol > geo.TOL_FEAS:
            raise ViabilityLost(f"feasibility lost at t={t} (max h = {viol:.3e}); dt too coarse?")
        u, k1, self.q, self.tubes = p.default_control, None, 1, []
        if any(h >= c for h, c in zip(hs, self.near)):
            us, vels = p.velocities(t, x, self.level)
            r, alpha, _ = next(_games(p, t, x[None], hv[None], vels[None], self.cert.delta,
                                      self.games))
            if r <= 0:
                raise ViabilityLost(f"nonpositive inward margin at t={t}")
            if r < math.inf:
                k, i = self.mux.pick(alpha), _pure(alpha)
                if i is None:
                    self.tube = j
                u, k1, self.tubes = us[k], vels[k], [0] if k == i else None
        self.blocking = j - self.tube >= _AFTER_MIXED
        return u, k1


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
        raise ViabilityLost(f"feasibility lost at the final node; dt too coarse? (dt={dt}, "
                            f"t={t0 + steps * dt}, x={states[-1]})")
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
        drift = _drift(p, D)
        checks += [drift < eps, 2 * drift * k < k * eps - 1]
        want = max(self.beta_tilde, _beta3(self.m, self.K_growth, self.beta_tilde))
        checks += [self.beta == want or abs(self.beta - want) <= 1e-9 * max(1.0, self.beta)]
        if not all(checks):
            raise ConstantsInfeasible(f"constants ledger inconsistent: {checks}")

    def to_jsonable(self) -> dict:
        return {k: (float(v) if not isinstance(v, int) else v)
                for k, v in self.__dict__.items()}


def _drift(p: ProblemDefinition, D: float) -> float:
    """``exp(theta_phi(D)) * (theta_gamma(D) + theta_phi(D) * M)``, the drift
    term of a repair step of length ``D``."""
    tphi, tgam = p.data.phi.theta(D), p.data.gamma.theta(D)
    return math.exp(tphi) * (tgam + tphi * p.data.M)


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
        raise ConstantsInfeasible(f"delta_interval must be positive, got {delta_interval}")
    k = 2.0 / eps
    M = p.data.M
    eta_hat = min(cert.eta, p.data.eta_tilde)

    def ok(D: float) -> bool:
        if not D > 0 or D > eps:
            return False
        if M > 0 and (M * D >= eps or 4 * D * M > eta_hat):
            return False
        drift = _drift(p, D)
        return drift < eps and 2 * drift * k < k * eps - 1

    hi = eps
    if M > 0:
        hi = min(hi, eta_hat / (4 * M), eps / M * (1 - 1e-12))
    if ok(hi):
        D = hi
    else:
        D = float(geo._bisect(lambda D: ok(float(D)), 0.0, hi, 200)) * (1 - 1e-9)
    if not ok(D):
        raise ConstantsInfeasible(f"no positive step length satisfies the repair conditions "
                                  f"(eps={eps}, M={M}, eta_hat={eta_hat})")

    rho_bar = min((eps - M * D) / 2, eps / (2 * k))
    m = max(1, int(math.ceil(delta_interval / D)))
    beta1 = 2 * (M + _drift(p, D)) * k
    beta2 = 2 * M * D / rho_bar if M > 0 else 0.0
    beta_tilde = max(beta1, beta2)
    K_growth = math.exp(p.data.phi.theta(delta_interval))
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


def _inside_clearance(p, times, states) -> float | None:
    """The smallest clearance over the nodes after the first (inf when there
    are none), or None when one of them is not strictly inside (clearance
    not above 1e-12)."""
    clear = float(geo.clearance_proxy(p, times[1:], states[1:]).min(initial=np.inf))
    return clear if clear > 1e-12 else None


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
        # the multiplexer's picks depend on the mixture alone, not the state
        mux = _MixtureMultiplexer(len(mr.alpha))
        picks = [mux.pick(mr.alpha) for _ in range(s)]
        _march(p, t_a, start, s, dt, _Held(_sampled_rows(p, t_a, dt, level, picks, s)),
               out=(states[:s + 1], ctrl[:s]))
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
    Each violation (``rho``) is the largest of the nodes' certified upper
    distances (``geo.max_distance_upper_along``, equal to the maximum of
    ``geo.distances_upper_along`` bit for bit), which bisects to the end
    only the nodes that can hold it.
    The violation is measured only while a push is still possible: not once
    it exceeds ``rho_bar``, nor on a piece that starts deep inside and does
    not pass, which restarts.  Such a piece either passes or restarts, so
    its projection stops after the first run of kept steps that cannot pass;
    the restart overwrites it.  So a skipped tail or measurement cannot raise,
    and the model is not evaluated on it: a projection that follows the
    reference out of the set would otherwise march, and evaluate ``f``, where
    the model may not be defined (a NaN ``f`` there raises
    ``NonFiniteState``).  It saves no time: a piece is one block.
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

    rho_measured = geo.max_distance_upper_along(p, times, ref0)
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
    clear = _inside_clearance(p, times, cur) if rho_measured <= 0.0 else None
    if clear is not None:
        pieces["pass"] = len(bounds) - 1
        return NftResult(xhat, rho_eff, 0.0, cons.beta, clear, cons, pieces)

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
                    return _inside_clearance(p, ts, xs) is not None

            projected = _march(p, float(times[origin]), cur[ja], jb - ja, dt, project,
                               start=ja - origin, out=(cur[ja:jb + 1], ctrl[ja:jb]),
                               holds=holds) is not None
            have_ctrl[ja:jb] = True
        passes = projected and (
            geo.violations_along(p, times[ja:jb + 1], cur[ja:jb + 1]).max() <= geo.TOL_FEAS
            and (deep or _inside_clearance(p, times[ja:jb + 1], cur[ja:jb + 1]) is not None))
        # the violation matters only while a push is possible: above rho_bar,
        # or on a deep piece that does not pass, the piece restarts
        if project is not None and rho_prev <= cons.rho_bar and (passes or not deep):
            rho_prev = max(rho_prev, geo.max_distance_upper_along(p, times[ja + 1:jb + 1],
                                                                  cur[ja + 1:jb + 1]))
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
    clear = _inside_clearance(p, times, cur)
    if clear is None:
        k = 1 + int(np.argmin(geo.clearance_proxy(p, times[1:], cur[1:])))
        raise CorrectionFailed(f"repair is feasible but not strictly inside at t={times[k]}")
    sup_dist = float(np.max(np.linalg.norm(cur - ref0, axis=1)))
    if sup_dist > cons.beta * rho_eff * (1 + 1e-9):
        raise CorrectionFailed(
            f"distance {sup_dist:.3e} exceeds the certified bound {cons.beta * rho_eff:.3e}"
        )
    if not np.array_equal(cur[0], ref0[0]):
        raise CorrectionFailed(f"repair moved the anchor point from {ref0[0]} to {cur[0]}")
    corrected = Trajectory(times, cur, ctrl if bool(have_ctrl.all()) else None, dt)
    return NftResult(corrected, rho_eff, sup_dist, cons.beta, clear, cons, pieces)


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
    p: ProblemDefinition, beta: float, horizon: float
) -> TrackingConstants:
    """Fit the growth ledger from the repair factor and the Lipschitz modulus.

    K2 and k_tilde affinely majorize t -> integral of phi over [0, t+1]
    (least squares, then the intercept is lifted to a true majorant on the
    horizon, sampled at 64 points).
    """
    if not math.isfinite(beta):
        raise ConstantsInfeasible(f"repair factor overflowed; tracking constants undefined "
                                  f"(beta={beta})")
    ts = np.linspace(0.0, max(horizon, 1.0), 64)
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
        raise InfeasibleInput(f"tracking start must be feasible: x1={x1} at t0={t0}")
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
