"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's own algorithms: the game oracle
enumerates equalizing square subsystems and simplex grids instead of running
a simplex method; the value oracle walks the full control tree; the repair
oracle enumerates every coarse control sequence; the geometry references
evaluate one constraint at one point at a time and bisect one ray at a time,
the reduction references take numpy's max and min over the trailing
constraint axis, and the value sweep's feasibility takes one call per time
slice;
the step-loop references write out one RK4 loop per trajectory construction;
the repair reference re-projects the whole tail after every corrected piece;
the backstep reference builds its candidates one control at a time and
interpolates once per velocity/cost candidate, with a pinned copy of the
point-by-point multilinear interpolation, and the sweep references take
one such backstep per slice, one of them checking each slice for a
non-finite cost before it steps and for a stranded node after; the
assumption reference evaluates the data one sampled point at a time;
the certify references take one Lipschitz quotient per node pair,
evaluate the field at one time and point per call along a path and at a
probe, and write one CSV row at a time;
the certificate reference samples the boundary one time at a time and solves
one LP per boundary point; the CLI references keep ``analyze`` and
``pipeline`` as two separate copies of the four value-function checks.
"""

import math
from itertools import combinations, product
from pathlib import Path

import numpy as np

from feastube import analysis as ana
from feastube import cli
from feastube import geometry as geo
from feastube import ipc
from feastube import trajectory as tj
from feastube import value as val
from feastube.errors import (
    BoundarySamplingFailed,
    DiscountBelowThreshold,
    GridTooCoarse,
    InfeasibleInput,
    NonFiniteCost,
    ProbeInfeasible,
    TrajectoryOutOfGrid,
)
from feastube.problem import (
    AssumptionCheck,
    AssumptionReport,
    SamplingSpec,
    _witness,
    verify_data_assumptions,
)
from feastube.simplex import solve_matrix_game


def game_value_enum(Q):
    """Exact value of max_alpha min_row (Q @ alpha) by kernel enumeration.

    Every matrix game has an optimal mixture supported on a square
    equalizing subsystem (or a single column); taking the best feasible
    candidate over all of them gives the exact value.
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    m, n = Q.shape
    best = -np.inf
    for j in range(n):
        best = max(best, float(Q[:, j].min()))
    for s in range(2, min(m, n) + 1):
        for rows in combinations(range(m), s):
            for cols in combinations(range(n), s):
                A = np.zeros((s + 1, s + 1))
                A[:s, :s] = Q[np.ix_(rows, cols)]
                A[:s, s] = -1.0
                A[s, :s] = 1.0
                rhs = np.zeros(s + 1)
                rhs[s] = 1.0
                try:
                    sol = np.linalg.solve(A, rhs)
                except np.linalg.LinAlgError:
                    continue
                y = sol[:s]
                if (y < -1e-10).any():
                    continue
                full = np.zeros(n)
                full[list(cols)] = np.clip(y, 0.0, None)
                total = full.sum()
                if total <= 0:
                    continue
                full /= total
                best = max(best, float((Q @ full).min()))
    return best


def game_value_grid(Q, resolution=24):
    """Lower bound on the game value from a barycentric grid of mixtures."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    n = Q.shape[1]
    best = -np.inf
    for comp in product(range(resolution + 1), repeat=n - 1):
        rest = resolution - sum(comp)
        if rest < 0:
            continue
        w = np.array(comp + (rest,), dtype=float) / resolution
        best = max(best, float((Q @ w).min()))
    return best


def tree_value(p, lam, t, x, steps, dt, level=0):
    """Exhaustive control-tree cost matching the solver's own transition rule
    (grid-aligned instances make this exact)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if not geo.is_feasible(p, t, x):
        return np.inf
    if steps == 0:
        return 0.0
    u = p.controls.at(t, level)
    best = np.inf
    for j in range(u.shape[0]):
        fv = np.asarray(p.f(t, x, u[j]), dtype=float).reshape(-1)
        lv = float(np.asarray(p.running_cost(t, x, u[j]), dtype=float))
        rest = tree_value(p, lam, t + dt, x + dt * fv, steps - 1, dt, level)
        best = min(best, np.exp(-lam * t) * lv * dt + rest)
    return best


def best_feasible_tracking(p, t0, ref_states, dt, level=0):
    """Smallest sup-distance to the reference over all strictly feasible
    coarse control sequences (exhaustive; keep the grid tiny)."""
    steps = len(ref_states) - 1
    u = p.controls.at(t0, level)
    best = np.inf
    for seq in product(range(u.shape[0]), repeat=steps):
        x = ref_states[0].copy()
        ok = True
        worst = 0.0
        for j, idx in enumerate(seq):
            t = t0 + j * dt
            fv = np.asarray(p.f(t, x, u[idx]), dtype=float).reshape(-1)
            x = x + dt * fv
            if not geo.is_feasible(p, t + dt, x) or geo.clearance_proxy(p, t + dt, x) <= 0:
                ok = False
                break
            worst = max(worst, float(np.linalg.norm(x - ref_states[j + 1])))
        if ok:
            best = min(best, worst)
    return best


# ---------------------------------------------------------------------------
# scalar constraint-geometry references: one constraint at a time, one node
# at a time, one bisection step at a time
# ---------------------------------------------------------------------------

def max_h(p, t, x):
    """max_i h_i(t, x) at one point; -inf when there are no constraints."""
    x = np.asarray(x, dtype=float)
    vals = [float(np.asarray(c.h(t, x), dtype=float)) for c in p.constraints]
    return max(vals) if vals else -np.inf


def violations_along_loop(p, times, states):
    """Per-node max_i h_i, one node at a time."""
    return np.array([max_h(p, float(t), x) for t, x in zip(times, states)])


def feasible_mask_loop(p, t, pts, tol=geo.TOL_FEAS):
    return np.array([max_h(p, t, x) <= tol for x in pts], dtype=bool)


def feasible_slices_loop(p, times, nodes):
    """Feasibility of every node at every time, one ``feasible_mask`` call
    per time: the sweep's per-slice loop before it batched its slices."""
    return np.stack([geo.feasible_mask(p, float(t), nodes) for t in times])


def clearance_loop(p, times, states):
    """Per-node min_i (-h_i) / grad_bound_i."""
    out = []
    for t, x in zip(times, states):
        vals = [-float(np.asarray(c.h(float(t), x), dtype=float)) / max(c.grad_bound, 1e-12)
                for c in p.constraints]
        out.append(min(vals) if vals else np.inf)
    return np.array(out)


def worst_trailing_axis(p, t, X):
    """max_i h_i as numpy's reduction over the trailing constraint axis.

    Unlike ``max_h``, it keeps numpy's sign of a tie between zeros: Python's
    ``max(-0.0, 0.0)`` is -0.0, numpy's is 0.0."""
    return p.constraint_values(t, X).max(axis=-1, initial=-np.inf)


def clearance_trailing_axis(p, t, x):
    """min_i (-h_i) / grad_bound_i as numpy's reduction over the trailing axis;
    a float for one point."""
    gb = np.maximum([c.grad_bound for c in p.constraints], 1e-12)
    clear = np.min(-p.constraint_values(t, x) / gb, axis=-1, initial=np.inf)
    return float(clear) if clear.ndim == 0 else clear


def segment_refine_loop(p, t, x, y, iters=60):
    """Pull a feasible y toward x along the segment, staying feasible."""
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if max_h(p, t, x + mid * (y - x)) <= geo.TOL_FEAS:
            hi = mid
        else:
            lo = mid
    return x + hi * (y - x)


def bisect_all_levels(holds, s_in, s_out, iters):
    """Batched bisection that runs every one of its ``iters`` levels."""
    s_in, s_out = (np.array(s, dtype=float) for s in np.broadcast_arrays(s_in, s_out))
    for _ in range(iters):
        mid = 0.5 * (s_in + s_out)
        ok = np.asarray(holds(mid))
        np.copyto(s_in, mid, where=ok)
        np.copyto(s_out, mid, where=~ok)
    return s_in


def distances_upper_loop(p, times, states):
    """Per-node bisection from a violating node toward the anchor (50 levels)."""
    out = np.zeros(len(times))
    for j, (t, x) in enumerate(zip(times, states)):
        if max_h(p, float(t), x) <= geo.TOL_FEAS:
            continue
        a = np.asarray(p.anchor(float(t)), dtype=float)
        lo, hi = 0.0, 1.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if max_h(p, float(t), x + mid * (a - x)) <= geo.TOL_FEAS:
                hi = mid
            else:
                lo = mid
        out[j] = hi * np.linalg.norm((a - x)[None, :], axis=1)[0]
    return out


def boundary_points_loop(p, t, dirs, ray_factor=1.5):
    """Scalar ray bisection from the anchor toward each direction."""
    a = np.asarray(p.anchor(t), dtype=float)
    R = ray_factor * float(np.linalg.norm(p.box[:, 1] - p.box[:, 0]))
    out = []
    for d in dirs:
        if max_h(p, t, a + R * d) <= 0.0:
            continue
        lo, hi = 0.0, R
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if max_h(p, t, a + mid * d) <= 0.0:
                lo = mid
            else:
                hi = mid
        out.append(a + lo * d)
    return out


# ---------------------------------------------------------------------------
# step-loop references: one hand-written fixed-step RK4 sweep per trajectory
# construction, each with its per-step control rule inlined
# ---------------------------------------------------------------------------

def rk4_step(f, t, x, u, dt):
    k1 = np.asarray(f(t, x, u), dtype=float)
    k2 = np.asarray(f(t + dt / 2, x + dt / 2 * k1, u), dtype=float)
    k3 = np.asarray(f(t + dt / 2, x + dt / 2 * k2, u), dtype=float)
    k4 = np.asarray(f(t + dt, x + dt * k3, u), dtype=float)
    return x + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def nearest_control(p, t, x, target_v, z_next, dt, level):
    """Nearest sampled velocity; ties toward z_next, then lowest index."""
    u = p.controls.at(t, level)
    vels = np.broadcast_to(np.asarray(p.f(t, x, u), dtype=float), (len(u), p.n))
    mism = np.linalg.norm(vels - target_v, axis=1)
    tie = np.where(mism <= float(mism.min()) + 1e-12)[0]
    if tie.size > 1:
        pos = np.linalg.norm(x + dt * vels[tie] - z_next, axis=1)
        tie = tie[pos <= pos.min() + 1e-12]
    return u[int(tie[0])]


class MixtureCredit:
    """Proportional scheduling of mixture support controls."""

    def __init__(self, k):
        self.credit = np.zeros(k)

    def pick(self, alpha):
        if len(alpha) != len(self.credit):
            self.credit = np.zeros(len(alpha))
        self.credit += alpha
        j = int(np.argmax(self.credit))
        self.credit[j] -= 1.0
        return j


def integrate_loop(p, t0, x0, schedule, steps, dt, level=0):
    states = np.empty((steps + 1, p.n))
    ctrl = np.empty((steps, p.controls.dim))
    states[0] = np.asarray(x0, dtype=float).reshape(-1)
    for j in range(steps):
        t = t0 + j * dt
        ctrl[j] = p.controls.at(t, level)[int(schedule[j])]
        states[j + 1] = rk4_step(p.f, t, states[j], ctrl[j], dt)
    return states, ctrl


def integrate_controls_loop(p, t0, x0, controls, dt):
    controls = np.atleast_2d(np.asarray(controls, dtype=float))
    states = np.empty((len(controls) + 1, p.n))
    states[0] = np.asarray(x0, dtype=float).reshape(-1)
    for j in range(len(controls)):
        states[j + 1] = rk4_step(p.f, t0 + j * dt, states[j], controls[j], dt)
    return states, controls


def _nearest_sweep(p, t0, x0, w, dt, level, push=0, push_pick=None):
    z = x0 + np.vstack([np.zeros(w.shape[1]), np.cumsum(w * dt, axis=0)])
    steps = len(w)
    states = np.empty((steps + 1, p.n))
    ctrl = np.empty((steps, p.controls.dim))
    states[0] = x0
    for j in range(steps):
        t = t0 + j * dt
        if j < push:
            ctrl[j] = push_pick(t)
        else:
            ctrl[j] = nearest_control(p, t, states[j], w[j], z[j + 1], dt, level)
        states[j + 1] = rk4_step(p.f, t, states[j], ctrl[j], dt)
    return states, ctrl


def filippov_project_loop(p, t0, x0, w, steps, dt, level=0):
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    w = np.asarray(w, dtype=float).reshape(steps, -1)
    return _nearest_sweep(p, t0, x0, w, dt, level)


def viable_trajectory_loop(p, cert, t0, x0, t1, dt, level=0, steps=None, tube_radius=None):
    from feastube.ipc import inward_margin

    if steps is None:
        steps = max(1, int(round((t1 - t0) / dt)))
    trig = tube_radius
    if trig is None:
        trig = min(cert.eta, 1.5 * (p.data.M + p.data.omega_lip) * dt)
    gb = np.maximum(p.grad_bounds(), 1e-12)
    mux = MixtureCredit(1)
    states = np.empty((steps + 1, p.n))
    ctrl = np.empty((steps, p.controls.dim))
    states[0] = np.asarray(x0, dtype=float).reshape(-1)
    for j in range(steps):
        t = t0 + j * dt
        hv = geo.eval_constraints(p, t, states[j])
        assert float(hv.max()) <= geo.TOL_FEAS
        u = p.default_control
        if np.any(hv >= -trig * gb):
            mr = inward_margin(p, t, states[j], cert.delta, level)
            if np.isfinite(mr.r):
                u = p.controls.at(t, level)[mux.pick(mr.alpha)]
        ctrl[j] = u
        states[j + 1] = rk4_step(p.f, t, states[j], u, dt)
    return states, ctrl


def push_and_replay_loop(p, cert, cons, t_a, ref_states, rho_c, dt, level=0):
    """Inward mixture for ceil(k rho / dt) steps, then the nearest-velocity
    replay of the reference derivative shifted by that many steps."""
    from feastube.ipc import inward_margin

    steps = len(ref_states) - 1
    start = ref_states[0]
    mr = inward_margin(p, t_a, start, cert.delta, level)
    s = min(int(np.ceil(cons.k_shift * rho_c / dt)), steps) if np.isfinite(mr.r) else 0
    refvel = np.diff(ref_states, axis=0) / dt
    w = np.vstack([np.repeat(mr.v[None, :], s, axis=0), refvel[: steps - s]])
    mux = MixtureCredit(len(mr.alpha))
    return _nearest_sweep(
        p, t_a, start, w, dt, level, push=s,
        push_pick=lambda t: p.controls.at(t, level)[mux.pick(mr.alpha)],
    )


def nft_correct_reprojecting(p, cert, xhat, level=0, constants=None):
    """Piece-by-piece repair that re-projects the whole remaining tail after
    every corrected piece and re-measures the violation over the whole path.

    Returns ``(states, controls or None, rho_in, sup_dist, interior_clearance)``.
    """
    times = np.asarray(xhat.times, dtype=float)
    ref0 = np.asarray(xhat.states, dtype=float)
    N = len(times) - 1
    dt = xhat.step
    cons = constants or tj.derive_nft_constants(p, cert, float(times[-1] - times[0]))
    steps_per_piece = int(cons.Delta / dt)
    assert steps_per_piece >= 1

    def rho_of(states):
        return float(geo.distances_upper_along(p, times, states).max())

    def strictly_inside(ts, xs):
        return bool(np.all(geo.clearance_proxy(p, ts[1:], xs[1:]) > 1e-12))

    rho_measured = rho_of(ref0)
    rho_eff = max(rho_measured, 1e-8)
    cur = ref0.copy()
    ctrl = np.zeros((N, p.controls.dim))
    have_ctrl = np.zeros(N, dtype=bool)
    if xhat.controls is not None:
        ctrl[:] = xhat.controls
        have_ctrl[:] = True
    if rho_measured <= 0.0 and strictly_inside(times, cur):
        clear = float(np.min(geo.clearance_proxy(p, times[1:], cur[1:])))
        return ref0, xhat.controls, rho_eff, 0.0, clear

    bounds = list(range(0, N, steps_per_piece)) + [N]
    rho_prev = rho_eff
    for ja, jb in zip(bounds[:-1], bounds[1:]):
        t_a = float(times[ja])
        piece_clear = strictly_inside(times[ja:jb + 1], cur[ja:jb + 1])
        deep = geo.clearance_proxy(p, t_a, cur[ja]) > cons.eta_hat / 2
        feas_now = geo.violations_along(p, times[ja:jb + 1], cur[ja:jb + 1]).max() <= geo.TOL_FEAS
        if feas_now and (piece_clear or deep):
            continue
        if deep or rho_prev > cons.rho_bar:
            ref_piece = tj.viable_trajectory(
                p, cert, t_a, cur[ja], float(times[jb]), dt, level, steps=jb - ja).states
            rho_c = 1e-8
        else:
            ref_piece = cur[ja:jb + 1].copy()
            rho_c = max(rho_prev, 1e-8)
        piece_states, piece_ctrl = tj._case_push_and_replay(
            p, cert, cons, t_a, ref_piece, rho_c, dt, level)
        assert geo.violations_along(p, times[ja:jb + 1], piece_states).max() <= geo.TOL_FEAS
        old_jb = cur[jb].copy()
        cur[ja:jb + 1] = piece_states
        ctrl[ja:jb] = piece_ctrl
        have_ctrl[ja:jb] = True
        if jb < N:
            oldvel = np.diff(np.vstack([old_jb[None, :], cur[jb + 1:]]), axis=0) / dt
            tail = tj.filippov_project(p, float(times[jb]), cur[jb], oldvel, N - jb, dt, level)
            cur[jb:] = tail.states
            ctrl[jb:] = tail.controls
            have_ctrl[jb:] = True
        rho_prev = max(rho_eff, rho_of(cur))

    sup_dist = float(np.max(np.linalg.norm(cur - ref0, axis=1)))
    clear = float(np.min(geo.clearance_proxy(p, times[1:], cur[1:])))
    return cur, (ctrl if bool(have_ctrl.all()) else None), rho_eff, sup_dist, clear


# ---------------------------------------------------------------------------
# backstep reference: one interpolation per velocity/cost candidate
# ---------------------------------------------------------------------------

def candidates_loop(p, t, nodes, level, relaxed, mixture_grid):
    """Velocity/cost candidates at a time slice, one ``f``/``L`` call per control:
    fresh arrays (R, P, n) and (R, P)."""
    u = p.controls.at(t, level)
    k = u.shape[0]
    P = nodes.shape[0]
    f_all = np.empty((k, P, p.n))
    L_all = np.empty((k, P))
    for j in range(k):
        f_all[j] = np.broadcast_to(
            np.asarray(p.f(t, nodes, u[j]), dtype=float), (P, p.n)
        )
        L_all[j] = np.broadcast_to(
            np.asarray(p.running_cost(t, nodes, u[j]), dtype=float), (P,)
        )
    if not relaxed:
        return f_all, L_all
    W = val._mixture_matrix(k, p.n + 1, mixture_grid)
    return mixtures_tensordot(W, f_all), mixtures_tensordot(W, L_all)


def mixtures_tensordot(W, a):
    """Mixtures of the per-control arrays ``a`` (k, ...) under the weights
    ``W`` (R, k), through ``np.tensordot`` as the backstep formed them first."""
    return np.tensordot(W, a, axes=(1, 0))


def interp_clipped(axes, grid_vals, pts):
    """Multilinear interpolation of the slice ``grid_vals`` at the rows of
    ``pts`` (m, n) through the value module's one kernel: the points' terms
    (``value._terms``) applied to the padded slice (``value._padded``,
    ``value._apply_stencil``).  +inf wherever a contributing corner is not
    finite or the point leaves the grid by more than 1e-9 of a step."""
    return val._apply_stencil(val._terms(axes, pts.T), val._padded(grid_vals))


def interp_clipped_pointwise(axes, grid_vals, pts):
    """Multilinear interpolation of ``grid_vals`` at each row of ``pts`` from
    the point's own coordinates: +inf wherever a contributing corner is not
    finite or the point leaves the grid by more than 1e-9 of a step.
    Fractions within 1e-9 of a node snap to it, and corners of weight at or
    below 1e-15 do not contribute.  A pinned copy of the value module's
    interpolation as it was before node-independent velocities got shared
    per-axis stencils."""
    n = len(axes)
    P = len(pts)
    idx, frac = [], []
    infmask = np.zeros(P, dtype=bool)
    for d in range(n):
        ax = axes[d]
        step = ax[1] - ax[0]
        x = pts[:, d]
        infmask |= (x < ax[0] - 1e-9 * step) | (x > ax[-1] + 1e-9 * step)
        pos = np.clip((x - ax[0]) / step, 0.0, len(ax) - 1.0)
        i = np.minimum(pos.astype(int), len(ax) - 2)
        fr = pos - i
        fr = np.where(fr < 1e-9, 0.0, np.where(fr > 1 - 1e-9, 1.0, fr))
        idx.append(i)
        frac.append(fr)
    total = np.zeros(P)
    for corner in product((0, 1), repeat=n):
        w = np.ones(P)
        ii = []
        for d, c in enumerate(corner):
            w = w * (frac[d] if c else 1.0 - frac[d])
            ii.append(idx[d] + c)
        v = grid_vals[tuple(ii)]
        contributes = w > 1e-15
        infmask |= contributes & ~np.isfinite(v)
        total += np.where(contributes, w * np.where(np.isfinite(v), v, 0.0), 0.0)
    return np.where(infmask, np.inf, total)


def apply_stencil_loop(terms, vals):
    """``value._apply_stencil`` as a term loop into a fresh sum of zeros:
    the padded slice ``vals`` gathered at every term, weighted, and added
    term by term in order to +0.0."""
    flat, w = terms
    part = vals.take(flat)
    part *= w
    total = np.zeros(w.shape[1:])
    for term in part:
        total += term
    return total


def backstep_loop(p, lam, axes, nodes, t, dt, next_slice, feas_now, level,
                  relaxed, mixture_grid, memo=None):
    """Semi-Lagrangian backstep at ``t`` from ``next_slice`` (P,), +inf off
    ``feas_now``: every candidate's foot points are interpolated on their
    own.  ``memo`` is accepted and ignored."""
    f_all, L_all = candidates_loop(p, t, nodes, level, relaxed, mixture_grid)
    best = np.full(nodes.shape[0], np.inf)
    disc = math.exp(-lam * t)
    grid_next = next_slice.reshape(tuple(len(a) for a in axes))
    for r in range(f_all.shape[0]):
        vn = interp_clipped_pointwise(axes, grid_next, nodes + dt * f_all[r])
        best = np.minimum(best, disc * L_all[r] * dt + vn)
    return np.where(feas_now, best, np.inf)


def sweep_loop(p, field):
    """The slices of ``field`` rebuilt from its own times alone: zero on the
    feasible nodes of the last slice, then one ``backstep_loop`` per slice,
    latest first, on the feasibility of ``feasible_slices_loop``.  Shares no
    horizon, feasibility, block or pad code with ``value.solve_value``."""
    times, nodes = field.times, field.grid_nodes()
    feas = feasible_slices_loop(p, times, nodes)
    vals = np.empty(feas.shape)
    vals[-1] = np.where(feas[-1], 0.0, np.inf)
    for i in range(len(times) - 2, -1, -1):
        vals[i] = backstep_loop(p, field.lam, field.axes, nodes, float(times[i]), field.dt,
                                vals[i + 1], feas[i], field.level, field.relaxed,
                                field.mixture_grid)
    return vals.reshape(field.values.shape)


def solve_checked_per_slice(p, lam, grid, relaxed, mixture_grid, horizon, level=0):
    """The slices ``value.solve_value`` gives at the explicit ``horizon``,
    (steps + 1, P), stepped by one ``backstep_loop`` per slice, latest
    first, and checked one slice at a time as the sweep once checked them:
    a slice whose running cost is not finite at a feasible node raises
    NonFiniteCost at its turn, before it steps, and a feasible node that a
    slice leaves without a finite value raises GridTooCoarse right after
    that slice.  The margin check, the constrained axes and the hint of the
    GridTooCoarse message are the value module's own."""
    steps = max(1, int(round((horizon - grid.t0) / grid.dt)))
    times = grid.t0 + grid.dt * np.arange(steps + 1)
    nodes, axes = grid.nodes(), grid.axes()
    feas = feasible_slices_loop(p, times, nodes)
    constrained = val._constrained_axes(p, times[::max(1, steps // 8)])
    val._check_margin(p, grid, nodes, times, feas, constrained)
    vals = np.empty(feas.shape)
    vals[-1] = np.where(feas[-1], 0.0, np.inf)
    for i in range(steps - 1, -1, -1):
        t = float(times[i])
        costs = [np.broadcast_to(np.asarray(p.running_cost(t, nodes, u), dtype=float),
                                 nodes.shape[:1]) for u in p.controls.at(t, level)]
        bad = feas[i] & ~np.all([np.isfinite(c) for c in costs], axis=0)
        if bad.any():
            k = int(bad.argmax())
            raise NonFiniteCost(f"running cost of {p.name} at feasible node {nodes[k]} "
                                f"at t={t} is not finite: {[float(c[k]) for c in costs]}")
        with np.errstate(invalid="ignore"):     # a non-finite cost off the feasible set, mixed
            vals[i] = backstep_loop(p, lam, axes, nodes, t, grid.dt, vals[i + 1], feas[i],
                                    level, relaxed, mixture_grid)
        stranded = feas[i] & ~np.isfinite(vals[i])
        if stranded.any():
            k = int(stranded.argmax())
            raise GridTooCoarse(
                f"feasible node {nodes[k]} at t={t} has no stencil-feasible velocity; "
                + val._coarse_hint(p, axes, constrained, grid.dt, t, nodes[k], level))
    return vals


# ---------------------------------------------------------------------------
# assumption reference: one (f, L) evaluation per sampled point
# ---------------------------------------------------------------------------

def verify_data_assumptions_loop(p, samples=None, seed=0):
    """``problem.verify_data_assumptions`` with per-point loops over the
    sampled states and one ``h`` call per constraint."""
    spec = samples or SamplingSpec()
    rng = np.random.default_rng(seed)
    lo, hi = p.box[:, 0], p.box[:, 1]
    times = np.linspace(0.0, spec.horizon, spec.time_points)
    pts = lo + rng.random((spec.space_points, p.n)) * (hi - lo)
    checks = []

    def eval_fl(t, x, u):
        fv = np.asarray(p.f(t, x, u), dtype=float)
        lv = np.asarray(p.running_cost(t, x, u), dtype=float)
        return fv, lv

    if p.m == 0:
        checks.append(AssumptionCheck("tube-bounded", "vacuous", _witness()))
    else:
        worst, worst_w = -math.inf, _witness()
        ok = True
        gb = p.grad_bounds()
        for t in times:
            hv = np.stack(
                [np.asarray(c.h(t, pts), dtype=float) for c in p.constraints], axis=-1
            )
            if not np.all(np.isfinite(hv)):
                ok, worst_w = False, _witness(t, pts[np.argmin(np.isfinite(hv).all(axis=-1))])
                break
            proxy = np.min(np.abs(hv) / np.maximum(gb, 1e-12), axis=-1)
            tube = pts[proxy <= p.data.alpha]
            if tube.size == 0:
                continue
            u = p.controls.at(t, spec.level)
            for x in tube:
                fv, lv = eval_fl(t, x, u)
                mag = np.abs(np.broadcast_to(fv, (u.shape[0], p.n))).sum(axis=-1) + np.abs(lv)
                j = int(np.argmax(mag))
                if not np.all(np.isfinite(fv)) or not np.all(np.isfinite(lv)):
                    ok = False
                    worst_w = _witness(t, x, u[j], math.inf, None)
                    break
                if mag[j] > worst:
                    worst, worst_w = float(mag[j]), _witness(t, x, u[j], mag[j], None)
        checks.append(AssumptionCheck("tube-bounded", "pass" if ok else "fail", worst_w))

    worst_slack, worst_w, ok = -math.inf, _witness(value=0.0, bound=p.data.k.sup()), True
    for t in times:
        u = p.controls.at(t, spec.level)
        kt = p.data.k.value(t)
        for a, b in zip(pts[:-1], pts[1:]):
            dist = float(np.linalg.norm(a - b))
            if dist < 1e-12:
                continue
            fa, la = eval_fl(t, a, u)
            fb, lb = eval_fl(t, b, u)
            diff = (
                np.linalg.norm(
                    np.broadcast_to(fa, (u.shape[0], p.n))
                    - np.broadcast_to(fb, (u.shape[0], p.n)),
                    axis=-1,
                )
                + np.abs(la - lb)
            )
            j = int(np.argmax(diff))
            ratio = float(diff[j]) / dist
            if ratio - kt > worst_slack:
                worst_slack, worst_w = ratio - kt, _witness(t, a, u[j], ratio, kt)
            if ratio > kt + 1e-9:
                ok = False
    checks.append(AssumptionCheck("lipschitz-x", "pass" if ok else "fail", worst_w))

    worst_slack, worst_w, ok = -math.inf, _witness(), True
    for t in times:
        u = p.controls.at(t, spec.level)
        ct = p.data.c.value(t)
        for x in pts:
            fv, lv = eval_fl(t, x, u)
            mag = np.linalg.norm(np.broadcast_to(fv, (u.shape[0], p.n)), axis=-1) + np.abs(lv)
            bound = ct * (1.0 + float(np.linalg.norm(x)))
            j = int(np.argmax(mag))
            slack = float(mag[j]) - bound
            if slack > worst_slack:
                worst_slack, worst_w = slack, _witness(t, x, u[j], mag[j], bound)
            if slack > 1e-9:
                ok = False
    checks.append(AssumptionCheck("growth", "pass" if ok else "fail", worst_w))

    avg_ts = times[times > 1e-9]
    if avg_ts.size == 0:
        avg_ts = np.array([spec.horizon])
    avgs = [(p.data.c.integral(0, t) + p.data.k.integral(0, t)) / t for t in avg_ts]
    j = int(np.argmax(avgs))
    ok = math.isfinite(avgs[j])
    checks.append(AssumptionCheck("avg-modulus", "pass" if ok else "fail",
                                  _witness(avg_ts[j], None, None, avgs[j], None)))

    worst_slack, worst_w, ok = -math.inf, _witness(), True
    for t in times:
        lhs = p.data.c.integral(0, t)
        rhs = p.data.a1 * t + p.data.a2
        if lhs - rhs > worst_slack:
            worst_slack, worst_w = lhs - rhs, _witness(t, None, None, lhs, rhs)
        if lhs > rhs + 1e-9:
            ok = False
    checks.append(AssumptionCheck("affine-majorant", "pass" if ok else "fail", worst_w))
    return AssumptionReport(tuple(checks))


# ---------------------------------------------------------------------------
# certify references: one Lipschitz quotient per pair, one field evaluation
# per time along a path or at a probe, one CSV row at a time
# ---------------------------------------------------------------------------

def slice_pairs_loop(field, i, budget, rng):
    """Node-index pairs: grid neighbors first, then seeded random pairs."""
    flat = field.values[i].ravel()
    fin = np.where(np.isfinite(flat))[0]
    if fin.size < 2:
        return []
    shape = field.values[i].shape
    pairs = []
    finite_set = np.zeros(flat.size, dtype=bool)
    finite_set[fin] = True
    for d in range(len(shape)):
        stride = int(np.prod(shape[d + 1:], dtype=int))
        for a in fin:
            b = a + stride
            idx_d = (a // stride) % shape[d]
            if idx_d + 1 < shape[d] and b < flat.size and finite_set[b]:
                pairs.append((int(a), int(b)))
    while len(pairs) < budget and fin.size >= 2:
        extra = rng.choice(fin, size=(budget - len(pairs), 2))
        pairs.extend((int(a), int(b)) for a, b in extra if a != b)
        if not np.any(extra[:, 0] != extra[:, 1]):
            break
    return pairs[:budget]


def lipschitz_profile_loop(field, constants, pair_budget=2000, tol=None, seed=0):
    """``analysis.lipschitz_profile`` with one 1-D ``np.linalg.norm`` per pair."""
    b, K = ana._envelope_rate(field, constants)
    tol = ana.scheme_tolerance(field) if tol is None else tol
    rng = np.random.default_rng(seed)
    nodes = field.grid_nodes()
    times = field.times
    emp = np.zeros(len(times))
    for i in range(len(times)):
        flat = field.values[i].ravel()
        best = 0.0
        for a, bdx in slice_pairs_loop(field, i, pair_budget, rng):
            dist = float(np.linalg.norm(nodes[a] - nodes[bdx]))
            if dist < 1e-14:
                continue
            q = abs(flat[a] - flat[bdx]) / dist
            if q > best:
                best = q
        emp[i] = best
    bound = b * np.exp(-(field.lam - K) * times)
    passed = bool(np.all(emp <= bound * (1.0 + tol) + 1e-15))
    return ana.LipschitzProfile(times, emp, bound, b, constants.C, K, tol, passed)


def decay_check_loop(p, field, traj, tol_decay=1e-2):
    """``analysis.decay_check`` with one ``state_at`` and one
    ``evaluate_value`` call per field time along the path."""
    a1, a2, lam = field.a1, field.a2, field.lam
    if lam <= a1:
        raise DiscountBelowThreshold(f"need lambda > a1 ({a1})")
    x0n = float(np.linalg.norm(traj.states[0]))
    times = field.times[(field.times >= traj.t0 - 1e-9) & (field.times <= traj.t1 + 1e-9)]
    if times.size == 0:
        raise TrajectoryOutOfGrid("trajectory does not overlap the field horizon")
    vals = np.empty(len(times))
    for i, t in enumerate(times):
        v = val.evaluate_value(field, float(t), traj.state_at(float(t)))
        if not math.isfinite(v):
            raise TrajectoryOutOfGrid(
                f"field is infeasible along the path at t={t}; the path must "
                "stay clear of the stencil-clipped boundary layer"
            )
        vals[i] = v
    env = (1.0 + x0n) * math.exp(a2) * (a1 * times + a1 / (lam - a1) + a2) * np.exp(
        -(lam - a1) * times
    )
    env = env + np.where(times > 1e-12, 1.0 / np.maximum(times, 1e-12), np.inf)
    tol = ana.scheme_tolerance(field)
    ok_env = bool(np.all(np.abs(vals) <= env + field.tail_bound + tol + 1e-15))
    final = float(abs(vals[-1]))
    passed = ok_env and final <= tol_decay
    return ana.DecayResult(times, vals, env, field.tail_bound, tol, tol_decay, final, passed)


def velocity_cost_sup_loop(field, p, probes, level=0):
    """``analysis.velocity_cost_sup`` with one ``velocities`` and one
    ``costs`` call per sampled time."""
    sup = 0.0
    for t in np.linspace(field.t0, field.T, 9):
        _, fv = p.velocities(float(t), probes, level)
        lv = p.costs(float(t), probes, level)
        mag = np.linalg.norm(fv, axis=-1) + np.abs(lv)
        sup = max(sup, float(np.where(np.isnan(mag), np.inf, mag).max()))
    return sup


def time_lipschitz_loop(field, p, constants, bound_N, probes, level=0):
    """``analysis.time_lipschitz_check`` with one ``evaluate_value`` call per
    field time at each probe."""
    b, K = ana._envelope_rate(field, constants)
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    sup = velocity_cost_sup_loop(field, p, probes, level)
    tol = ana.scheme_tolerance(field)
    if not (math.isfinite(bound_N) and bound_N >= sup):
        return ana.TimeLipschitzResult(False, sup, bound_N, probes, (), {}, tol)

    times = field.times
    strides = [s for s in (1, 2, 4) if s < len(times)]
    passed = []
    worst = {"slack": -math.inf}
    for x in probes:
        vals = np.array([val.evaluate_value(field, float(t), x) for t in times])
        if not np.all(np.isfinite(vals)):
            raise ProbeInfeasible(f"probe {x} leaves the feasible set")
        ok = True
        for s in strides:
            for i in range(len(times) - s):
                t_lo, t_hi = float(times[i]), float(times[i + s])
                lhs = abs(vals[i + s] - vals[i])
                rate = (b * math.exp(-(field.lam - K) * t_lo)
                        + 2 * math.exp(-field.lam * t_lo)) * bound_N
                rhs = rate * (t_hi - t_lo) + tol
                if lhs - rhs > worst["slack"]:
                    worst = {"slack": lhs - rhs, "t": t_lo, "t2": t_hi,
                             "x": [float(a) for a in x],
                             "lhs": float(lhs), "rhs": float(rhs)}
                if lhs > rhs + 1e-15:
                    ok = False
        passed.append(ok)
    return ana.TimeLipschitzResult(True, sup, bound_N, probes, tuple(passed), worst, tol)


def write_csv_rows(path, columns):
    """``analysis.write_csv`` one row at a time, ``repr(float(v))`` per value."""
    names = list(columns)
    rows = np.column_stack([np.asarray(columns[c], dtype=float) for c in names])
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# certificate references: one boundary sampling per time, one LP per
# boundary point
# ---------------------------------------------------------------------------

def boundary_points_per_time(p, t, n_dirs=24, ray_factor=1.5):
    """Boundary points at one time: one leave test and one ray-batched
    bisection per call."""
    if p.m == 0:
        return []
    a = np.asarray(p.anchor(t), dtype=float)
    if geo.max_violation(p, t, a) > geo.TOL_FEAS:
        raise InfeasibleInput(f"anchor infeasible at t={t}")
    R = ray_factor * float(np.linalg.norm(p.box[:, 1] - p.box[:, 0]))
    dirs = geo._directions(p.n, n_dirs)
    dirs = dirs[geo._worst(p, t, a + R * dirs) > 0.0]
    s = geo._bisect(lambda s: geo._worst(p, t, a + s[:, None] * dirs) <= 0.0,
                    np.zeros(len(dirs)), R, 60)
    return list(a + s[:, None] * dirs)


def inward_margin_unmemoised(p, t, x, delta, level=0):
    """``ipc.inward_margin`` solving a fresh LP at every call."""
    x = np.asarray(x, dtype=float).reshape(-1)
    u, vels = p.velocities(t, x, level)
    act = sorted(geo.active_set(p, t, x, delta).indices)
    if not act:
        alpha = np.zeros(u.shape[0])
        alpha[0] = 1.0
        return ipc.MarginResult(math.inf, alpha, vels[0], ())
    grads = np.stack(
        [np.asarray(p.constraints[i].grad(t, x), dtype=float).reshape(-1) for i in act]
    )
    r, alpha = solve_matrix_game(-grads @ vels.T)
    return ipc.MarginResult(float(r), alpha, alpha @ vels, tuple(act))


def verify_ipc_per_time(p, horizon, r_min, delta=0.5, n_time=64, n_dirs=24,
                        level=0, max_witnesses=8):
    """``ipc.verify_ipc`` sampling the boundary one time at a time and
    solving one LP per boundary point."""
    if r_min <= 0:
        raise ValueError("r_min must be positive")
    if p.m == 0:
        raise BoundarySamplingFailed("no constraints: the margin condition is vacuous")
    times = np.linspace(horizon[0], horizon[1], n_time)
    records = []
    for t in times:
        for x in boundary_points_per_time(p, float(t), n_dirs):
            mr = inward_margin_unmemoised(p, float(t), x, delta, level)
            if math.isfinite(mr.r):
                records.append((mr.r, float(t), x, mr.alpha, mr.v))
    if not records:
        raise BoundarySamplingFailed("boundary sampler found no boundary points")
    records.sort(key=lambda rec: rec[0])
    r_obs = records[0][0]
    worst = {
        "t": records[0][1],
        "x": [float(a) for a in records[0][2]],
        "r": float(r_obs),
        "alpha": [float(a) for a in records[0][3]],
        "v": [float(a) for a in records[0][4]],
    }
    if r_obs < r_min:
        return ipc.IpcVerification(False, None, worst, len(records), r_min)
    eps, eta = ipc.synthesize_ipc_constants(p, r_obs, delta)
    cert = ipc.IpcCertificate(
        r=float(r_obs), delta=float(delta), eps=eps, eta=eta,
        witnesses=tuple((t, x, al, v) for _, t, x, al, v in records[:max_witnesses]),
        n_samples=len(records),
    )
    cert.validate(p)
    return ipc.IpcVerification(True, cert, worst, len(records), r_min)


# ---------------------------------------------------------------------------
# CLI references: ``analyze`` and ``pipeline`` with their own check code
# ---------------------------------------------------------------------------

def _tracking_constants(cfg, p, ver, horizon):
    cons = tj.derive_nft_constants(p, ver.certificate, 1.0)
    return tj.derive_tracking_constants(p, cons.beta, horizon), cons


def _time_lip_bound(p, field, probes, level):
    return ana.velocity_cost_sup(field, p, probes, level) * 1.05 + 0.1


def cli_analyze(cfg, action):
    """``feastube analyze <action>`` with one branch per check."""
    p = cli._problem_from(cfg)
    lam = cfg["lam"] if cfg["lam"] is not None else p.lam
    ver = cli._ipc_certificate(cfg, p)
    if not ver.ok:
        cli._emit({"cmd": f"analyze {action}", "ok": False,
                   "reason": "margin verification failed"})
        return 2
    grid = cli._grid_from(cfg, p)
    results = {}
    skipped = None
    if action == "lipschitz":
        field = val.solve_value(p, lam, grid, relaxed=True, tol=cfg["tol"],
                                level=cfg["level"], mixture_grid=cfg["mixture_grid"],
                                horizon=cli._horizon_arg(cfg))
        tc, _ = _tracking_constants(cfg, p, ver, field.T)
        try:
            prof = ana.lipschitz_profile(field, tc, pair_budget=cfg["pair_budget"],
                                         seed=cfg["seed"])
            results["lipschitz"] = prof
            ok = prof.passed
        except DiscountBelowThreshold as exc:
            skipped, ok = str(exc), True
    elif action == "decay":
        field = val.solve_value(p, lam, grid, relaxed=True, tol=cfg["tol"],
                                level=cfg["level"], mixture_grid=cfg["mixture_grid"],
                                horizon=cli._horizon_arg(cfg))
        traj = tj.viable_trajectory(p, ver.certificate, field.t0,
                                    np.asarray(p.anchor(field.t0)), field.T, field.dt)
        dec = ana.decay_check(p, field, traj, tol_decay=cfg["tol_decay"])
        results["decay"] = dec
        ok = dec.passed
    elif action == "relax":
        fV = val.solve_value(p, lam, grid, relaxed=False, tol=cfg["tol"],
                             level=cfg["level"], horizon=cli._horizon_arg(cfg))
        fVs = val.solve_value(p, lam, grid, relaxed=True, tol=cfg["tol"],
                              level=cfg["level"], mixture_grid=cfg["mixture_grid"],
                              horizon=cli._horizon_arg(cfg))
        gap = ana.relaxation_gap(fV, fVs)
        results["relaxation"] = gap
        ok = gap.passed
    elif action == "time-lip":
        field = val.solve_value(p, lam, grid, relaxed=True, tol=cfg["tol"],
                                level=cfg["level"], mixture_grid=cfg["mixture_grid"],
                                horizon=cli._horizon_arg(cfg))
        tc, _ = _tracking_constants(cfg, p, ver, field.T)
        probes = (np.array([cli._vector(s, p.n, "--probes")
                            for s in str(cfg["probes"]).split(";")])
                  if cfg["probes"] else np.asarray(p.anchor(field.t0))[None, :])
        N = _time_lip_bound(p, field, probes, cfg["level"])
        try:
            tl = ana.time_lipschitz_check(field, p, tc, N, probes, level=cfg["level"])
            results["time_lipschitz"] = tl
            ok = tl.passed
        except DiscountBelowThreshold as exc:
            skipped, ok = str(exc), True
    else:
        raise ValueError(f"unknown analyze action {action!r}")
    if cfg["out"]:
        emitted = {k: v for k, v in results.items()}
        if skipped:
            emitted["skipped"] = {"reason": skipped}
        ana.emit_report(emitted, Path(cfg["out"]))
    line = {"cmd": f"analyze {action}", "ok": ok}
    if skipped:
        line["skipped"] = skipped
    cli._emit(line)
    return 0 if ok else 2


def cli_pipeline(cfg):
    """``feastube pipeline`` repeating the four checks; the time check runs
    at the anchor only, whatever ``probes`` says."""
    if not cfg["out"]:
        raise ValueError("pipeline needs --out")
    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    p = cli._problem_from(cfg)
    lam = cfg["lam"] if cfg["lam"] is not None else p.lam
    ana.write_json(outdir / "config.json",
                   {k: (list(v) if isinstance(v, (list, tuple)) else v)
                    for k, v in sorted(cfg.items()) if k != "out"})

    report = verify_data_assumptions(p, SamplingSpec(level=max(1, cfg["level"])),
                                     seed=cfg["seed"])
    ana.write_json(outdir / "assumptions.json", report.to_jsonable())
    verdicts = {"assumptions": report.ok}

    ver = cli._ipc_certificate(cfg, p)
    ana.write_json(outdir / "certificate.json", ver.to_jsonable())
    verdicts["ipc"] = ver.ok
    if not ver.ok:
        ana.write_json(outdir / "verdicts.json", verdicts)
        cli._emit({"cmd": "pipeline", "ok": False, "verdicts": verdicts})
        return 2

    cons = tj.derive_nft_constants(p, ver.certificate, 1.0)
    ana.write_json(outdir / "nft_constants.json", cons.to_jsonable())

    grid = cli._grid_from(cfg, p)
    fV = val.solve_value(p, lam, grid, relaxed=False, tol=cfg["tol"],
                         level=cfg["level"], horizon=cli._horizon_arg(cfg))
    fVs = val.solve_value(p, lam, grid, relaxed=True, tol=cfg["tol"],
                          level=cfg["level"], mixture_grid=cfg["mixture_grid"],
                          horizon=cli._horizon_arg(cfg))
    cli.write_field(outdir, "field", fV)
    cli.write_field(outdir, "field_relaxed", fVs)

    tc = tj.derive_tracking_constants(p, cons.beta, fVs.T)
    ana.write_json(outdir / "tracking_constants.json", tc.to_jsonable())

    results = {}
    try:
        prof = ana.lipschitz_profile(fVs, tc, pair_budget=cfg["pair_budget"],
                                     seed=cfg["seed"])
        results["lipschitz"] = prof
        verdicts["lipschitz"] = prof.passed
    except DiscountBelowThreshold as exc:
        verdicts["lipschitz"] = f"skipped: {exc}"

    traj = tj.viable_trajectory(p, ver.certificate, fVs.t0,
                                np.asarray(p.anchor(fVs.t0)), fVs.T, fVs.dt)
    dec = ana.decay_check(p, fVs, traj, tol_decay=cfg["tol_decay"])
    results["decay"] = dec
    verdicts["decay"] = dec.passed

    gap = ana.relaxation_gap(fV, fVs)
    results["relaxation"] = gap
    verdicts["relaxation"] = gap.passed

    probes = np.asarray(p.anchor(fVs.t0))[None, :]
    try:
        tl = ana.time_lipschitz_check(fVs, p, tc, _time_lip_bound(p, fVs, probes, cfg["level"]),
                                      probes, level=cfg["level"])
        results["time_lipschitz"] = tl
        verdicts["time_lipschitz"] = tl.passed
    except DiscountBelowThreshold as exc:
        verdicts["time_lipschitz"] = f"skipped: {exc}"

    ana.emit_report(results, outdir)
    ana.write_json(outdir / "verdicts.json", verdicts)
    ok = all(v is True or isinstance(v, str) for v in verdicts.values())
    cli._emit({"cmd": "pipeline", "ok": ok, "verdicts": verdicts})
    return 0 if ok else 2
