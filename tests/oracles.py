"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's own algorithms: the game oracle
enumerates equalizing square subsystems and simplex grids instead of running
a simplex method; the value oracle walks the full control tree; the repair
oracle enumerates every coarse control sequence; the geometry references
evaluate one constraint at one point at a time and bisect one ray at a time.
"""

from itertools import combinations, product

import numpy as np

from feastube import geometry as geo


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


def clearance_loop(p, times, states):
    """Per-node min_i (-h_i) / grad_bound_i."""
    out = []
    for t, x in zip(times, states):
        vals = [-float(np.asarray(c.h(float(t), x), dtype=float)) / max(c.grad_bound, 1e-12)
                for c in p.constraints]
        out.append(min(vals) if vals else np.inf)
    return np.array(out)


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
