"""Inward-pointing margins over the moving constraint boundary.

At a boundary point, the inward margin is the value of the matrix game

    max over mixtures alpha of sampled velocities,
    min over near-active constraints i of  -<grad h_i, sum_j alpha_j f(t,x,u_j)>,

solved by a one-phase simplex on the row player's LP, whose final tableau
gives both players' strategies; the margin is the value the returned mixture
alpha guarantees, so an LP error can only lower it, and a duality gap above
tolerance raises ``LpFailure``.  A sweep over many points solves each
distinct game once (a memo keyed on the payoff matrix's bytes that lives
for that sweep only).  A positive uniform margin over sampled boundary
points yields a certificate carrying the geometric constants (eps, eta)
under which short inward moves from any near-boundary point stay feasible.

``_games`` is the one code that builds payoff matrices, keys them and reads
the memo.  It takes a stack of points: it groups them by active set, makes
each group's matrices in one stacked product whose items are each point's
own, and solves each distinct game once.  ``verify_ipc`` evaluates its
boundary samples in blocks of at most ``problem._SAMPLE_BLOCK`` velocity
values: one ``constraint_values``, one ``velocities`` and one ``gradients``
call and one ``_games`` call per block, where a block holds points of
sampled times that share their control samples.  ``inward_margin`` and the
viability rule call ``_games`` with one point, or a run of steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundarySamplingFailed, NoFeasibleConstants
from .geometry import _active_mask, _bisect, boundary_samples, eval_constraints
from .problem import _SAMPLE_BLOCK, ProblemDefinition
from .simplex import solve_matrix_game

Array = np.ndarray


@dataclass(frozen=True, eq=False)
class MarginResult:
    r: float
    alpha: Array          # weights over the sampled controls at this (t, x)
    v: Array              # mixed velocity sum_j alpha_j f(t, x, u_j)
    active: tuple[int, ...]


def inward_margin(
    p: ProblemDefinition, t: float, x, delta: float, level: int = 0,
    *, games: dict | None = None,
) -> MarginResult:
    """Best uniform inward margin at a feasible point.

    Returns +inf (with an arbitrary sampled velocity) when no constraint is
    delta-active; a nonpositive margin signals failure of the inward-pointing
    condition at (t, x).

    ``games`` is an optional memo that a caller keeps over one sweep of
    calls: each distinct payoff matrix is then solved once within it.  This
    is exact, since the LP is a deterministic function of the matrix alone.
    Every result owns its ``alpha``.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    u, vels = p.velocities(t, x, level)
    r, alpha, act = next(_games(p, t, x[None], eval_constraints(p, t, x)[None], vels[None],
                                delta, games))
    if not act:
        alpha = np.zeros(u.shape[0])
        alpha[0] = 1.0
        return MarginResult(math.inf, alpha, vels[0], ())
    alpha = alpha.copy()
    return MarginResult(r, alpha, alpha @ vels, tuple(act))


def _games(p: ProblemDefinition, t, X: Array, H: Array, V: Array, delta: float,
           games: dict | None, solve=None, grads: Array | None = None):
    """The margin games of a stack of rows, one row per point: yields each
    row's ``(r, alpha, active)`` in order.

    Row ``i`` is the point ``X[i]`` at time ``t`` (a scalar, or ``t[i]``),
    with its constraint values ``H[i]`` and its sampled velocities ``V[i]``
    of shape ``(k, n)``.  ``grads`` holds every constraint's gradient at
    every row, ``(N, m, n)``, when the caller has them; else one
    ``gradients`` call reads them here, if some row has an active
    constraint.  ``r`` is +inf and ``alpha`` None at a row where no
    constraint is delta-active.

    The rows are grouped by active set, and each group's payoff matrices
    come from one ``np.matmul`` of the negated active gradients, stacked
    ``(N_p, m_act, n)``, by the velocities, ``(N_p, n, k)``: each item has
    the shape and strides of the product of one row alone, and so its
    bytes.  The matrix's shape and bytes key the memo ``games`` (a memo of
    this call alone when None), so each distinct game is solved once, at
    its first row; ``alpha`` is the memo's own array, not to be written.
    ``solve``, when given, is asked at a row whose game is not in the memo
    whether to solve it; when it says no, the generator yields None and
    stops.  The games are read as the rows are drawn, so the answer may
    depend on what the caller did with the rows before."""
    groups: dict = {}                         # active set: its rows, in order
    for i, a in enumerate(_active_mask(p, H, delta).tolist()):
        if True in a:
            groups.setdefault(tuple(a), []).append(i)
    if groups and grads is None:
        grads = p.gradients(t, X)
    rows_games: list = [None] * len(H)        # each row's (key, payoff matrix, active set)
    for pattern, rows in groups.items():
        on = [j for j, a in enumerate(pattern) if a]
        idx = np.array(rows)
        G = grads[idx[:, None], on]           # (N_p, m_act, n), C-contiguous
        vels = np.ascontiguousarray(V[idx])
        Q = np.matmul(np.negative(G, out=G), vels.transpose(0, 2, 1))
        for i, q in zip(rows, Q):
            rows_games[i] = (Q.shape[1:], q.tobytes()), q, on
    games = {} if games is None else games
    for row in rows_games:
        if row is None:
            yield math.inf, None, []
            continue
        key, Q, on = row
        game = games.get(key)
        if game is None:
            if solve is not None and not solve():
                yield None
                return
            game = games[key] = solve_matrix_game(Q)
        yield float(game[0]), game[1], on


@dataclass(frozen=True, eq=False)
class IpcCertificate:
    """Sampled inward-pointing certificate with synthesized constants.

    ``r`` is the smallest observed margin, ``delta`` the active-set ball
    radius, and ``(eps, eta)`` satisfy the four construction inequalities
    (checked by :meth:`validate`).  Verification is sampled falsification,
    not a proof: ``n_samples`` records the evidence, and its JSON's
    ``sampled`` is always true.
    """

    r: float
    delta: float
    eps: float
    eta: float
    witnesses: tuple
    n_samples: int

    def validate(self, p: ProblemDefinition) -> None:
        eta_cap, eps_cap, eps_cap2, ball = _constant_caps(p, self.r, self.delta)
        tol = 1e-12
        if not (0 < self.eta <= eta_cap * (1 + tol)):
            raise ValueError("eta exceeds its admissible cap")
        if not (0 < self.eps <= eps_cap * (1 + tol)):
            raise ValueError("eps exceeds its admissible cap")
        if not self.eps <= eps_cap2 * (1 + tol):
            raise ValueError("eps exceeds the quadratic cap")
        if not self.eta + self.eps * (ball + self.eps) <= self.delta * (1 + tol):
            raise ValueError("eta + eps*(M + r/4L + eps) exceeds delta")
        if not self.witnesses:
            return
        T = np.array([t for t, _, _, _ in self.witnesses], dtype=float)
        X = np.array([np.asarray(x, dtype=float).reshape(-1) for _, x, _, _ in self.witnesses])
        act = _active_mask(p, p.constraint_values(T, X), self.delta)
        for (_, _, _, v), grads, on in zip(self.witnesses, p.gradients(T, X), act):
            for i in np.flatnonzero(on).tolist():
                if float(grads[i] @ v) > -self.r + 1e-9:
                    raise ValueError("stored witness violates the margin inequality")

    def to_jsonable(self) -> dict:
        return {
            "r": float(self.r),
            "delta": float(self.delta),
            "eps": float(self.eps),
            "eta": float(self.eta),
            "n_samples": int(self.n_samples),
            "sampled": True,
            "witnesses": [
                {
                    "t": float(t),
                    "x": [float(a) for a in np.asarray(x).reshape(-1)],
                    "alpha": [float(a) for a in np.asarray(al).reshape(-1)],
                    "v": [float(a) for a in np.asarray(v).reshape(-1)],
                }
                for t, x, al, v in self.witnesses
            ],
        }


def _constant_caps(p: ProblemDefinition, r: float, delta: float):
    """Caps (eta', eps', quadratic eps cap, M + r/4L) for the constants.

    Vanishing moduli drop their cap (the corresponding division degenerates
    and the limit is the correct relaxation).
    """
    L = float(p.grad_bounds().max(initial=0.0))
    if L <= 0:
        raise NoFeasibleConstants(f"no constraint with positive gradient bound: {p.grad_bounds()}")
    M = p.data.M
    phi = p.data.phi.sup()
    kh = max((c.holder_const for c in p.constraints), default=0.0)
    theta = min((c.holder_theta for c in p.constraints), default=0.5)

    eta_cap = math.inf
    if phi > 0:
        eta_cap = r / (4 * phi * L)
    if kh > 0 and M > 0:
        eta_cap = min(eta_cap, (r / (4 * kh * M)) ** (1.0 / theta))

    eps_cap = r / (8 * L)
    if kh > 0:
        eps_cap = min(eps_cap, (r / 8) / (kh * (M + r / (2 * L))))

    eps_cap2 = math.inf
    if kh > 0:
        eps_cap2 = (r / 4) / (kh * (M + r / (4 * L) + eps_cap) ** 2)

    return eta_cap, eps_cap, eps_cap2, M + r / (4 * L)


def synthesize_ipc_constants(p: ProblemDefinition, r: float, delta: float) -> tuple[float, float]:
    """Largest (eps, eta) pair satisfying the construction inequalities.

    eps is pushed to its cap first; when the ball-budget inequality
    ``eta + eps*(M + r/4L + eps) <= delta`` leaves no room for a positive
    eta, eps is bisected down (and halved for slack).  Deterministic.
    """
    if not (r > 0 and delta > 0) or not math.isfinite(r):
        raise NoFeasibleConstants(f"need finite r > 0 and delta > 0, got r={r}, delta={delta}")
    eta_cap, eps_cap, eps_cap2, ball = _constant_caps(p, r, delta)
    eps_max = min(eps_cap, eps_cap2)

    def eta_of(e: float) -> float:
        return min(eta_cap, delta - e * (ball + e))

    eps = eps_max
    if eta_of(eps) <= 0:
        eps = 0.5 * float(_bisect(lambda e: delta - e * (ball + e) > 0, 0.0, eps_max, 80))
    eta = eta_of(eps)
    if not (eps > 0 and eta > 0):
        raise NoFeasibleConstants(f"delta={delta} admits no positive (eps, eta)")
    return eps, eta


@dataclass(frozen=True, eq=False)
class IpcVerification:
    ok: bool
    certificate: IpcCertificate | None
    worst: dict
    n_samples: int
    r_min: float

    def to_jsonable(self) -> dict:
        out = {
            "ok": self.ok,
            "r_min": float(self.r_min),
            "n_samples": int(self.n_samples),
            "worst_witness": self.worst,
        }
        if self.certificate is not None:
            out.update(self.certificate.to_jsonable())
        return out


def verify_ipc(
    p: ProblemDefinition,
    horizon: tuple[float, float],
    r_min: float,
    delta: float = 0.5,
    n_time: int = 64,
    n_dirs: int = 24,
    level: int = 0,
    max_witnesses: int = 8,
) -> IpcVerification:
    """Check the inward margin over sampled boundary points of the horizon.

    The boundary is sampled at ``n_time`` equally spaced times by
    ``geometry.boundary_samples``: ``n_dirs`` is ignored in 1-D (always two
    rays), gives the number of equally spaced angles in 2-D, and for n >= 3
    gives ``max(n_dirs, 4n)`` random directions plus the 2n axis
    directions.  ``delta`` is the active-set ball radius.

    Succeeds iff the smallest observed margin reaches ``r_min``; the
    certificate then carries r = that minimum and the synthesized
    ``(eps, eta)``.  On failure the worst (t, x, r) witness is reported.
    Ties go to the earliest sample in time-major, direction order.
    """
    if r_min <= 0:
        raise ValueError("r_min must be positive")
    if n_time < 1:
        raise ValueError(f"n_time must be >= 1, got n_time={n_time}")
    if n_dirs < 1:
        raise ValueError(f"n_dirs must be >= 1, got n_dirs={n_dirs}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got delta={delta}")
    if p.m == 0:
        raise BoundarySamplingFailed(f"no constraints: the margin condition is vacuous ({p.name})")
    t0, t1 = horizon
    ts, X = boundary_samples(p, np.linspace(t0, t1, n_time), n_dirs)
    # the boundary points of each sampled time, rows [starts[i], starts[i + 1])
    starts = np.append(np.flatnonzero(np.diff(ts, prepend=np.nan) != 0), len(ts))
    keep = max(max_witnesses, 1)
    games: dict = {}
    margins, kept = [], {}                   # each row's r; (alpha, v) of the rows kept
    for lo, hi, u in p.controls.runs(ts[starts[:-1]].tolist(), level):
        per = max(1, _SAMPLE_BLOCK // (len(u) * p.n))
        for a in range(starts[lo], starts[hi], per):
            # the model at a block of boundary points in one call each
            b = min(a + per, starts[hi])
            T, Xb = ts[a:b], X[a:b]
            V = p.velocities(T, Xb, level, u)[1].transpose(1, 0, 2)        # (points, k, n)
            r, alphas, _ = zip(*_games(p, T, Xb, p.constraint_values(T, Xb), V, delta, games,
                                       grads=p.gradients(T, Xb)))
            r = np.array(r)
            margins.append(r)
            # only a block's first rows by margin can be kept or be the worst
            fin = np.flatnonzero(np.isfinite(r))
            for i in fin[np.argsort(r[fin], kind="stable")][:keep].tolist():
                alpha = alphas[i].copy()
                kept[a + i] = alpha, alpha @ np.ascontiguousarray(V[i])
    r = np.concatenate(margins) if margins else np.empty(0)
    fin = np.flatnonzero(np.isfinite(r))
    if not fin.size:
        raise BoundarySamplingFailed(f"boundary sampler found no boundary points: {n_time} times "
                                     f"in [{t0}, {t1}], {n_dirs} directions")
    # ties go to the earliest sample in time-major, direction order
    order = fin[np.argsort(r[fin], kind="stable")][:keep].tolist()
    records = [(float(r[i]), float(ts[i]), X[i], *kept[i]) for i in order]
    r_obs = records[0][0]
    worst = {
        "t": records[0][1],
        "x": [float(a) for a in records[0][2]],
        "r": float(r_obs),
        "alpha": [float(a) for a in records[0][3]],
        "v": [float(a) for a in records[0][4]],
    }
    if r_obs < r_min:
        return IpcVerification(False, None, worst, len(fin), r_min)
    eps, eta = synthesize_ipc_constants(p, r_obs, delta)
    cert = IpcCertificate(
        r=float(r_obs),
        delta=float(delta),
        eps=eps,
        eta=eta,
        witnesses=tuple((t, x, al, v) for _, t, x, al, v in records[:max_witnesses]),
        n_samples=len(fin),
    )
    cert.validate(p)
    return IpcVerification(True, cert, worst, len(fin), r_min)
