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

``verify_ipc`` evaluates the margins one sampled time at a time: one
``constraint_values`` call, one ``velocities`` call and one call of each
constraint's ``grad`` over all of that time's boundary points.  Each point's
game is then built by ``_game``, the one code that builds a payoff matrix,
keys it and reads the memo, from that point's rows, so that it is the game
the point has alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundarySamplingFailed, NoFeasibleConstants
from .geometry import _active_indices, _bisect, active_set, boundary_samples, eval_constraints
from .problem import ProblemDefinition
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
    r, alpha, act = _game(p, t, x, eval_constraints(p, t, x), vels, delta, games)
    if not act:
        alpha = np.zeros(u.shape[0])
        alpha[0] = 1.0
        return MarginResult(math.inf, alpha, vels[0], ())
    alpha = alpha.copy()
    return MarginResult(r, alpha, alpha @ vels, tuple(act))


def _game(p: ProblemDefinition, t: float, x: Array, hv: Array, vels: Array, delta: float,
          games: dict | None, solve: bool = True, grads: Array | None = None):
    """The margin game at the point ``x`` of shape ``(n,)``, from its
    constraint values ``hv`` and its sampled velocities ``vels``, a
    C-contiguous ``(k, n)`` array, that the caller holds: ``(r, alpha,
    active)``.  ``grads`` holds every constraint's gradient at ``x``,
    ``(m, n)``, when the caller has them; else the active constraints' are
    evaluated here.  ``r`` is +inf and ``alpha`` None when no constraint is
    delta-active.  The payoff matrix's bytes key the memo ``games``;
    ``alpha`` is the memo's own array, not to be written.  With ``solve``
    False a game not yet in the memo gives None."""
    act = _active_indices(p, hv, delta)
    if not act:
        return math.inf, None, act
    if grads is None:
        grads = np.array(
            [np.asarray(p.constraints[i].grad(t, x), dtype=float).reshape(-1) for i in act]
        )
    else:
        grads = grads[act]
    Q = -grads @ vels.T  # rows: active constraints, cols: sampled controls
    key = (Q.shape, Q.tobytes())
    game = None if games is None else games.get(key)
    if game is None:
        if not solve:
            return None
        game = solve_matrix_game(Q)
        if games is not None:
            games[key] = game
    r, alpha = game
    return float(r), alpha, act


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
        for t, x, alpha, v in self.witnesses:
            for i in active_set(p, t, x, self.delta).indices:
                g = np.asarray(p.constraints[i].grad(t, x), dtype=float).reshape(-1)
                if float(g @ v) > -self.r + 1e-9:
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
        raise NoFeasibleConstants("no constraint with positive gradient bound")
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
        raise BoundarySamplingFailed("no constraints: the margin condition is vacuous")
    t0, t1 = horizon
    ts, X = boundary_samples(p, np.linspace(t0, t1, n_time), n_dirs)
    records: list[tuple[float, float, Array, Array, Array]] = []
    games: dict = {}
    starts = np.flatnonzero(np.diff(ts, prepend=np.nan) != 0).tolist()
    for a, b in zip(starts, starts[1:] + [len(ts)]):
        # the model at all of one sampled time's boundary points in one call each
        t, Xt = float(ts[a]), X[a:b]
        H = p.constraint_values(t, Xt).tolist()
        V = p.velocities(t, Xt, level)[1].transpose(1, 0, 2).copy()    # (points, k, n)
        G = np.empty((b - a, p.m, p.n))
        for i, c in enumerate(p.constraints):
            G[:, i] = c.grad(t, Xt)
        for x, hv, vels, grads in zip(Xt, H, V, G):
            r, alpha, _ = _game(p, t, x, hv, vels, delta, games, grads=grads)
            if math.isfinite(r):
                alpha = alpha.copy()
                records.append((r, t, x, alpha, alpha @ vels))
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
        return IpcVerification(False, None, worst, len(records), r_min)
    eps, eta = synthesize_ipc_constants(p, r_obs, delta)
    cert = IpcCertificate(
        r=float(r_obs),
        delta=float(delta),
        eps=eps,
        eta=eta,
        witnesses=tuple((t, x, al, v) for _, t, x, al, v in records[:max_witnesses]),
        n_samples=len(records),
    )
    cert.validate(p)
    return IpcVerification(True, cert, worst, len(records), r_min)
