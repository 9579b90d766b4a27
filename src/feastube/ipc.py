"""Inward-pointing margins over the moving constraint boundary.

At a boundary point, the inward margin is the value of the matrix game

    max over mixtures alpha of sampled velocities,
    min over near-active constraints i of  -<grad h_i, sum_j alpha_j f(t,x,u_j)>,

solved exactly by a dense simplex; a sweep over many points solves each
distinct game once (a memo keyed on the payoff matrix's bytes that lives
for that sweep only).  A positive uniform margin over sampled boundary
points yields a certificate carrying the geometric constants (eps, eta)
under which short inward moves from any near-boundary point stay feasible.
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

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(int(j) for j in np.where(self.alpha > 1e-12)[0])


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
    return _margin(p, t, x, eval_constraints(p, t, x), delta, level, games)[0]


def _margin(p: ProblemDefinition, t: float, x: Array, hv: Array, delta: float,
            level: int, games: dict | None) -> tuple[MarginResult, Array, Array]:
    """``inward_margin`` at the point ``x`` of shape ``(n,)`` whose constraint
    values ``hv`` the caller already holds, together with the sampled
    controls ``(k, d)`` and velocities ``(k, n)`` the game was built from."""
    u, vels = p.velocities(t, x, level)
    act = _active_indices(p, hv, delta)
    if not act:
        alpha = np.zeros(u.shape[0])
        alpha[0] = 1.0
        return MarginResult(math.inf, alpha, vels[0], ()), u, vels
    grads = np.stack(
        [np.asarray(p.constraints[i].grad(t, x), dtype=float).reshape(-1) for i in act]
    )
    Q = -grads @ vels.T  # rows: active constraints, cols: sampled controls
    if games is None:
        r, alpha = solve_matrix_game(Q)
    else:
        key = (Q.shape, Q.tobytes())
        if key not in games:
            games[key] = solve_matrix_game(Q)
        r, alpha = games[key]
        alpha = alpha.copy()
    return MarginResult(float(r), alpha, alpha @ vels, tuple(act)), u, vels


@dataclass(frozen=True, eq=False)
class IpcCertificate:
    """Sampled inward-pointing certificate with synthesized constants.

    ``r`` is the smallest observed margin, ``delta`` the active-set ball
    radius, and ``(eps, eta)`` satisfy the four construction inequalities
    (checked by :meth:`validate`).  Verification is sampled falsification,
    not a proof: ``n_samples`` records the evidence.
    """

    r: float
    delta: float
    eps: float
    eta: float
    witnesses: tuple
    n_samples: int
    sampled: bool = True

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
            "sampled": self.sampled,
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
    for t, x in zip(ts.tolist(), X):
        mr = inward_margin(p, t, x, delta, level, games=games)
        if math.isfinite(mr.r):
            records.append((mr.r, t, x, mr.alpha, mr.v))
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
