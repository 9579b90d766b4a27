"""One-phase dense simplex with Bland's rule, sized for tiny matrix games."""

from __future__ import annotations

import numpy as np

from .errors import LpFailure

_TOL = 1e-11
# Smallest pivot the ratio test takes, relative to the column's largest entry
# (at least 1): a smaller entry can be cancellation noise of an exact zero,
# and pivoting on it wrecks the tableau.
_PIVOT_TOL = 1e-9
_MAX_ITER = 10_000


def _run(T: np.ndarray, basis: np.ndarray, cost: np.ndarray, max_iter: int) -> None:
    """Maximize cost over the tableau in place (columns = variables, last = rhs)."""
    for _ in range(max_iter):
        reduced = cost - cost[basis] @ T[:, :-1]
        entering = np.where(reduced > _TOL)[0]
        if entering.size == 0:
            return
        j = int(entering[0])  # Bland: smallest improving index
        col = T[:, j]
        rows = np.where(col > _PIVOT_TOL * max(1.0, float(np.abs(col).max())))[0]
        if rows.size == 0:
            raise LpFailure("LP unbounded; the margin game must be bounded")
        ratios = T[rows, -1] / col[rows]
        tie = rows[ratios <= ratios.min() + 1e-12]
        r = int(tie[np.argmin(basis[tie])])  # Bland: leave smallest basis index
        T[r] /= T[r, j]
        for i in range(T.shape[0]):
            if i != r and T[i, j] != 0.0:
                T[i] -= T[i, j] * T[r]
        basis[r] = j
    raise LpFailure("simplex iteration cap reached (cycling should be impossible)")


def solve_matrix_game(Q) -> tuple[float, np.ndarray]:
    """Value and optimal column mixture of ``max_alpha min_row (Q @ alpha)``.

    One phase: with ``P = Q + (1 - min Q) >= 1`` the row player's LP ``max
    sum(w)`` s.t. ``P.T @ w <= 1``, ``w >= 0`` starts at its slack basis.  Its
    final tableau gives the row mixture (the basic ``w``) and, as the dual,
    ``alpha``.  The value is the one ``alpha`` guarantees, ``min(Q @ alpha)``;
    a duality gap above ``1e-9 * max(1, max|Q|)`` raises :class:`LpFailure`.
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    m, n = Q.shape
    if Q.size == 0:
        raise LpFailure(f"matrix game of shape {m}x{n} has no payoffs")
    T = np.hstack([(Q + (1.0 - Q.min())).T, np.eye(n), np.ones((n, 1))])
    basis = np.arange(m, m + n)
    cost = np.concatenate([np.ones(m), np.zeros(n)])
    _run(T, basis, cost, _MAX_ITER)
    y = np.zeros(m)
    y[basis[basis < m]] = T[basis < m, -1]
    alpha = np.clip(cost[basis] @ T[:, m:m + n], 0.0, None)
    r, gap = -np.inf, np.inf
    if y.sum() > 0 and alpha.sum() > 0:  # else the solve stopped before any pivot
        y, alpha = y / y.sum(), alpha / alpha.sum()
        r = float((Q @ alpha).min())
        gap = float((y @ Q).max()) - r
    tol = 1e-9 * max(1.0, float(np.abs(Q).max()))
    if not gap <= tol:
        raise LpFailure(f"matrix game of shape {m}x{n}: duality gap {gap:.3g} exceeds {tol:.3g}")
    return r, alpha
