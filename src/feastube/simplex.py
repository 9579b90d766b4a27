"""Dense two-phase simplex with Bland's rule, sized for tiny matrix games."""

from __future__ import annotations

import numpy as np

from .errors import LpFailure

_TOL = 1e-11
# Smallest pivot the ratio test takes, relative to the column's largest entry
# (at least 1): a smaller entry can be cancellation noise of an exact zero,
# and pivoting on it wrecks the tableau.
_PIVOT_TOL = 1e-9


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


def solve_lp(c, A, b, max_iter: int = 10_000) -> tuple[np.ndarray, float]:
    """Maximize ``c @ x`` subject to ``A x = b`` and ``x >= 0``."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    m, n = A.shape
    flip = b < 0
    A = np.where(flip[:, None], -A, A)
    b = np.where(flip, -b, b)

    # Phase 1: drive artificial variables to zero.
    T = np.hstack([A, np.eye(m), b[:, None]])
    basis = np.arange(n, n + m)
    cost1 = np.concatenate([np.zeros(n), -np.ones(m)])
    _run(T, basis, cost1, max_iter)
    if -(cost1[basis] @ T[:, -1]) > 1e-9:
        raise LpFailure("LP infeasible; the margin game must be feasible")
    # Pivot any degenerate artificial out of the basis; drop redundant rows.
    keep = []
    for i in range(m):
        if basis[i] >= n:
            cols = np.where(np.abs(T[i, :n]) > _TOL)[0]
            if cols.size == 0:
                continue
            j = int(cols[0])
            T[i] /= T[i, j]
            for k in range(T.shape[0]):
                if k != i and T[k, j] != 0.0:
                    T[k] -= T[k, j] * T[i]
            basis[i] = j
        keep.append(i)
    T = np.hstack([T[keep, :n], T[keep, -1:]])
    basis = basis[keep]

    cost2 = c.copy()
    _run(T, basis, cost2, max_iter)
    x = np.zeros(n)
    x[basis] = T[:, -1]
    return x, float(c @ x)


def solve_matrix_game(Q) -> tuple[float, np.ndarray]:
    """Value and optimal column mixture of ``max_alpha min_row (Q @ alpha)``.

    Encoded as the LP max r subject to ``Q @ alpha - s - r = 0`` per row,
    ``sum(alpha) = 1``, with slack ``s >= 0`` and ``r`` free.
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    m, n = Q.shape
    if n == 0:
        raise LpFailure("game with no columns")
    # variables: alpha (n), s (m), r_plus, r_minus
    A = np.zeros((m + 1, n + m + 2))
    A[:m, :n] = Q
    A[:m, n:n + m] = -np.eye(m)
    A[:m, n + m] = -1.0
    A[:m, n + m + 1] = 1.0
    A[m, :n] = 1.0
    b = np.zeros(m + 1)
    b[m] = 1.0
    c = np.zeros(n + m + 2)
    c[n + m], c[n + m + 1] = 1.0, -1.0
    x, value = solve_lp(c, A, b)
    alpha = np.clip(x[:n], 0.0, None)
    alpha /= alpha.sum()
    return value, alpha
