"""Dense two-phase simplex for small/medium LPs.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.

Pivoting is Dantzig's rule with lowest-index tie-breaks, switching
permanently to Bland's rule after a run of degenerate pivots, so the
method is deterministic and cannot cycle. An optimal return carries the
dual point recovered from the final basis; the reported kkt_residual is
the primal-dual objective gap. A caller that knows a feasible basis can
start phase 2 from it (``solve_lp(lp, basis=...)``, built by
``basis_tableau``), skipping phase 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class Status(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITER_LIMIT = "iter_limit"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class SolveStatus:
    status: Status
    objective: float = np.nan
    x: np.ndarray | None = None
    kkt_residual: float = np.nan
    iterations: int = 0
    dual_objective: float = np.nan


@dataclass
class LinearProgram:
    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        if self.a_ub is None:
            self.a_ub = np.zeros((0, n))
            self.b_ub = np.zeros(0)
        self.a_ub = np.atleast_2d(np.asarray(self.a_ub, dtype=float))
        self.b_ub = np.atleast_1d(np.asarray(self.b_ub, dtype=float))
        if self.a_eq is None:
            self.a_eq = np.zeros((0, n))
            self.b_eq = np.zeros(0)
        self.a_eq = np.atleast_2d(np.asarray(self.a_eq, dtype=float))
        self.b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=float))
        if self.a_ub.shape != (self.b_ub.size, n):
            raise ValueError("a_ub/b_ub dimensions inconsistent with c")
        if self.a_eq.shape != (self.b_eq.size, n):
            raise ValueError("a_eq/b_eq dimensions inconsistent with c")


class _Tableau:
    """Equality-form tableau  A y = b, b >= 0, with an explicit basis."""

    def __init__(self, a, b, basis):
        self.a = a
        self.b = b
        self.basis = basis
        self.degenerate_run = 0
        self.use_bland = False
        self.iterations = 0

    def run(self, c, max_iter):
        """Primal simplex on the current basis for objective c (full length)."""
        a, b = self.a, self.b
        m = a.shape[0]
        basis = self.basis
        while True:
            if self.iterations >= max_iter:
                return Status.ITER_LIMIT
            cb = c[basis]
            # reduced costs via the current (already pivoted) tableau rows
            z = cb @ a - c
            if self.use_bland:
                cand = np.flatnonzero(z > 1e-10)
                if cand.size == 0:
                    return Status.OPTIMAL
                enter = cand[0]
            else:
                enter = int(np.argmax(z))
                if z[enter] <= 1e-10:
                    return Status.OPTIMAL
            col = a[:, enter]
            pos = col > 1e-10
            if not np.any(pos):
                return Status.UNBOUNDED
            ratios = np.full(m, np.inf)
            ratios[pos] = b[pos] / col[pos]
            rmin = ratios.min()
            if self.use_bland:
                # leaving: smallest basis index among the min-ratio rows
                rows = np.flatnonzero(ratios <= rmin + 1e-12)
                leave = rows[np.argmin(basis[rows])]
            else:
                leave = int(np.argmin(ratios))
            if rmin <= 1e-12:
                self.degenerate_run += 1
                if self.degenerate_run > 2 * (m + a.shape[1]):
                    self.use_bland = True
            else:
                self.degenerate_run = 0
            self._pivot(leave, enter)
            basis[leave] = enter
            self.iterations += 1

    def _pivot(self, row, col):
        a, b = self.a, self.b
        piv = a[row, col]
        a[row] /= piv
        b[row] /= piv
        factors = a[:, col].copy()
        factors[row] = 0.0
        a -= np.outer(factors, a[row])
        b -= factors * b[row]
        np.maximum(b, 0.0, out=b)


def basis_tableau(a, b, basis):
    """The tableau of ``a y = b`` at a starting basis, or None.

    ``basis`` holds one column index per row. None means the basis cannot
    start phase 2: it has the wrong size or an index out of range, its
    columns are singular to working precision (infinity-norm condition
    number above 1e12), or its basic solution B^-1 b has a negative entry.
    """
    m = a.shape[0]
    basis = np.asarray(basis, dtype=int)
    if (m == 0 or basis.shape != (m,) or basis.min() < 0
            or basis.max() >= a.shape[1]):
        return None
    bmat = a[:, basis]
    try:
        binv = np.linalg.inv(bmat)
    except np.linalg.LinAlgError:
        return None
    cond = np.abs(bmat).sum(axis=1).max() * np.abs(binv).sum(axis=1).max()
    if not cond <= 1e12:
        return None
    xb = binv @ b
    if np.any(xb < -1e-9 * max(1.0, np.abs(xb).max())):
        return None
    ta = binv @ a
    ta[:, basis] = np.eye(m)
    return _Tableau(ta, np.maximum(xb, 0.0), basis.copy())


def solve_lp(lp: LinearProgram, basis=None) -> SolveStatus:
    """Minimize ``lp`` over x >= 0 with the two-phase simplex.

    ``basis`` optionally names a starting basis: one index per row (a_ub
    rows first) into the columns [x | slacks of the a_ub rows]. If
    ``basis_tableau`` accepts it, phase 2 pivots from there; otherwise the
    two-phase method runs from scratch, as without it.

    Both phases together take at most 200 pivots per row and column of
    the tableau; an optimum whose primal-dual gap exceeds 1e-7 (relative
    to max(1, |objective|)) is reported as a numerical failure.
    """
    c, a_ub, b_ub, a_eq, b_eq = lp.c, lp.a_ub, lp.b_ub, lp.a_eq, lp.b_eq
    n = c.size
    m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
    m = m_ub + m_eq

    # equality form with slack columns for the <= rows
    a = np.zeros((m, n + m_ub))
    a[:m_ub, :n] = a_ub
    a[:m_ub, n:n + m_ub] = np.eye(m_ub)
    a[m_ub:, :n] = a_eq
    b = np.concatenate([b_ub, b_eq])
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    n_cols = n + m_ub
    tab = None if basis is None else basis_tableau(a, b, basis)
    if tab is not None:
        a0, b0 = a, b                  # basis_tableau leaves both as they are
        max_iter = 200 * (m + n_cols)
    else:
        # initial basis: slack columns where usable, artificials elsewhere
        start = np.full(m, -1, dtype=int)
        art_rows = []
        for i in range(m):
            if i < m_ub and not neg[i]:
                start[i] = n + i
            else:
                art_rows.append(i)
        if art_rows:
            art = np.zeros((m, len(art_rows)))
            for k, i in enumerate(art_rows):
                art[i, k] = 1.0
                start[i] = n_cols + k
            a = np.hstack([a, art])

        a0 = a.copy()
        b0 = b.copy()
        tab = _Tableau(a, b, start)
        max_iter = 200 * (m + a.shape[1])

        if art_rows:
            c1 = np.zeros(a.shape[1])
            c1[n_cols:] = 1.0
            st = tab.run(c1, max_iter)
            if st is Status.ITER_LIMIT:
                return SolveStatus(Status.ITER_LIMIT,
                                   iterations=tab.iterations)
            phase1_obj = float(c1[tab.basis] @ tab.b)
            if phase1_obj > 1e-7:
                return SolveStatus(Status.INFEASIBLE,
                                   iterations=tab.iterations)
            # drive remaining artificials out of the basis where possible
            for i in range(m):
                if tab.basis[i] >= n_cols:
                    row = tab.a[i, :n_cols]
                    j = int(np.argmax(np.abs(row)))
                    if abs(row[j]) > 1e-9:
                        tab._pivot(i, j)
                        tab.basis[i] = j
            # freeze artificial columns at zero
            tab.a[:, n_cols:] = 0.0
    total_cols = a0.shape[1]

    c2 = np.zeros(total_cols)
    c2[:n] = c
    st = tab.run(c2, max_iter)
    if st is Status.ITER_LIMIT:
        return SolveStatus(Status.ITER_LIMIT, iterations=tab.iterations)
    if st is Status.UNBOUNDED:
        return SolveStatus(Status.UNBOUNDED, iterations=tab.iterations)

    y = np.zeros(total_cols)
    y[tab.basis] = tab.b
    x = y[:n]
    primal = float(c @ x)
    # dual point from the final basis of the original equality-form system:
    # solve B^T pi = c_B, dual objective = pi . b0
    try:
        bb = tab.basis.copy()
        pi = np.linalg.lstsq(a0[:, bb].T, c2[bb], rcond=None)[0]
        dual = float(pi @ b0)
    except np.linalg.LinAlgError:
        return SolveStatus(Status.NUMERICAL_FAILURE, objective=primal, x=x,
                           iterations=tab.iterations)
    scale = max(1.0, abs(primal))
    kkt = abs(primal - dual) / scale
    if kkt > 1e-7:
        return SolveStatus(Status.NUMERICAL_FAILURE, objective=primal, x=x,
                           kkt_residual=kkt, iterations=tab.iterations,
                           dual_objective=dual)
    return SolveStatus(Status.OPTIMAL, objective=primal, x=x,
                       kkt_residual=kkt, iterations=tab.iterations,
                       dual_objective=dual)
