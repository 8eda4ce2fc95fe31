"""Revised two-phase simplex for small/medium LPs.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.

The simplex state is the basis, B^-1 and x_B (``Simplex``): each pivot
prices the original columns with the multipliers c_B B^-1, forms only
the entering column B^-1 a_q, and updates B^-1 and x_B. Pivoting is
Dantzig's rule with lowest-index tie-breaks, switching permanently to
Bland's rule after a run of degenerate pivots, so the method is
deterministic and cannot cycle. An optimal return carries the dual point
of the final basis, factored afresh from its original columns; the
reported kkt_residual is the primal-dual objective gap. A caller that
knows a feasible basis can start phase 2 from it (``solve_lp(lp,
basis=...)``, built by ``basis_start``), skipping phase 1.
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


class Simplex:
    """Revised simplex on the equality form  A y = b, b >= 0.

    The state is the basis, B^-1 and x_B = B^-1 b; pricing reads the
    original columns ``a``, to which a caller may append columns between
    runs (``add_column``).
    """

    def __init__(self, a, binv, xb, basis):
        self.a = a
        self.binv = binv
        self.xb = xb
        self.basis = basis
        self.degenerate_run = 0
        self.use_bland = False
        self.iterations = 0

    def duals(self, c):
        """The simplex multipliers c_B B^-1 for objective c."""
        return c[self.basis] @ self.binv

    def add_column(self, col):
        self.a = np.column_stack([self.a, col])

    def run(self, c, max_iter):
        """Primal simplex on the current basis for objective c (full length)."""
        a, xb, basis = self.a, self.xb, self.basis
        m = a.shape[0]
        while True:
            if self.iterations >= max_iter:
                return Status.ITER_LIMIT
            z = self.duals(c) @ a - c
            z[basis] = 0.0             # exactly, whatever B^-1's rounding
            if self.use_bland:
                cand = np.flatnonzero(z > 1e-10)
                if cand.size == 0:
                    return Status.OPTIMAL
                enter = cand[0]
            else:
                enter = int(np.argmax(z))
                if z[enter] <= 1e-10:
                    return Status.OPTIMAL
            col = self.binv @ a[:, enter]
            pos = col > 1e-10
            if not np.any(pos):
                return Status.UNBOUNDED
            ratios = np.full(m, np.inf)
            ratios[pos] = xb[pos] / col[pos]
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
            self.pivot(leave, enter, col)
            self.iterations += 1

    def pivot(self, row, enter, col):
        """Basis change: column ``enter``, whose B^-1 a is ``col``, replaces
        the basic variable of ``row``."""
        binv, xb = self.binv, self.xb
        piv = col[row]
        binv[row] /= piv
        xb[row] /= piv
        factors = col.copy()
        factors[row] = 0.0
        binv -= np.outer(factors, binv[row])
        xb -= factors * xb[row]
        np.maximum(xb, 0.0, out=xb)
        self.basis[row] = enter


def basis_start(a, b, basis):
    """The simplex state of ``a y = b`` at a starting basis, or None.

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
    return Simplex(a, binv, np.maximum(xb, 0.0), basis.copy())


def solve_lp(lp: LinearProgram, basis=None) -> SolveStatus:
    """Minimize ``lp`` over x >= 0 with the two-phase simplex.

    ``basis`` optionally names a starting basis: one index per row (a_ub
    rows first) into the columns [x | slacks of the a_ub rows]. If
    ``basis_start`` accepts it, phase 2 pivots from there; otherwise the
    two-phase method runs from scratch, as without it.

    Both phases together take at most 200 pivots per row and column of
    the equality form; an optimum whose primal-dual gap exceeds 1e-7
    (relative to max(1, |objective|)) is reported as a numerical failure.
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
    sim = None if basis is None else basis_start(a, b, basis)
    if sim is not None:
        max_iter = 200 * (m + n_cols)
    else:
        # initial basis: slack columns where usable, artificials elsewhere;
        # either way a unit matrix, so B^-1 = I and x_B = b
        art_rows = np.flatnonzero(neg | (np.arange(m) >= m_ub))
        start = n + np.arange(m)
        start[art_rows] = n_cols + np.arange(art_rows.size)
        a = np.hstack([a, np.eye(m)[:, art_rows]])
        sim = Simplex(a, np.eye(m), b.copy(), start)
        max_iter = 200 * (m + a.shape[1])

        if art_rows.size:
            c1 = np.zeros(a.shape[1])
            c1[n_cols:] = 1.0
            st = sim.run(c1, max_iter)
            if st is Status.ITER_LIMIT:
                return SolveStatus(Status.ITER_LIMIT,
                                   iterations=sim.iterations)
            phase1_obj = float(c1[sim.basis] @ sim.xb)
            if phase1_obj > 1e-7:
                return SolveStatus(Status.INFEASIBLE,
                                   iterations=sim.iterations)
            # drive remaining artificials out of the basis where possible
            for i in range(m):
                if sim.basis[i] >= n_cols:
                    row = sim.binv[i] @ a[:, :n_cols]
                    j = int(np.argmax(np.abs(row)))
                    if abs(row[j]) > 1e-9:
                        sim.pivot(i, j, sim.binv @ a[:, j])
            # freeze artificials at zero; a keeps them for the gap check
            sim.a = a.copy()
            sim.a[:, n_cols:] = 0.0

    c2 = np.zeros(a.shape[1])
    c2[:n] = c
    st = sim.run(c2, max_iter)
    if st is Status.ITER_LIMIT:
        return SolveStatus(Status.ITER_LIMIT, iterations=sim.iterations)
    if st is Status.UNBOUNDED:
        return SolveStatus(Status.UNBOUNDED, iterations=sim.iterations)

    y = np.zeros(a.shape[1])
    y[sim.basis] = sim.xb
    x = y[:n]
    primal = float(c @ x)
    # dual point from the final basis of the original equality-form system,
    # factored afresh rather than read off the B^-1 the pivots maintained:
    # solve B^T pi = c_B, dual objective = pi . b
    try:
        pi = np.linalg.solve(a[:, sim.basis].T, c2[sim.basis])
        dual = float(pi @ b)
    except np.linalg.LinAlgError:
        return SolveStatus(Status.NUMERICAL_FAILURE, objective=primal, x=x,
                           iterations=sim.iterations)
    scale = max(1.0, abs(primal))
    kkt = abs(primal - dual) / scale
    return SolveStatus(Status.OPTIMAL if kkt <= 1e-7
                       else Status.NUMERICAL_FAILURE, objective=primal, x=x,
                       kkt_residual=kkt, iterations=sim.iterations,
                       dual_objective=dual)
