"""Phase-2 simplex for LPs with a known feasible basis.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0,  starting
from a basic feasible solution that the caller names (``solve_lp(lp,
bases=...)``, checked by ``basis_start``); there is no phase 1.

Two simplex loops share one pivot rule (``PivotRule``): Dantzig's rule
with lowest-index tie-breaks, switching permanently to Bland's rule after
a run of degenerate pivots, so both are deterministic and cannot cycle.

- ``Simplex``, the revised simplex, solves the full LP. Its state is the
  basis, B^-1 and x_B: each pivot prices the original columns with the
  multipliers c_B B^-1, forms only the entering column B^-1 a_q, and
  updates B^-1 and x_B. ``solve_lp`` reads those columns from the LP's
  own blocks through ``EqualityView`` rather than a copy of the equality
  form; basis indices still count the columns of [x | slacks of the a_ub
  rows], a_ub rows first. An optimal return carries the dual point of
  the final basis, factored afresh from its original columns; the
  reported kkt_residual is the primal-dual objective gap.
- ``Tableau`` pivots a small dense LP that grows by columns, the
  association's Dantzig-Wolfe master, on [B^-1 b | B^-1 | B^-1 A] and
  its objective row: a new column costs one matrix-vector product and a
  pivot one rank-1 update.

A starting basis whose rows are mostly singletons (one nonzero each) has
them eliminated before the rest is factored densely, the first step of
LP-basis LU (Suhl & Suhl, ORSA J. Computing 2(4), 1990). An optimal
basis of the relaxed association LP is a pseudo-forest with at most
M - 1 split UEs (Lenstra, Shmoys & Tardos, Math. Programming 46, 1990):
every other UE row is a singleton, and the dense rest has at most
2M - 1 rows whatever N is.
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


class EqualityView:
    """The equality form [[a_ub, I], [a_eq, 0]] of an LP, read in place.

    It supplies all that ``Simplex`` reads of a dense matrix: ``shape``,
    the columns ``[:, j]`` and ``[:, indices]`` as arrays, and the pricing
    product ``y @ view`` = (y_ub a_ub + y_eq a_eq, y_ub).
    """

    __array_ufunc__ = None     # ndarray @ view defers to __rmatmul__

    def __init__(self, a_ub, a_eq):
        self.a_ub, self.a_eq = a_ub, a_eq
        self.shape = (len(a_ub) + len(a_eq), a_ub.shape[1] + len(a_ub))

    def __getitem__(self, key):
        flat = np.ravel(key[1])
        m_ub, n = self.a_ub.shape
        out = np.zeros((self.shape[0], flat.size))
        x = flat < n
        out[:m_ub, x] = self.a_ub[:, flat[x]]
        out[m_ub:, x] = self.a_eq[:, flat[x]]
        out[flat[~x] - n, np.flatnonzero(~x)] = 1.0
        return out.reshape((self.shape[0],) + np.shape(key[1]))

    def __rmatmul__(self, y):
        m_ub = self.a_ub.shape[0]
        return np.concatenate([y[:m_ub] @ self.a_ub + y[m_ub:] @ self.a_eq,
                               y[:m_ub]])


class PivotRule:
    """The entering and leaving choice of both simplex loops (``Simplex``,
    ``Tableau``): Dantzig's rule with lowest-index ties, switching for
    good to Bland's rule after a run of degenerate pivots longer than
    twice the rows and columns, so that the method cannot cycle."""

    def __init__(self):
        self.degenerate_run = 0
        self.use_bland = False

    def entering(self, z):
        """The entering column for the reduced costs z = c_B B^-1 A - c
        (zero at basic columns), or None at an optimum."""
        if self.use_bland:
            cand = np.flatnonzero(z > 1e-10)
            return cand[0] if cand.size else None
        enter = int(z.argmax())
        return enter if z[enter] > 1e-10 else None

    def leaving(self, xb, col, basis, width):
        """The row whose basic variable leaves for an entering column
        ``col`` = B^-1 a_q, by the ratio test on x_B, or None where no
        row limits it (unbounded). ``width`` is the number of columns."""
        pos = col > 1e-10
        if not pos.any():
            return None
        ratios = np.where(pos, xb, np.inf) / np.maximum(col, 1e-10)
        leave = int(ratios.argmin())
        rmin = ratios[leave]
        if self.use_bland:
            # leaving: smallest basis index among the min-ratio rows
            rows = np.flatnonzero(ratios <= rmin + 1e-12)
            leave = rows[np.argmin(basis[rows])]
        if rmin <= 1e-12:
            self.degenerate_run += 1
            if self.degenerate_run > 2 * (xb.size + width):
                self.use_bland = True
        else:
            self.degenerate_run = 0
        return leave


class Simplex:
    """Revised simplex on the equality form  A y = b, b >= 0.

    The state is the basis, B^-1 and x_B = B^-1 b; pricing reads the
    original columns ``a``, a dense array or an ``EqualityView`` (whose
    indices count the columns of [x | slacks]).
    """

    def __init__(self, a, binv, xb, basis):
        self.a = a
        self.binv = binv
        self.xb = xb
        self.basis = basis
        self.rule = PivotRule()
        self.iterations = 0

    def duals(self, c):
        """The simplex multipliers c_B B^-1 for objective c."""
        return c[self.basis] @ self.binv

    def run(self, c, max_iter):
        """Primal simplex on the current basis for objective c (full length)."""
        a, basis = self.a, self.basis
        while True:
            if self.iterations >= max_iter:
                return Status.ITER_LIMIT
            z = self.duals(c) @ a - c
            z[basis] = 0.0             # exactly, whatever B^-1's rounding
            enter = self.rule.entering(z)
            if enter is None:
                return Status.OPTIMAL
            col = self.binv @ a[:, enter]
            leave = self.rule.leaving(self.xb, col, basis, z.size)
            if leave is None:
                return Status.UNBOUNDED
            self.pivot(leave, enter, col)
            self.iterations += 1

    def pivot(self, row, enter, col):
        """Basis change: column ``enter``, whose B^-1 a is ``col``, replaces
        the basic variable of ``row``. ``col`` is overwritten."""
        binv, xb = self.binv, self.xb
        piv = col[row]
        binv[row] /= piv
        xb[row] /= piv
        col[row] = 0.0
        binv -= col[:, None] * binv[row]
        xb -= col * xb[row]
        np.maximum(xb, 0.0, out=xb)
        self.basis[row] = enter


class Tableau:
    """Dense simplex tableau of  min c.y  s.t.  A y = b, y >= 0, for a
    small LP that grows by columns of cost zero between runs.

    With m rows, the array ``t`` holds [x_B | B^-1 | B^-1 A] in its first
    m rows and the objective row [c_B x_B | c_B B^-1 | c_B B^-1 A - c]
    below them: the objective value, the simplex multipliers and the
    reduced costs that ``PivotRule`` reads. A pivot is one rank-1 update
    of the whole array; a new column a costs one product of a with the
    [B^-1; c_B B^-1] block, which gives both B^-1 a and its reduced
    cost. A pivot leaves every basic column an exact unit vector with a
    reduced cost of exactly zero. The starting basis must be feasible.
    """

    def __init__(self, a, b, c, basis):
        m = len(b)
        self.basis = np.array(basis)
        binv = np.linalg.inv(a[:, self.basis])
        self.t = t = np.empty((m + 1, 1 + m + a.shape[1]))
        t[:m, 0] = binv @ b
        t[:m, 1:1 + m] = binv
        t[:m, 1 + m:] = binv @ a
        t[m] = c[self.basis] @ t[:m]
        t[m, 1 + m:] -= c
        t[:, 1 + m + self.basis] = np.eye(m + 1, m)
        self.rule = PivotRule()
        self.iterations = 0

    @property
    def value(self):
        """The objective value c_B x_B."""
        return self.t[-1, 0]

    @property
    def duals(self):
        """The simplex multipliers c_B B^-1."""
        return self.t[-1, 1:len(self.t)]

    def add_columns(self, cols):
        """Append the columns ``cols`` (m x k) of A, each of cost zero."""
        m = len(self.basis)
        self.t = np.concatenate((self.t, self.t[:, 1:1 + m] @ cols), axis=1)

    def run(self, max_iter):
        """Primal simplex on the current basis."""
        t, m = self.t, len(self.basis)
        while True:
            if self.iterations >= max_iter:
                return Status.ITER_LIMIT
            z = t[m, 1 + m:]
            enter = self.rule.entering(z)
            if enter is None:
                return Status.OPTIMAL
            leave = self.rule.leaving(t[:m, 0], t[:m, 1 + m + enter],
                                      self.basis, z.size)
            if leave is None:
                return Status.UNBOUNDED
            self.pivot(leave, enter)
            self.iterations += 1

    def pivot(self, row, enter):
        """Basis change: column ``enter`` replaces the basic variable of
        ``row``."""
        t, m = self.t, len(self.basis)
        col = 1 + m + enter
        prow = t[row] / t[row, col]
        t -= t[:, col, None] * prow
        t[row] = prow
        np.maximum(t[:m, 0], 0.0, out=t[:m, 0])
        self.basis[row] = enter


def _inverse(bmat):
    """B^-1 of a square matrix B; raises LinAlgError where B is singular.

    Where more than half of B's rows are singletons (one nonzero each),
    they are eliminated first. With R1 those rows, C1 the columns of
    their nonzeros d (distinct, or B is singular), R2 and C2 the other
    rows and columns and S = B[R2, C2], B is block triangular and

        B^-1[C1, R1] = diag(1/d),   B^-1[C1, R2] = 0,
        B^-1[C2, R2] = S^-1,
        B^-1[C2, R1] = -S^-1 B[R2, C1] diag(1/d),

    so only S is inverted densely. Otherwise B is inverted whole, which
    is cheaper for a small matrix with few singletons.
    """
    m = bmat.shape[0]
    nonzero = bmat != 0.0
    single = nonzero.sum(axis=1) == 1
    r1 = np.flatnonzero(single)
    if 2 * r1.size <= m:
        return np.linalg.inv(bmat)
    c1 = nonzero[r1].argmax(axis=1)
    free = np.ones(m, dtype=bool)
    free[c1] = False
    r2, c2 = np.flatnonzero(~single), np.flatnonzero(free)
    lower = bmat[r2]
    # S has more columns than rows, and inv raises, where two singleton
    # rows share a column
    sinv = np.linalg.inv(lower[:, c2])
    d = bmat[r1, c1]
    binv = np.zeros((m, m))
    binv[c1, r1] = 1.0 / d
    rest = np.empty((c2.size, m))
    rest[:, r2] = sinv
    rest[:, r1] = (sinv @ lower[:, c1]) / -d
    binv[c2] = rest
    return binv


def basis_start(a, b, basis):
    """The simplex state of ``a y = b`` at a starting basis, or None.

    ``basis`` holds one column index per row. None means the basis cannot
    start phase 2: it has the wrong size or an index out of range, its
    columns are singular to working precision (infinity-norm condition
    number above 1e12), or its basic solution B^-1 b has a negative entry.
    B^-1 is formed by eliminating the basis's row singletons when they are
    more than half of its rows, and by inverting B whole otherwise
    (``_inverse``).
    """
    m = a.shape[0]
    basis = np.asarray(basis, dtype=int)
    if (m == 0 or basis.shape != (m,) or basis.min() < 0
            or basis.max() >= a.shape[1]):
        return None
    bmat = a[:, basis]
    try:
        binv = _inverse(bmat)
    except np.linalg.LinAlgError:
        return None
    cond = np.abs(bmat).sum(axis=1).max() * np.abs(binv).sum(axis=1).max()
    if not cond <= 1e12:
        return None
    xb = binv @ b
    if np.any(xb < -1e-9 * max(1.0, np.abs(xb).max())):
        return None
    return Simplex(a, binv, np.maximum(xb, 0.0), basis.copy())


def solve_lp(lp: LinearProgram, bases) -> SolveStatus:
    """Minimize ``lp`` over x >= 0 by phase 2 from a known feasible basis.

    ``bases`` names starting bases in order of preference, each one index
    per row (a_ub rows first) into the columns [x | slacks of the a_ub
    rows]. The simplex reads those columns from ``lp.a_ub`` and
    ``lp.a_eq`` in place (``EqualityView``) and pivots from the first
    basis that ``basis_start`` accepts; if it accepts none, the result is
    a numerical failure.

    Phase 2 takes at most 200 pivots per row and column of the equality
    form; an optimum whose primal-dual gap exceeds 1e-7 (relative to
    max(1, |objective|)) is reported as a numerical failure. The gap's
    dual point pi solves B^T pi = c_B on the final basis, factored afresh
    from its original columns: with no pivot taken, the B^-1 that
    ``basis_start`` formed is that factorization and pi = c_B B^-1;
    after pivots, one LU solve.
    """
    a = EqualityView(lp.a_ub, lp.a_eq)
    b = np.concatenate([lp.b_ub, lp.b_eq])
    for basis in bases:
        sim = basis_start(a, b, basis)
        if sim is not None:
            break
    else:
        return SolveStatus(Status.NUMERICAL_FAILURE)
    c = np.zeros(a.shape[1])
    c[:lp.c.size] = lp.c
    st = sim.run(c, 200 * sum(a.shape))
    if st is not Status.OPTIMAL:
        return SolveStatus(st, iterations=sim.iterations)

    y = np.zeros(a.shape[1])
    y[sim.basis] = sim.xb
    x = y[:lp.c.size]
    primal = float(lp.c @ x)
    # the dual point is never read off a B^-1 that pivots have updated
    if sim.iterations == 0:
        pi = sim.duals(c)
    else:
        try:
            pi = np.linalg.solve(a[:, sim.basis].T, c[sim.basis])
        except np.linalg.LinAlgError:
            return SolveStatus(Status.NUMERICAL_FAILURE, objective=primal,
                               x=x, iterations=sim.iterations)
    dual = float(pi @ b)
    kkt = abs(primal - dual) / max(1.0, abs(primal))
    return SolveStatus(Status.OPTIMAL if kkt <= 1e-7
                       else Status.NUMERICAL_FAILURE, objective=primal, x=x,
                       kkt_residual=kkt, iterations=sim.iterations)
