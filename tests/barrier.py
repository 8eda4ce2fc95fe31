"""Log-barrier interior-point solver for smooth convex programs.

A general-purpose reference for the tests: ``sca_epigraph`` states the
placement steps as epigraph programs for it, against which the reduced
projected-Newton steps in ``uavmec.placement`` are cross-checked.

Problems have a linear objective, smooth convex inequality constraints
g_k(x) <= 0 supplied as blocks (vectorized value/jacobian/weighted-hessian
callbacks), and box bounds. The path-following schedule is t0 = 1,
multiplier 10, stopping once the barrier duality-gap bound m/t drops
below the requested tolerance; each centering stage runs damped Newton
with backtracking (alpha = 0.25, beta = 0.5) to a decrement of 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from uavmec.lp import SolveStatus, Status


class ConstraintBlock:
    """A group of smooth convex constraints g(x) <= 0 (vector-valued).

    Subclasses implement ``value`` -> (m,), ``jacobian`` -> (m, n) and
    ``hessian(x, w)`` -> sum_k w_k * Hess(g_k), an (n, n) matrix.
    """

    def value(self, x):
        raise NotImplementedError

    def jacobian(self, x):
        raise NotImplementedError

    def hessian(self, x, w):
        raise NotImplementedError


class FunctionConstraint(ConstraintBlock):
    """Single scalar constraint from plain callables (testing convenience)."""

    def __init__(self, value_fn, grad_fn, hess_fn):
        self._value, self._grad, self._hess = value_fn, grad_fn, hess_fn

    def value(self, x):
        return np.atleast_1d(float(self._value(x)))

    def jacobian(self, x):
        return np.atleast_2d(np.asarray(self._grad(x), dtype=float))

    def hessian(self, x, w):
        return float(w[0]) * np.asarray(self._hess(x), dtype=float)


@dataclass
class ConvexProgram:
    n: int
    c: np.ndarray                       # linear objective
    blocks: list = field(default_factory=list)
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.lo = (np.full(self.n, -np.inf) if self.lo is None
                   else np.asarray(self.lo, dtype=float))
        self.hi = (np.full(self.n, np.inf) if self.hi is None
                   else np.asarray(self.hi, dtype=float))
        if self.c.size != self.n or self.lo.size != self.n or self.hi.size != self.n:
            raise ValueError("dimension mismatch in ConvexProgram")

    def constraint_values(self, x):
        if not self.blocks:
            return np.zeros(0)
        return np.concatenate([blk.value(x) for blk in self.blocks])


_T0 = 1.0
_T_MULT = 10.0
_NEWTON_TOL = 1e-10
_LS_ALPHA = 0.25
_LS_BETA = 0.5
_FEAS_MARGIN = 1e-10


def _barrier_value(prog, x, t):
    g = prog.constraint_values(x)
    if np.any(g >= 0):
        return np.inf, g
    slo = x - prog.lo
    shi = prog.hi - x
    flo = np.isfinite(prog.lo)
    fhi = np.isfinite(prog.hi)
    if np.any(slo[flo] <= 0) or np.any(shi[fhi] <= 0):
        return np.inf, g
    val = t * float(prog.c @ x)
    if g.size:
        val -= float(np.sum(np.log(-g)))
    val -= float(np.sum(np.log(slo[flo]))) + float(np.sum(np.log(shi[fhi])))
    return val, g


def _strictly_feasible(prog, x, margin=0.0):
    g = prog.constraint_values(x)
    flo = np.isfinite(prog.lo)
    fhi = np.isfinite(prog.hi)
    return (np.all(g < -margin)
            and np.all(x[flo] > prog.lo[flo] + margin)
            and np.all(x[fhi] < prog.hi[fhi] - margin))


def solve_convex(prog: ConvexProgram, x0, tol: float = 1e-8,
                 max_newton: int = 2000) -> SolveStatus:
    """Minimize c.x over the program from a strictly interior x0.

    If x0 is not strictly feasible, a phase-1 slack program is solved
    first; a positive residual slack means the problem is infeasible.
    """
    x = np.asarray(x0, dtype=float).copy()
    if not _strictly_feasible(prog, x):
        x, ok, used = _phase1(prog, x, tol, max_newton)
        if not ok:
            return SolveStatus(Status.INFEASIBLE, iterations=used)
    return _barrier(prog, x, tol, max_newton)


def _barrier(prog, x, tol, max_newton):
    flo = np.isfinite(prog.lo)
    fhi = np.isfinite(prog.hi)
    n_box = int(flo.sum() + fhi.sum())
    m = n_box + sum(blk.value(x).size for blk in prog.blocks)
    if m == 0:
        # no inequalities: unconstrained linear objective; only sensible if c=0
        return SolveStatus(Status.OPTIMAL, objective=float(prog.c @ x), x=x,
                           kkt_residual=0.0, iterations=0)
    t = _T0
    newton_used = 0
    ridge_failures = 0
    while True:
        # centering for current t; the decrement floor scales with t since
        # the composite objective's value noise is ~eps * t * |c.x|
        stage_steps = 0
        while True:
            if stage_steps >= 200:
                break
            if newton_used >= max_newton:
                return SolveStatus(Status.ITER_LIMIT,
                                   objective=float(prog.c @ x), x=x,
                                   kkt_residual=m / t, iterations=newton_used)
            grad = t * prog.c.copy()
            hess = np.zeros((prog.n, prog.n))
            for blk in prog.blocks:
                g = blk.value(x)
                jac = blk.jacobian(x)
                inv = 1.0 / (-g)
                grad += jac.T @ inv
                hess += (jac * (inv ** 2)[:, None]).T @ jac
                hess += blk.hessian(x, inv)
            slo = x - prog.lo
            shi = prog.hi - x
            d = np.zeros(prog.n)
            dd = np.zeros(prog.n)
            d[flo] -= 1.0 / slo[flo]
            d[fhi] += 1.0 / shi[fhi]
            dd[flo] += 1.0 / slo[flo] ** 2
            dd[fhi] += 1.0 / shi[fhi] ** 2
            grad += d
            hess[np.diag_indices_from(hess)] += dd
            try:
                dx = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                hess[np.diag_indices_from(hess)] += 1e-10 * (1 + np.abs(np.diag(hess)))
                try:
                    dx = np.linalg.solve(hess, -grad)
                except np.linalg.LinAlgError:
                    return SolveStatus(Status.NUMERICAL_FAILURE,
                                       objective=float(prog.c @ x), x=x,
                                       iterations=newton_used)
            decrement_sq = float(-grad @ dx)
            if decrement_sq < 0:
                # Hessian lost positive definiteness to rounding; regularize
                ridge_failures += 1
                if ridge_failures > 50:
                    return SolveStatus(Status.NUMERICAL_FAILURE,
                                       objective=float(prog.c @ x), x=x,
                                       iterations=newton_used)
                hess[np.diag_indices_from(hess)] += 1e-8 * (1 + np.abs(np.diag(hess)))
                dx = np.linalg.solve(hess, -grad)
                decrement_sq = float(-grad @ dx)
                if decrement_sq < 0:
                    decrement_sq = 0.0
            newton_used += 1
            stage_tol = max(_NEWTON_TOL,
                            1e-14 * t * (1.0 + abs(float(prog.c @ x))))
            if decrement_sq / 2.0 <= stage_tol:
                break
            f0, _ = _barrier_value(prog, x, t)
            gdx = float(grad @ dx)
            step = 1.0
            ls_ok = False
            for _ in range(60):
                f1, _ = _barrier_value(prog, x + step * dx, t)
                if f1 <= f0 + _LS_ALPHA * step * gdx:
                    ls_ok = True
                    break
                step *= _LS_BETA
            if not ls_ok:
                break  # at numerical precision for this stage
            x = x + step * dx
            stage_steps += 1
        if m / t <= tol:
            return SolveStatus(Status.OPTIMAL, objective=float(prog.c @ x),
                               x=x, kkt_residual=m / t, iterations=newton_used)
        t *= _T_MULT


class _ShiftedBlock(ConstraintBlock):
    """g_k(x) - s <= 0 over the augmented variable (x, s)."""

    def __init__(self, inner, n):
        self.inner = inner
        self.n = n

    def value(self, xs):
        return self.inner.value(xs[:-1]) - xs[-1]

    def jacobian(self, xs):
        jac = self.inner.jacobian(xs[:-1])
        out = np.zeros((jac.shape[0], self.n + 1))
        out[:, :-1] = jac
        out[:, -1] = -1.0
        return out

    def hessian(self, xs, w):
        out = np.zeros((self.n + 1, self.n + 1))
        out[:-1, :-1] = self.inner.hessian(xs[:-1], w)
        return out


def _phase1(prog, x0, tol, max_newton):
    """Minimize the common slack s with g_k(x) <= s; feasible iff s* < 0."""
    n = prog.n
    x = np.clip(x0, np.where(np.isfinite(prog.lo), prog.lo, -np.inf),
                np.where(np.isfinite(prog.hi), prog.hi, np.inf))
    # pull strictly inside the box
    flo = np.isfinite(prog.lo)
    fhi = np.isfinite(prog.hi)
    both = flo & fhi
    x[both] = np.clip(x[both], prog.lo[both] + 1e-6 * (prog.hi[both] - prog.lo[both]),
                      prog.hi[both] - 1e-6 * (prog.hi[both] - prog.lo[both]))
    only_lo = flo & ~fhi
    x[only_lo] = np.maximum(x[only_lo], prog.lo[only_lo] + 1.0)
    only_hi = fhi & ~flo
    x[only_hi] = np.minimum(x[only_hi], prog.hi[only_hi] - 1.0)
    g = prog.constraint_values(x)
    s0 = float(np.max(g, initial=-1.0)) + 1.0
    aug = ConvexProgram(
        n=n + 1,
        c=np.concatenate([np.zeros(n), [1.0]]),
        blocks=[_ShiftedBlock(blk, n) for blk in prog.blocks],
        lo=np.concatenate([prog.lo, [-1.0]]),
        hi=np.concatenate([prog.hi, [s0 + 1.0]]),
    )
    res = _barrier(aug, np.concatenate([x, [s0]]), min(tol, 1e-9), max_newton)
    if res.x is None:
        return x, False, res.iterations
    s_star = float(res.x[-1])
    x_new = res.x[:-1]
    if s_star < -1e-12 and _strictly_feasible(prog, x_new):
        return x_new, True, res.iterations
    return x, False, res.iterations
