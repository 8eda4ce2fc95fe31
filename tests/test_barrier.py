"""Interior-point solver: analytic optima, phase-1 behavior, and random
quadratic programs against an in-repo projected-gradient reference."""

import numpy as np
import pytest

from barrier import (ConstraintBlock, ConvexProgram, FunctionConstraint,
                     solve_convex)
from uavmec.lp import Status


def disk_constraint(radius=1.0):
    return FunctionConstraint(
        lambda x: x[0] ** 2 + x[1] ** 2 - radius ** 2,
        lambda x: np.array([2 * x[0], 2 * x[1]]),
        lambda x: 2 * np.eye(2))


def test_linear_over_disk():
    # min x + y over the unit disk -> (-1/sqrt2, -1/sqrt2), objective -sqrt2
    prog = ConvexProgram(n=2, c=[1.0, 1.0], blocks=[disk_constraint()])
    res = solve_convex(prog, np.zeros(2), tol=1e-9)
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(-np.sqrt(2.0), abs=1e-6)
    assert res.x == pytest.approx(np.full(2, -np.sqrt(0.5)), abs=1e-5)


def test_box_only():
    prog = ConvexProgram(n=1, c=[1.0], lo=[-2.0], hi=[3.0])
    res = solve_convex(prog, np.array([0.5]), tol=1e-9)
    assert res.status is Status.OPTIMAL
    assert res.x[0] == pytest.approx(-2.0, abs=1e-7)


def test_phase1_recovers_from_infeasible_start():
    prog = ConvexProgram(n=2, c=[1.0, 0.0], blocks=[disk_constraint()],
                         lo=[-2.0, -2.0], hi=[2.0, 2.0])
    res = solve_convex(prog, np.array([5.0, 5.0]), tol=1e-9)
    assert res.status is Status.OPTIMAL
    assert res.x[0] == pytest.approx(-1.0, abs=1e-5)


def test_infeasible_program_detected():
    # x^2 + 1 <= 0 has no solution
    blk = FunctionConstraint(lambda x: x[0] ** 2 + 1.0,
                             lambda x: np.array([2 * x[0]]),
                             lambda x: 2 * np.eye(1))
    prog = ConvexProgram(n=1, c=[1.0], blocks=[blk], lo=[-5.0], hi=[5.0])
    res = solve_convex(prog, np.array([0.0]), tol=1e-8)
    assert res.status is Status.INFEASIBLE


def test_duality_gap_bound_reported():
    prog = ConvexProgram(n=2, c=[1.0, 1.0], blocks=[disk_constraint()])
    res = solve_convex(prog, np.zeros(2), tol=1e-9)
    assert res.kkt_residual <= 1e-9


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        ConvexProgram(n=2, c=[1.0])


class _EpigraphQuad(ConstraintBlock):
    """0.5 x^T P x + q^T x - t <= 0 over variables (x, t)."""

    def __init__(self, p_mat, q_vec):
        self.p = p_mat
        self.q = q_vec
        self.nx = q_vec.size

    def value(self, z):
        x = z[:self.nx]
        return np.atleast_1d(0.5 * x @ self.p @ x + self.q @ x - z[-1])

    def jacobian(self, z):
        x = z[:self.nx]
        jac = np.zeros((1, self.nx + 1))
        jac[0, :self.nx] = self.p @ x + self.q
        jac[0, -1] = -1.0
        return jac

    def hessian(self, z, w):
        h = np.zeros((self.nx + 1, self.nx + 1))
        h[:self.nx, :self.nx] = w[0] * self.p
        return h


def _projected_gradient(p_mat, q_vec, lo, hi, iters=20000):
    """Reference minimizer of 0.5 x^T P x + q^T x over a box."""
    n = q_vec.size
    x = np.clip(np.zeros(n), lo, hi)
    lam = np.linalg.eigvalsh(p_mat).max()
    step = 1.0 / lam
    for _ in range(iters):
        x = np.clip(x - step * (p_mat @ x + q_vec), lo, hi)
    return x


@pytest.mark.parametrize("seed", range(12))
def test_random_box_qp_matches_projected_gradient(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 6)
    a = rng.normal(size=(n, n))
    p_mat = a @ a.T + 0.5 * np.eye(n)
    q_vec = rng.normal(size=n)
    lo = np.full(n, -2.0)
    hi = np.full(n, 2.0)

    x_ref = _projected_gradient(p_mat, q_vec, lo, hi)
    f_ref = 0.5 * x_ref @ p_mat @ x_ref + q_vec @ x_ref

    prog = ConvexProgram(
        n=n + 1, c=np.eye(n + 1)[-1], blocks=[_EpigraphQuad(p_mat, q_vec)],
        lo=np.concatenate([lo, [-1e6]]), hi=np.concatenate([hi, [1e6]]))
    x0 = np.zeros(n + 1)
    x0[-1] = 1.0  # strictly above the quadratic at the origin
    res = solve_convex(prog, x0, tol=1e-9)
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(f_ref, abs=1e-6)
