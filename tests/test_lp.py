"""Simplex solver: hand-checkable programs, status reporting, duality,
and agreement with an independent LP solver on random instances."""

import numpy as np
import pytest
from scipy.optimize import linprog

from uavmec.lp import LinearProgram, Status, solve_lp


def test_basic_inequality():
    # min -x - y  s.t.  x + y <= 1, x, y >= 0  ->  objective -1
    res = solve_lp(LinearProgram(c=[-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0]))
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(-1.0, abs=1e-9)
    assert res.x[0] + res.x[1] == pytest.approx(1.0, abs=1e-9)


def test_equality_constraint():
    # min x  s.t.  x + y = 1, y <= 0.3  ->  x = 0.7
    res = solve_lp(LinearProgram(c=[1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[0.3],
                                 a_eq=[[1.0, 1.0]], b_eq=[1.0]))
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(0.7, abs=1e-9)


def test_infeasible_detected():
    # x <= -1 contradicts x >= 0
    res = solve_lp(LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0]))
    assert res.status is Status.INFEASIBLE


def test_unbounded_detected():
    res = solve_lp(LinearProgram(c=[-1.0]))
    assert res.status is Status.UNBOUNDED


def test_minmax_split_program():
    # min mu  s.t.  a1 + a2 = 1, 2 a1 <= mu, a2 <= mu: balance at
    # a = (1/3, 2/3), mu = 2/3
    res = solve_lp(LinearProgram(
        c=[0.0, 0.0, 1.0],
        a_ub=[[2.0, 0.0, -1.0], [0.0, 1.0, -1.0]], b_ub=[0.0, 0.0],
        a_eq=[[1.0, 1.0, 0.0]], b_eq=[1.0]))
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert res.x[0] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert res.x[1] == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_degenerate_program_terminates():
    # classic cycling example for Dantzig pivoting; optimum is -1/20
    res = solve_lp(LinearProgram(
        c=[-0.75, 150.0, -0.02, 6.0],
        a_ub=[[0.25, -60.0, -1.0 / 25.0, 9.0],
              [0.5, -90.0, -1.0 / 50.0, 3.0],
              [0.0, 0.0, 1.0, 0.0]],
        b_ub=[0.0, 0.0, 1.0]))
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(-0.05, abs=1e-9)


def test_dual_certificate_reported():
    res = solve_lp(LinearProgram(c=[-1.0, -2.0],
                                 a_ub=[[1.0, 1.0], [1.0, 3.0]],
                                 b_ub=[4.0, 6.0]))
    assert res.status is Status.OPTIMAL
    assert np.isfinite(res.dual_objective)
    assert abs(res.objective - res.dual_objective) <= 1e-7 * max(
        1.0, abs(res.objective))
    assert res.kkt_residual <= 1e-7


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])


@pytest.mark.parametrize("seed", range(20))
def test_matches_reference_solver_on_random_lps(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 7)
    m = rng.integers(1, 6)
    c = rng.normal(size=n)
    a_ub = rng.normal(size=(m, n))
    # keep a point (the all-ones vector) feasible so most draws are solvable
    b_ub = a_ub @ np.ones(n) + rng.uniform(0.1, 2.0, size=m)
    hi = rng.uniform(2.0, 6.0, size=n)
    # x <= hi as identity rows of a_ub
    res = solve_lp(LinearProgram(c=c, a_ub=np.vstack([a_ub, np.eye(n)]),
                                 b_ub=np.concatenate([b_ub, hi])))
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=list(zip(np.zeros(n), hi)),
                  method="highs")
    assert ref.status == 0
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(ref.fun, abs=1e-7)
    # the returned point must itself be feasible
    assert np.all(a_ub @ res.x <= b_ub + 1e-8)
    assert np.all(res.x >= -1e-9) and np.all(res.x <= hi + 1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_matches_reference_solver_with_equalities(seed):
    rng = np.random.default_rng(100 + seed)
    n = rng.integers(3, 7)
    c = rng.normal(size=n)
    a_eq = rng.normal(size=(1, n))
    x_feas = rng.uniform(0.5, 1.5, size=n)
    b_eq = a_eq @ x_feas
    res = solve_lp(LinearProgram(c=c, a_ub=np.eye(n), b_ub=np.full(n, 5.0),
                                 a_eq=a_eq, b_eq=b_eq))
    ref = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=[(0, 5.0)] * n,
                  method="highs")
    assert ref.status == 0
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(ref.fun, abs=1e-7)


# min mu  s.t.  2 a1 <= mu, a2 <= mu, a1 + a2 = 1 (test_minmax_split_program);
# columns: a1, a2, mu, then the slacks of the two <= rows
MINMAX = dict(c=[0.0, 0.0, 1.0], a_ub=[[2.0, 0.0, -1.0], [0.0, 1.0, -1.0]],
              b_ub=[0.0, 0.0], a_eq=[[1.0, 1.0, 0.0]], b_eq=[1.0])
# max x + 2y  s.t.  x + y <= 4, x + 3y <= 6 (test_dual_certificate_reported)
CERT = dict(c=[-1.0, -2.0], a_ub=[[1.0, 1.0], [1.0, 3.0]], b_ub=[4.0, 6.0])


class TestStartingBasis:
    def test_optimal_basis_needs_no_pivot(self):
        cold = solve_lp(LinearProgram(**MINMAX))
        warm = solve_lp(LinearProgram(**MINMAX), basis=[0, 1, 2])
        assert warm.status is Status.OPTIMAL
        assert warm.iterations == 0 < cold.iterations
        assert warm.objective == pytest.approx(cold.objective, abs=1e-15)
        assert warm.x == pytest.approx(cold.x, abs=1e-15)
        assert warm.kkt_residual <= 1e-12

    def test_feasible_basis_pivots_to_the_optimum(self):
        # basis (x, slack 2) is the vertex (4, 0) with objective -4; the
        # optimum is (3, 1) with objective -5
        cold = solve_lp(LinearProgram(**CERT))
        warm = solve_lp(LinearProgram(**CERT), basis=[0, 3])
        assert warm.status is Status.OPTIMAL
        assert warm.iterations == 1
        assert warm.objective == pytest.approx(-5.0, abs=1e-12)
        assert warm.x == pytest.approx(cold.x, abs=1e-12)

    @pytest.mark.parametrize("program, basis", [
        (MINMAX, [0, 1]),              # wrong size
        (MINMAX, [0, 1, 2, 3]),
        (MINMAX, [2, 3, 4]),           # mu = -(slack 1 + slack 2): singular
        (MINMAX, [0, 0, 2]),           # a repeated column
        # max x + y over x + y <= 2, x + (1 + 1e-14) y <= 2 + 1e-14: the
        # vertex (1, 1) is optimal, but its basis has condition number 4e14
        (dict(c=[-1.0, -1.0], a_ub=[[1.0, 1.0], [1.0, 1.0 + 1e-14]],
              b_ub=[2.0, 2.0 + 1e-14]), [0, 1]),
        (MINMAX, [0, 1, 99]),          # out of range
        (MINMAX, [3, 4, 0]),           # a1 = 1 leaves both slacks < 0
        (CERT, [1, 3]),                # y = 4 breaks x + 3y <= 6
        (dict(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0]), [0]),   # infeasible LP
        (dict(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0]), [1]),
        (dict(c=[-1.0]), []),          # unbounded, no rows
    ])
    def test_unusable_basis_gives_the_cold_result(self, program, basis):
        cold = solve_lp(LinearProgram(**program))
        warm = solve_lp(LinearProgram(**program), basis=basis)
        assert warm.status is cold.status
        assert warm.iterations == cold.iterations
        assert (warm.objective == cold.objective
                or np.isnan(warm.objective) and np.isnan(cold.objective))
        if cold.x is None:
            assert warm.x is None
        else:
            assert np.array_equal(warm.x, cold.x)
