"""Simplex solver: hand-checkable programs from a starting basis, status
reporting, duality, the factorization of a starting basis, the in-place
view of the equality form, the pivot rule that the revised simplex and
the tableau share, and agreement of the two-phase reference with an
independent LP solver on random instances."""

from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from scipy.optimize import linprog

from association_reference import equality_form, two_phase
from uavmec.association import relaxed_lp
from uavmec.lp import (EqualityView, LinearProgram, Simplex, Status, Tableau,
                       basis_start, solve_lp)


def test_basic_inequality():
    # min -x - y  s.t.  x + y <= 1, x, y >= 0  ->  objective -1
    res = solve_lp(LinearProgram(c=[-1.0, -1.0], a_ub=[[1.0, 1.0]],
                                 b_ub=[1.0]), bases=([2],))
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(-1.0, abs=1e-9)
    assert res.x[0] + res.x[1] == pytest.approx(1.0, abs=1e-9)


def test_equality_constraint():
    # min x  s.t.  x + y = 1, y <= 0.3  ->  x = 0.7, from (x, slack) =
    # (1, 0.3)
    res = solve_lp(LinearProgram(c=[1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[0.3],
                                 a_eq=[[1.0, 1.0]], b_eq=[1.0]),
                   bases=([2, 0],))
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(0.7, abs=1e-9)


def test_infeasible_detected():
    # x <= -1 contradicts x >= 0: phase 1 of the reference finds no
    # feasible point, and no basis of solve_lp is feasible
    prog = LinearProgram(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0])
    assert two_phase(prog).status is Status.INFEASIBLE
    res = solve_lp(prog, bases=([0], [1]))
    assert res.status is Status.NUMERICAL_FAILURE and res.x is None


def test_unbounded_detected():
    # min -x  s.t.  -x <= 1: x enters at the slack basis, and no row
    # limits it
    prog = LinearProgram(c=[-1.0], a_ub=[[-1.0]], b_ub=[1.0])
    assert solve_lp(prog, bases=([1],)).status is Status.UNBOUNDED
    assert two_phase(LinearProgram(c=[-1.0])).status is Status.UNBOUNDED


def test_minmax_split_program():
    # min mu  s.t.  a1 + a2 = 1, 2 a1 <= mu, a2 <= mu: balance at
    # a = (1/3, 2/3), mu = 2/3; from a1 = 1, mu = 2 and the second slack
    res = solve_lp(LinearProgram(
        c=[0.0, 0.0, 1.0],
        a_ub=[[2.0, 0.0, -1.0], [0.0, 1.0, -1.0]], b_ub=[0.0, 0.0],
        a_eq=[[1.0, 1.0, 0.0]], b_eq=[1.0]), bases=([2, 4, 0],))
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
        b_ub=[0.0, 0.0, 1.0]), bases=([4, 5, 6],))
    assert res.status is Status.OPTIMAL
    assert res.objective == pytest.approx(-0.05, abs=1e-9)


def test_dual_certificate_reported():
    res = solve_lp(LinearProgram(c=[-1.0, -2.0],
                                 a_ub=[[1.0, 1.0], [1.0, 3.0]],
                                 b_ub=[4.0, 6.0]), bases=([2, 3],))
    # kkt_residual is the primal-dual gap of the final basis
    assert res.status is Status.OPTIMAL
    assert 0 <= res.kkt_residual <= 1e-7


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0])
    with pytest.raises(ValueError):
        LinearProgram(c=[1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])


def bounded_draw(seed):
    """(c, a_ub, b_ub, hi) of a random LP  min c.x  s.t.  a_ub x <= b_ub,
    0 <= x <= hi, and the LinearProgram that states x <= hi as identity
    rows of a_ub."""
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 7)
    m = rng.integers(1, 6)
    c = rng.normal(size=n)
    a_ub = rng.normal(size=(m, n))
    # keep a point (the all-ones vector) feasible so most draws are solvable
    b_ub = a_ub @ np.ones(n) + rng.uniform(0.1, 2.0, size=m)
    hi = rng.uniform(2.0, 6.0, size=n)
    return (c, a_ub, b_ub, hi), LinearProgram(
        c=c, a_ub=np.vstack([a_ub, np.eye(n)]),
        b_ub=np.concatenate([b_ub, hi]))


def equality_draw(seed):
    """(c, a_eq, b_eq) of a random LP  min c.x  s.t.  a_eq x = b_eq,
    0 <= x <= 5, and the LinearProgram that states x <= 5 as a_ub rows."""
    rng = np.random.default_rng(100 + seed)
    n = rng.integers(3, 7)
    c = rng.normal(size=n)
    a_eq = rng.normal(size=(1, n))
    x_feas = rng.uniform(0.5, 1.5, size=n)
    b_eq = a_eq @ x_feas
    return (c, a_eq, b_eq), LinearProgram(
        c=c, a_ub=np.eye(n), b_ub=np.full(n, 5.0), a_eq=a_eq, b_eq=b_eq)


@pytest.mark.parametrize("seed", range(20))
def test_matches_reference_solver_on_random_lps(seed):
    (c, a_ub, b_ub, hi), prog = bounded_draw(seed)
    res = two_phase(prog)
    ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=list(zip(np.zeros(c.size),
                                                           hi)),
                  method="highs")
    assert ref.status == 0
    assert res.status is Status.OPTIMAL
    # primal and dual objective both within 1e-7 of HiGHS's optimum
    assert abs(res.objective - ref.fun) + res.kkt_residual * max(
        1.0, abs(res.objective)) <= 1e-7
    # the returned point must itself be feasible
    assert np.all(a_ub @ res.x <= b_ub + 1e-8)
    assert np.all(res.x >= -1e-9) and np.all(res.x <= hi + 1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_matches_reference_solver_with_equalities(seed):
    (c, a_eq, b_eq), prog = equality_draw(seed)
    res = two_phase(prog)
    ref = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=[(0, 5.0)] * c.size,
                  method="highs")
    assert ref.status == 0
    assert res.status is Status.OPTIMAL
    # primal and dual objective both within 1e-7 of HiGHS's optimum
    assert abs(res.objective - ref.fun) + res.kkt_residual * max(
        1.0, abs(res.objective)) <= 1e-7


# min mu  s.t.  2 a1 <= mu, a2 <= mu, a1 + a2 = 1 (test_minmax_split_program);
# columns: a1, a2, mu, then the slacks of the two <= rows
MINMAX = dict(c=[0.0, 0.0, 1.0], a_ub=[[2.0, 0.0, -1.0], [0.0, 1.0, -1.0]],
              b_ub=[0.0, 0.0], a_eq=[[1.0, 1.0, 0.0]], b_eq=[1.0])
# max x + 2y  s.t.  x + y <= 4, x + 3y <= 6 (test_dual_certificate_reported)
CERT = dict(c=[-1.0, -2.0], a_ub=[[1.0, 1.0], [1.0, 3.0]], b_ub=[4.0, 6.0])


def feasible_basis(prog):
    """The first basis in lexicographic order that ``basis_start``
    accepts, or None."""
    a, b = equality_form(prog)
    return next((list(basis) for basis in combinations(range(a.shape[1]),
                                                       a.shape[0])
                 if basis_start(a, b, basis) is not None), None)


class TestStartingBasis:
    def test_optimal_basis_needs_no_pivot(self):
        cold = two_phase(LinearProgram(**MINMAX))
        warm = solve_lp(LinearProgram(**MINMAX), bases=([0, 1, 2],))
        assert warm.status is Status.OPTIMAL
        assert warm.iterations == 0 < cold.iterations
        assert warm.objective == pytest.approx(cold.objective, abs=1e-15)
        assert warm.x == pytest.approx(cold.x, abs=1e-15)
        assert warm.kkt_residual <= 1e-12

    def test_feasible_basis_pivots_to_the_optimum(self):
        # basis (x, slack 2) is the vertex (4, 0) with objective -4; the
        # optimum is (3, 1) with objective -5
        cold = two_phase(LinearProgram(**CERT))
        warm = solve_lp(LinearProgram(**CERT), bases=([0, 3],))
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
        # solve_lp skips the unusable basis and runs phase 2 from the next
        # one, reaching the optimum of the cold two-phase reference; with
        # no feasible basis left it fails, and the reference finds no
        # optimum either
        prog = LinearProgram(**program)
        cold = two_phase(prog)
        alone = solve_lp(prog, bases=(basis,))
        assert alone.status is Status.NUMERICAL_FAILURE
        assert alone.iterations == 0 and alone.x is None
        start = feasible_basis(prog)
        if start is None:
            assert cold.status in (Status.INFEASIBLE, Status.UNBOUNDED)
            return
        warm = solve_lp(prog, bases=(basis, start))
        ref = solve_lp(prog, bases=(start,))
        assert warm.status is ref.status is cold.status is Status.OPTIMAL
        assert warm.iterations == ref.iterations
        assert np.array_equal(warm.x, ref.x)
        assert warm.objective == ref.objective == pytest.approx(
            cold.objective, abs=1e-12)


def singleton_matrix(m, singles, seed):
    """A random m x m matrix, condition number about 10, of which
    ``singles`` rows have one nonzero each, rows and columns shuffled."""
    rng = np.random.default_rng(seed)
    bmat = rng.normal(size=(m, m)) + m * np.eye(m)
    bmat[:singles] = 0.0
    bmat[np.arange(singles), np.arange(singles)] = rng.choice(
        [-1.0, 1.0], singles) * rng.uniform(0.5, 2.0, singles)
    return bmat[rng.permutation(m)][:, rng.permutation(m)]


class TestBasisFactor:
    """basis_start forms B^-1 by eliminating row singletons first when
    they are more than half of the rows, and inverts B whole otherwise."""

    @pytest.mark.parametrize("singles", [0, 4, 10, 11, 16, 19, 20])
    def test_matches_dense_inverse(self, singles):
        m = 20
        bmat = singleton_matrix(m, singles, seed=singles)
        inv = np.linalg.inv
        sizes = []

        def spy(x):
            sizes.append(len(x))
            return inv(x)

        with mock.patch.object(np.linalg, "inv", spy):
            sim = basis_start(bmat, bmat @ np.ones(m), np.arange(m))
        eye = np.eye(m)
        assert np.linalg.norm(sim.binv @ bmat - eye, np.inf) <= 1e-12
        assert np.linalg.norm(sim.binv - inv(bmat), np.inf) <= 1e-12
        # only the rows and columns left after the elimination are
        # factored densely
        assert sizes == [m - singles if 2 * singles > m else m]

    @pytest.mark.parametrize("bmat", [
        # rows 0 and 1 are singletons on one column
        [[2.0, 0.0, 0.0], [3.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
        # column 2 is zero
        [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [1.0, 1.0, 0.0]],
        # the rest after eliminating rows 0-2 is [[1, 2], [2, 4]]
        [[1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0],
         [0.0, 0.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0, 2.0],
         [0.0, 1.0, 0.0, 2.0, 4.0]],
        # a singleton of 1e-13: condition number 3e13
        [[1e-13, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]],
    ], ids=["shared-column", "zero-column", "singular-rest",
            "ill-conditioned"])
    def test_singular_basis_rejected(self, bmat):
        bmat = np.array(bmat)
        m = len(bmat)
        assert 2 * np.sum(np.count_nonzero(bmat, axis=1) == 1) > m
        assert basis_start(bmat, bmat @ np.ones(m), np.arange(m)) is None


# the LPs above, a relaxed association LP, and LPs without <= or = rows
VIEW_PROGRAMS = {
    "minmax": LinearProgram(**MINMAX),
    "cert": LinearProgram(**CERT),
    **{f"bounded-{seed}": bounded_draw(seed)[1] for seed in range(3)},
    **{f"equality-{seed}": equality_draw(seed)[1] for seed in range(3)},
    "relaxed": relaxed_lp(np.random.default_rng(0).uniform(0.5, 2.0,
                                                           (30, 4))),
    "no-ub-rows": LinearProgram(c=[1.0, 2.0, 3.0],
                                a_eq=[[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]],
                                b_eq=[1.0, 1.0]),
    "no-eq-rows": LinearProgram(c=[1.0, -1.0], a_ub=[[1.0, 2.0]],
                                b_ub=[3.0]),
}


@pytest.mark.parametrize("prog", VIEW_PROGRAMS.values(),
                         ids=VIEW_PROGRAMS.keys())
class TestEqualityView:
    """EqualityView reads the LP's blocks as the dense equality form
    reads: its columns to the bit, and y @ A to the rounding of a dot
    product. The product sums y_ub a_ub and y_eq a_eq apart, and the BLAS
    behind ``@`` rounds one dot product differently at different matrix
    widths (on CERT, y @ a and y @ a[:, :2] differ by 1.1e-16), so only
    the slack part, y_ub itself, is exact."""

    def test_reads_like_the_dense_form(self, prog):
        a, _ = equality_form(prog)
        view = EqualityView(prog.a_ub, prog.a_eq)
        assert view.shape == a.shape
        for j in range(a.shape[1]):
            assert np.array_equal(view[:, j], a[:, j])
        n, m_ub = prog.c.size, prog.b_ub.size
        # each of the two products is within m eps |y| |a| of the exact one
        tol = 2 * a.shape[0] * np.finfo(float).eps
        rng = np.random.default_rng(0)
        for _ in range(5):
            cols = rng.integers(0, a.shape[1], size=a.shape[0])
            assert np.array_equal(view[:, cols], a[:, cols])
            y = rng.normal(size=a.shape[0])
            priced = y @ view
            assert np.array_equal(priced[n:], y[:m_ub])
            assert np.all(np.abs(priced - y @ a)
                          <= tol * (np.abs(y) @ np.abs(a)))

    def test_basis_start_agrees(self, prog):
        a, b = equality_form(prog)
        view = EqualityView(prog.a_ub, prog.a_eq)
        m, n = a.shape
        rng = np.random.default_rng(1)
        bases = [rng.permutation(n)[:m] for _ in range(10)] + [
            np.r_[np.arange(m - 1), n],          # out of range
            np.r_[np.arange(m - 1), -1],
            np.arange(m - 1),                    # wrong size
        ]
        for basis in bases:
            dense = basis_start(a, b, basis)
            lazy = basis_start(view, b, basis)
            assert (dense is None) == (lazy is None)
            if dense is not None:
                assert np.array_equal(lazy.binv, dense.binv)
                assert np.array_equal(lazy.xb, dense.xb)
                assert np.array_equal(lazy.basis, dense.basis)


# Beale's cycling LP of test_degenerate_program_terminates in equality
# form: Dantzig's rule cycles on it until the switch to Bland's rule
BEALE = (np.array([[0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
                   [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
                   [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]]),
         np.array([0.0, 0.0, 1.0]),
         np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0]))


def random_dense_lp(seed):
    """(a, b, c) of  min c.y  s.t.  a y = b, y >= 0  with a unit basis of
    cost 1 in the first m columns of a, feasible there; a >= 0 bounds
    the optimum."""
    rng = np.random.default_rng(seed)
    m, n = 8, 60
    a = np.hstack([np.eye(m), rng.uniform(0.0, 1.0, size=(m, n))])
    b = rng.uniform(1.0, 2.0, size=m)
    c = np.r_[np.ones(m), rng.uniform(-1.0, 1.0, size=n)]
    return a, b, c


def pivot_log(cls, log):
    """Patch ``cls.pivot`` to append each basis after a pivot to ``log``."""
    pivot = cls.pivot

    def spy(self, *args):
        pivot(self, *args)
        log.append(self.basis.tolist())

    return mock.patch.object(cls, "pivot", spy)


@pytest.mark.parametrize("lp, split", [
    (random_dense_lp(0), None), (random_dense_lp(1), None), (BEALE, None),
    (random_dense_lp(0), 40), (random_dense_lp(1), 40),
], ids=["random-0", "random-1", "beale", "random-0-appended",
        "random-1-appended"])
def test_tableau_pivots_like_the_revised_simplex(lp, split):
    # both loops choose by PivotRule: from the same basis they take the
    # same pivots, Dantzig's until Beale's LP cycles and Bland's after,
    # and end at the same basis, x_B and duals; a tableau started on
    # part of the columns, the rest (of cost zero) appended, runs alike,
    # and some appended columns enter
    a, b, c = lp
    m = len(b)
    basis = list(range(a.shape[1] - m, a.shape[1])) if lp is BEALE \
        else list(range(m))
    if split is not None:
        c = np.where(np.arange(c.size) < split, c, 0.0)
    revised, dense = [], []
    with pivot_log(Simplex, revised), pivot_log(Tableau, dense):
        sim = basis_start(a, b, basis)
        assert sim.run(c, 10_000) is Status.OPTIMAL
        if split is None:
            tab = Tableau(a, b, c, basis)
        else:
            tab = Tableau(a[:, :split], b, c[:split], basis)
            tab.add_columns(a[:, split:])
        assert tab.run(10_000) is Status.OPTIMAL
    assert tab.iterations == sim.iterations == len(revised) > m
    assert dense == revised
    if split is not None:
        assert max(max(basis) for basis in revised) >= split
    assert tab.rule.use_bland is sim.rule.use_bland is (lp is BEALE)
    assert np.array_equal(tab.basis, sim.basis)
    assert tab.duals == pytest.approx(sim.duals(c), abs=1e-12)
    assert tab.t[:-1, 0] == pytest.approx(sim.xb, abs=1e-12)
    assert tab.value == pytest.approx(c[sim.basis] @ sim.xb, abs=1e-12)
