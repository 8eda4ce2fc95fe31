"""Association step: service-time matrix, relaxed LP, and rounding."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linprog

from association_reference import cold_relaxed, equality_form, round_rows
from uavmec import association, channel, oracle
from uavmec.lp import Status, Tableau, basis_start, solve_lp
from uavmec.optimizer import Deployment, kmeans
from uavmec.scenario import FleetConfig, Scenario, Ue, generate
from uavmec.channel import ChannelParams


def one_ue_scenario(x, y):
    ue = Ue(x=x, y=y, data_bits=1e6, cycles=3e8)
    return Scenario(ues=(ue,), fleet=FleetConfig(num_uavs=1),
                    channel=ChannelParams(), seed=0)


class TestServiceTimeMatrix:
    def test_single_overhead_link(self):
        # UAV directly above the UE at 40 m: upload 1e6 bits at the known
        # overhead rate plus 3e8 cycles at 2 GHz
        sc = one_ue_scenario(50.0, 50.0)
        dep = Deployment(q=np.array([[50.0, 50.0]]), h=np.array([40.0]))
        t = association.service_time_matrix(sc, dep)
        expected = 1e6 / 33675662.955950975 + 3e8 / 2e9
        assert t.shape == (1, 1)
        assert t[0, 0] == pytest.approx(expected, rel=1e-9)

    def test_los_model_uses_los_rate(self):
        sc = one_ue_scenario(50.0, 50.0)
        dep = Deployment(q=np.array([[20.0, 50.0]]), h=np.array([55.0]))
        t = association.service_time_matrix(sc, dep, model="los")
        r = float(channel.los_rate(900.0, 55.0, 0.1, sc.channel))
        assert t[0, 0] == pytest.approx(1e6 / r + 0.15, rel=1e-12)

    def test_unknown_model_rejected(self):
        sc = one_ue_scenario(50.0, 50.0)
        dep = Deployment(q=np.array([[50.0, 50.0]]), h=np.array([40.0]))
        with pytest.raises(ValueError):
            association.service_time_matrix(sc, dep, model="rayleigh")

    def test_shape_and_positivity(self):
        sc = generate(0, 7, FleetConfig(num_uavs=3))
        dep = Deployment(q=np.array([[10.0, 10.0], [50.0, 50.0], [90.0, 90.0]]),
                         h=np.array([40.0, 60.0, 80.0]))
        t = association.service_time_matrix(sc, dep)
        assert t.shape == (7, 3)
        assert np.all(t > 0)


class TestRelaxedLp:
    def test_single_ue_split_balances_load(self):
        # one UE, two UAVs with times (2, 1): the fractional optimum
        # balances 2 a1 = a2, giving a = (1/3, 2/3) and mu = 2/3
        frac, mu = association.solve_relaxed([[2.0, 1.0]])
        assert mu == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert frac[0] == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-8)

    def test_single_uav_serves_everything(self):
        times = np.array([[0.5], [0.25], [1.0]])
        frac, mu = association.solve_relaxed(times)
        assert frac == pytest.approx(np.ones((3, 1)), abs=1e-9)
        assert mu == pytest.approx(1.75, abs=1e-8)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        times = rng.uniform(0.1, 2.0, size=(6, 3))
        frac, _ = association.solve_relaxed(times)
        assert frac.sum(axis=1) == pytest.approx(np.ones(6), abs=1e-8)
        assert np.all(frac >= 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_lower_bounds_integer_optimum(self, seed):
        rng = np.random.default_rng(seed)
        times = rng.uniform(0.1, 2.0, size=(5, 3))
        _, mu_frac = association.solve_relaxed(times)
        mu_int, _ = oracle.enumerate_associations(times)
        assert mu_frac <= mu_int + 1e-8

    def test_invalid_times_rejected(self):
        with pytest.raises(ValueError):
            association.solve_relaxed([[1.0, -1.0]])
        with pytest.raises(ValueError):
            association.solve_relaxed([[1.0, np.nan]])


def log_uniform_times(n, m, seed, lo=1e-3, hi=1e3):
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=(n, m)))


def highs(times):
    """The relaxed LP solved by HiGHS, an LP solver that shares no code
    with the product, with feasibility tolerances tighter than its 1e-7
    defaults, at which it can stop 4e-9 relative above the optimum.

    HiGHS solves it on the times scaled as ``solve_relaxed`` scales them,
    to an LP value in [1, M], where its absolute tolerances act as
    relative ones; ``fun`` is divided back to the units of ``times``.
    """
    scale = times.shape[1] / times.min(axis=1).sum()
    prog = association.relaxed_lp(times * scale)
    ref = linprog(prog.c, A_ub=prog.a_ub, b_ub=prog.b_ub, A_eq=prog.a_eq,
                  b_eq=prog.b_eq, method="highs",
                  options=dict(primal_feasibility_tolerance=1e-10,
                               dual_feasibility_tolerance=1e-10))
    assert ref.status == 0
    ref.fun /= scale
    return ref


def colocated_times(seed, n_ues, m, copies):
    """Service times of a generated scenario at its k-means deployment
    (altitude 60 m), each UE's row repeated ``copies`` times."""
    sc = generate(seed, n_ues, FleetConfig(num_uavs=m))
    dep = Deployment(q=kmeans(sc.positions, m, seed=seed)[0],
                     h=np.full(m, 60.0))
    return np.repeat(association.service_time_matrix(sc, dep), copies, axis=0)


def captured_lps(times):
    """(frac, mu) of ``solve_relaxed(times)`` and the (program, bases,
    result) of each ``solve_lp`` call it made."""
    calls = []

    def spy(prog, bases):
        res = solve_lp(prog, bases=bases)
        calls.append((prog, bases, res))
        return res

    with mock.patch.object(association, "solve_lp", spy):
        return association.solve_relaxed(times), calls


class _Arguments(Exception):
    """Carries the arguments of a ``solve_lp`` call out of the caller."""


def lp_arguments(times):
    """The (program, bases) that ``solve_relaxed(times)`` passes to
    ``solve_lp``, taken before the simplex runs."""
    def stop(prog, bases):
        raise _Arguments(prog, bases)

    with mock.patch.object(association, "solve_lp", stop), \
            pytest.raises(_Arguments) as caught:
        association.solve_relaxed(times)
    return caught.value.args


def assert_lp_optimum(times, frac, mu, ref_mu):
    """Row-stochastic, every load <= mu, and mu equal to the reference
    ref_mu."""
    assert frac.sum(axis=1) == pytest.approx(np.ones(len(times)), abs=1e-9)
    assert np.all(frac >= 0)
    assert np.all((frac * times).sum(axis=0) <= mu * (1 + 1e-9))
    assert mu == pytest.approx(ref_mu, rel=1e-9)


DEGENERATE = pytest.mark.parametrize("times", [
    np.tile([[0.7, 1.3, 0.9]], (6, 1)),                 # co-located UEs
    np.repeat(log_uniform_times(3, 4, 1), 3, axis=0),   # co-located groups
    np.ones((5, 3)),                                    # all times tied
    log_uniform_times(3, 8, 2),                         # M > N
    log_uniform_times(1, 5, 3),                         # N = 1
    log_uniform_times(7, 1, 4),                         # M = 1
    np.array([[2.0]]),
    log_uniform_times(30, 5, 5, lo=1e-4, hi=1e5),       # 9 orders
    np.array([[1e-4, 1e5, 1.0]] * 4 + [[1e5, 1e-4, 1.0]] * 3),
], ids=["colocated", "colocated-groups", "all-tied", "more-uavs",
        "single-ue", "single-uav", "one-by-one", "nine-orders",
        "nine-orders-blocks"])


def assert_dual_optimal(times, prices):
    """Prices in the simplex whose Lagrangian value is HiGHS's LP value."""
    assert np.all(prices >= 0)
    assert prices.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.sum(np.min(times * prices, axis=1)) == pytest.approx(
        highs(times).fun, rel=1e-9)


class TestPricedStart:
    """solve_relaxed starts the simplex from the basis its dual prices
    give; the result must be the LP optimum (HiGHS's value) with the cold
    simplex's rounding."""

    @given(st.integers(1, 60), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_cold_simplex(self, n, m, seed):
        times = log_uniform_times(n, m, seed)
        (frac, mu), calls = captured_lps(times)
        # HiGHS is the objective reference: the two-phase simplex can stop
        # 4.7e-8 above the optimum (test_degenerate_inputs)
        assert_lp_optimum(times, frac, mu, highs(times).fun)
        ref_frac, _ = cold_relaxed(times)
        # random draws are generic: the optimal vertex is unique, so the
        # rounding agrees, and the priced basis is already optimal
        assert np.array_equal(association.round_association(frac),
                              association.round_association(ref_frac))
        assert [res.iterations for _, _, res in calls] == [0]

    @given(st.integers(1, 60), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_prices_are_dual_optimal(self, n, m, seed):
        times = log_uniform_times(n, m, seed)
        assert_dual_optimal(times, association.dual_prices(times))

    @DEGENERATE
    def test_prices_are_dual_optimal_on_degenerate_inputs(self, times):
        assert_dual_optimal(times, association.dual_prices(times))

    def test_mispriced_column_is_priced_again_at_the_master_prices(self):
        # a round prices at the smoothed point and, where no column of that
        # point has a negative reduced cost at the master's prices, once
        # more at them: two pricings, the second at the prices of the
        # master's load rows, then the columns of the second
        events = []
        group_loads = association._group_loads
        add_columns = Tableau.add_columns

        def spy_loads(times, prices, group, size):
            events.append(("price", prices.copy()))
            return group_loads(times, prices, group, size)

        def spy_columns(self, cols):
            events.append(("columns", -self.duals[:times.shape[1]]))
            add_columns(self, cols)

        times = log_uniform_times(5, 3, 0)
        with mock.patch.object(association, "_group_loads", spy_loads), \
                mock.patch.object(Tableau, "add_columns", spy_columns):
            prices = association.dual_prices(times)
        names = [name for name, _ in events]
        # the first pricing is the uniform prices' starting columns
        twice = [k for k in range(1, len(events) - 2)
                 if names[k:k + 3] == ["price", "price", "columns"]]
        assert twice
        for k in twice:
            smoothed, rmp, master = (point for _, point in events[k:k + 3])
            assert np.array_equal(rmp, master)
            assert not np.array_equal(smoothed, rmp)
        assert_dual_optimal(times, prices)

    @given(st.integers(1, 60), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_highs(self, n, m, seed):
        times = log_uniform_times(n, m, seed)
        ref = highs(times)
        assert association.solve_relaxed(times)[1] == pytest.approx(
            ref.fun, rel=1e-9)
        # with M <= N a random draw has one optimal dual point; the load
        # rows' marginals are -lambda
        if m <= n:
            assert association.dual_prices(times) == pytest.approx(
                -ref.ineqlin.marginals, abs=1e-7)

    @DEGENERATE
    def test_degenerate_inputs(self, times):
        # against HiGHS: on nine-orders-blocks the cold simplex stops 4.7e-8
        # relative above the optimum, (4e-4 + 3e-13) / (1 + 1e-4 + 1e-9),
        # which both the product and HiGHS reach to the last bit
        frac, mu = association.solve_relaxed(times)
        assert_lp_optimum(times, frac, mu, highs(times).fun)

    def test_small_times_match_highs(self):
        # on the unscaled times, HiGHS's absolute tolerances let it end
        # 1.05e-9 relative below the optimum of this draw
        times = log_uniform_times(7, 7, 3568891102, lo=7.622082408915648e-05,
                                  hi=28453.8888832141)
        assert_dual_optimal(times, association.dual_prices(times))
        frac, mu = association.solve_relaxed(times)
        assert_lp_optimum(times, frac, mu, highs(times).fun)

    def test_certificate_factors_at_most_2m_rows(self):
        # a generic draw's optimal basis splits at most M - 1 UEs, so all
        # but at most 2M - 1 of its N + M rows are singletons: no dense
        # factorization exceeds 2M rows, and with no pivot taken the gap
        # check's dual point reuses basis_start's B^-1 rather than an LU
        # solve of the final basis
        times = log_uniform_times(400, 10, 5)
        factored = []
        inv, solve = np.linalg.inv, np.linalg.solve

        def spy_inv(x):
            factored.append(("inv", len(x)))
            return inv(x)

        def spy_solve(x, y):
            factored.append(("solve", len(x)))
            return solve(x, y)

        with mock.patch.object(np.linalg, "inv", spy_inv), \
                mock.patch.object(np.linalg, "solve", spy_solve):
            (frac, mu), calls = captured_lps(times)
        assert [res.iterations for _, _, res in calls] == [0]
        assert factored and all(name == "inv" and rows <= 20
                                for name, rows in factored)
        assert_lp_optimum(times, frac, mu, highs(times).fun)

    def test_peak_memory_stays_near_the_constraint_matrix(self):
        # the simplex reads relaxed_lp's blocks in place: beside its
        # N x NM a_eq (80 MB at 1000 x 10) a solve holds only O(N^2)
        # arrays (basis gathers, B^-1), where a dense copy of the
        # equality form took the peak to 2.3 a_eq
        times = log_uniform_times(1000, 10, 0)
        association.solve_relaxed(times)
        tracemalloc.start()
        try:
            association.solve_relaxed(times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * association.relaxed_lp(times).a_eq.nbytes

    @pytest.mark.parametrize("seed", [2, 3])
    def test_colocated_small_times_match_highs(self, seed):
        # at service times of microseconds, absolute simplex tolerances on
        # the unscaled LP stopped 2.4e-6 (seed 2) and 3.7e-5 (seed 3)
        # relative above the optimum
        times = colocated_times(seed, 10, 5, 5) * 1e-6
        assert association.solve_relaxed(times)[1] == pytest.approx(
            highs(times).fun, rel=1e-12)

    def test_colocated_starts_from_the_fastest_vertex(self):
        # co-located UEs leave the priced basis singular: solve_lp skips it
        # and runs phase 2 from the fastest-UAV vertex
        times = colocated_times(3, 10, 5, 5)
        (frac, mu), calls = captured_lps(times)
        [(prog, bases, res)] = calls
        a, b = equality_form(prog)
        assert basis_start(a, b, bases[0]) is None
        assert basis_start(a, b, bases[1]) is not None
        assert res.status is Status.OPTIMAL and res.iterations > 0
        assert_lp_optimum(times, frac, mu, highs(times).fun)

    @given(st.integers(1, 40), st.integers(1, 10), st.integers(1, 8),
           st.floats(0.0, 18.0), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_fastest_vertex_is_always_accepted(self, n, m, copies, orders,
                                               seed):
        # log-uniform times over up to 18 orders of magnitude, in blocks
        # of co-located UEs; the vertex's infinity-norm condition number
        # stays within (M + 2)(2M + 2), far below basis_start's 1e12
        rng = np.random.default_rng(seed)
        times = np.repeat(10.0 ** rng.uniform(-orders / 2, orders / 2,
                                              size=(n, m)), copies, axis=0)
        prog, (_, vertex) = lp_arguments(times)
        a, b = equality_form(prog)
        sim = basis_start(a, b, vertex)
        assert sim is not None
        cond = (np.abs(a[:, vertex]).sum(axis=1).max()
                * np.abs(sim.binv).sum(axis=1).max())
        assert cond <= (m + 2) * (2 * m + 2) * (1 + 1e-9)

    def test_relaxed_lp_layout(self):
        times = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        prog = association.relaxed_lp(times)
        assert prog.a_ub.tolist() == [[1, 0, 0, 4, 0, 0, -1],
                                      [0, 2, 0, 0, 5, 0, -1],
                                      [0, 0, 3, 0, 0, 6, -1]]
        assert prog.a_eq.tolist() == [[1, 1, 1, 0, 0, 0, 0],
                                      [0, 0, 0, 1, 1, 1, 0]]
        assert prog.c.tolist() == [0, 0, 0, 0, 0, 0, 1]
        assert prog.b_ub.tolist() == [0, 0, 0]
        assert prog.b_eq.tolist() == [1, 1]


class TestRounding:
    def test_majority_entry_wins(self):
        out = association.round_association([[0.4, 0.6]])
        assert out.tolist() == [[0, 1]]

    def test_first_half_entry_wins_on_even_split(self):
        out = association.round_association([[0.5, 0.5]])
        assert out.tolist() == [[1, 0]]

    def test_argmax_fallback_below_half(self):
        out = association.round_association([[0.3, 0.4, 0.3]])
        assert out.tolist() == [[0, 1, 0]]

    def test_argmax_tie_takes_lowest_index(self):
        out = association.round_association([[0.4, 0.4, 0.2]])
        assert out.tolist() == [[1, 0, 0]]

    def test_binary_input_is_fixed_point(self):
        binary = np.array([[1, 0], [0, 1], [1, 0]], dtype=float)
        assert np.array_equal(association.round_association(binary),
                              binary.astype(int))

    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 5)),
                      elements=st.floats(0.0, 1.0)))
    @settings(max_examples=100, deadline=None)
    def test_always_one_hot_rows(self, frac):
        out = association.round_association(frac)
        assert out.shape == frac.shape
        assert np.all(out.sum(axis=1) == 1)
        assert np.all((out == 0) | (out == 1))

    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 8), st.integers(1, 5)),
                      elements=st.one_of(st.floats(0.0, 1.0),
                                         st.sampled_from([0.0, 0.25, 0.5]))))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_row_loop(self, frac):
        assert np.array_equal(association.round_association(frac),
                              round_rows(frac))
