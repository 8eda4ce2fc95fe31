"""Association step: service-time matrix, relaxed LP, and rounding."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from association_reference import cold_relaxed, round_rows
from uavmec import association, channel, oracle
from uavmec.lp import solve_lp
from uavmec.optimizer import Deployment
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


def assert_lp_optimum(times, frac, mu, ref_mu):
    """Row-stochastic, every load <= mu, and mu equal to the cold simplex's
    ref_mu."""
    assert frac.sum(axis=1) == pytest.approx(np.ones(len(times)), abs=1e-9)
    assert np.all(frac >= 0)
    assert np.all((frac * times).sum(axis=0) <= mu * (1 + 1e-9))
    assert mu == pytest.approx(ref_mu, rel=1e-9)


class TestPricedStart:
    """solve_relaxed starts the simplex from the basis its dual prices
    give; the result must be the cold simplex's."""

    @given(st.integers(1, 60), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_cold_simplex(self, n, m, seed):
        times = log_uniform_times(n, m, seed)
        pivots = []

        def spy(prog, basis=None):
            res = solve_lp(prog, basis=basis)
            pivots.append(res.iterations)
            return res

        with mock.patch.object(association, "solve_lp", spy):
            frac, mu = association.solve_relaxed(times)
        ref_frac, ref_mu = cold_relaxed(times)
        assert_lp_optimum(times, frac, mu, ref_mu)
        # random draws are generic: the optimal vertex is unique, so the
        # rounding agrees, and the priced basis is already optimal
        assert np.array_equal(association.round_association(frac),
                              association.round_association(ref_frac))
        assert pivots == [0]

    @given(st.integers(1, 60), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_prices_are_dual_optimal(self, n, m, seed):
        times = log_uniform_times(n, m, seed)
        prices = association.dual_prices(times)
        assert np.all(prices >= 0)
        assert prices.sum() == pytest.approx(1.0, rel=1e-12)
        # the Lagrangian value of the prices is the LP value
        assert np.sum(np.min(times * prices, axis=1)) == pytest.approx(
            cold_relaxed(times)[1], rel=1e-9)

    @pytest.mark.parametrize("times", [
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
    def test_degenerate_inputs(self, times):
        frac, mu = association.solve_relaxed(times)
        assert_lp_optimum(times, frac, mu, cold_relaxed(times)[1])

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
