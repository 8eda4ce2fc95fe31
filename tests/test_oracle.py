"""Brute-force references: grid search, association enumeration, and the
derivative/bound checkers (including their mutation self-tests)."""

import numpy as np
import pytest

from uavmec import oracle
from uavmec.oracle import GridSpec, OracleTooLarge
from uavmec.scenario import FleetConfig, generate


class TestGridSearch:
    def test_single_ue_optimum_is_overhead_at_floor(self):
        sc = generate(0, 1, FleetConfig(num_uavs=1))
        res = oracle.grid_search(sc, GridSpec(1.0, 0.5))
        ue = sc.positions[0]
        # grid nodes are 1 m apart, so the best node is within 0.5 m of
        # the continuous optimum directly above the UE
        assert np.abs(res.deployment.q[0] - ue).max() <= 0.5 + 1e-9
        assert res.deployment.h[0] == pytest.approx(40.0)

    def test_finer_grid_never_worse(self):
        sc = generate(3, 2, FleetConfig(num_uavs=1))
        coarse = oracle.grid_search(sc, GridSpec(4.0, 2.0))
        fine = oracle.grid_search(sc, GridSpec(2.0, 1.0))
        assert fine.mu <= coarse.mu + 1e-12

    def test_mu_matches_recomputed_time(self):
        from uavmec.optimizer import completion_time
        sc = generate(5, 3, FleetConfig(num_uavs=2))
        res = oracle.grid_search(sc, GridSpec(2.0, 1.0))
        mu, _ = completion_time(sc, res.deployment, res.association)
        assert res.mu == pytest.approx(mu, rel=1e-12)

    def test_association_guard(self):
        sc = generate(0, 30, FleetConfig(num_uavs=3))
        with pytest.raises(OracleTooLarge):
            oracle.grid_search(sc)

    def test_node_guard(self):
        sc = generate(0, 2, FleetConfig(num_uavs=1))
        with pytest.raises(OracleTooLarge):
            oracle.grid_search(sc, GridSpec(0.01, 0.01))

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0)


class TestEnumerateAssociations:
    def test_toy_assignment(self):
        # UE0 is fast on UAV0, UE1 fast on UAV1; splitting wins
        times = np.array([[1.0, 10.0], [10.0, 1.0]])
        mu, assoc = oracle.enumerate_associations(times)
        assert mu == pytest.approx(1.0)
        assert assoc.tolist() == [[1, 0], [0, 1]]

    def test_single_uav(self):
        times = np.array([[0.5], [0.7]])
        mu, assoc = oracle.enumerate_associations(times)
        assert mu == pytest.approx(1.2)
        assert assoc.tolist() == [[1], [1]]

    def test_guard(self):
        with pytest.raises(OracleTooLarge):
            oracle.enumerate_associations(np.ones((30, 4)))

    def test_beats_any_random_assignment(self, rng):
        times = rng.uniform(0.1, 1.0, size=(5, 3))
        mu, _ = oracle.enumerate_associations(times)
        for _ in range(50):
            labels = rng.integers(0, 3, size=5)
            per_uav = np.zeros(3)
            for i, j in enumerate(labels):
                per_uav[j] += times[i, j]
            assert mu <= per_uav.max() + 1e-12


class TestFiniteDiff:
    def test_quadratic_gradient_exact(self):
        def f(x):
            return float(x[0] ** 2 + 3.0 * x[0] * x[1])

        def g(x):
            return np.array([2.0 * x[0] + 3.0 * x[1], 3.0 * x[0]])

        err = oracle.finite_diff_check(f, g, np.array([1.3, -0.7]))
        assert err <= 1e-8

    def test_wrong_gradient_flagged(self):
        def f(x):
            return float(x[0] ** 2)

        err = oracle.finite_diff_check(f, lambda x: np.array([5.0]),
                                       np.array([1.0]))
        assert err > 0.1

    def test_scales_handle_shifted_origin(self):
        # f varies on a 1e4 coordinate scale; the default step at the
        # origin would be far too small without the explicit scale
        def f(x):
            return float(np.log1p((x[0] + 1e4) ** 2) * 1e-3)

        def g(x):
            return np.array([2e-3 * (x[0] + 1e4) / (1 + (x[0] + 1e4) ** 2)])

        err = oracle.finite_diff_check(f, g, np.zeros(1), scales=(1e4,))
        assert err <= 1e-6


class TestBoundDomination:
    def test_negative_on_valid_bounds(self, small_scenario):
        assert oracle.bound_domination_sample(small_scenario, 500,
                                              seed=1) <= 1e-9

    def test_flip_sign_self_test(self, small_scenario, flipped_bounds):
        assert oracle.bound_domination_sample(small_scenario, 100,
                                              seed=1) > 0

    def test_deterministic_in_seed(self, small_scenario):
        a = oracle.bound_domination_sample(small_scenario, 300, seed=7)
        b = oracle.bound_domination_sample(small_scenario, 300, seed=7)
        assert a == b
