"""Outer loop and baselines: completion time, k-means, convergence, and
the expected ordering between methods."""

import collections
import dataclasses
import warnings

import numpy as np
import pytest

from association_reference import cold_relaxed, equality_form
from uavmec import association, channel, lp, oracle, placement
from uavmec.lp import basis_start, solve_lp
from uavmec.optimizer import (Deployment, OptimizerConfig, completion_time,
                              kmeans, solve, solve_clbo, solve_hpo,
                              solve_proposed, solve_vpo)
from uavmec.channel import ChannelParams
from uavmec.scenario import Box, FleetConfig, Scenario, Ue, generate


def quiet_solve(sc, method, config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return solve(sc, method, config)


@pytest.fixture(scope="module")
def medium_scenario():
    return generate(1, 30, FleetConfig(num_uavs=3))


class TestCompletionTime:
    def test_max_over_uav_sums(self):
        sc = generate(0, 4, FleetConfig(num_uavs=2))
        dep = Deployment(q=np.array([[25.0, 50.0], [75.0, 50.0]]),
                         h=np.array([50.0, 50.0]))
        assoc = np.array([[1, 0], [1, 0], [0, 1], [0, 1]])
        mu, per_uav = completion_time(sc, dep, assoc)
        assert per_uav.shape == (2,)
        assert mu == pytest.approx(per_uav.max())
        assert per_uav.min() > 0

    def test_uav_relabeling_invariant(self):
        sc = generate(0, 5, FleetConfig(num_uavs=2))
        dep = Deployment(q=np.array([[25.0, 50.0], [75.0, 50.0]]),
                         h=np.array([45.0, 65.0]))
        assoc = np.array([[1, 0], [1, 0], [0, 1], [0, 1], [1, 0]])
        mu, _ = completion_time(sc, dep, assoc)
        dep_sw = Deployment(q=dep.q[::-1].copy(), h=dep.h[::-1].copy())
        mu_sw, _ = completion_time(sc, dep_sw, assoc[:, ::-1])
        assert mu_sw == pytest.approx(mu, rel=1e-12)

    def test_empty_uav_contributes_zero(self):
        sc = generate(0, 2, FleetConfig(num_uavs=2))
        dep = Deployment(q=np.array([[50.0, 50.0], [0.0, 0.0]]),
                         h=np.array([50.0, 50.0]))
        assoc = np.array([[1, 0], [1, 0]])
        _, per_uav = completion_time(sc, dep, assoc)
        assert per_uav[1] == 0.0


class TestKmeans:
    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(0)
        a = rng.normal([10, 10], 0.5, size=(20, 2))
        b = rng.normal([90, 90], 0.5, size=(20, 2))
        centroids, labels = kmeans(np.vstack([a, b]), 2, seed=0)
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1
        assert labels[0] != labels[20]
        got = sorted(centroids.tolist())
        assert np.allclose(got[0], a.mean(axis=0), atol=0.5) or \
            np.allclose(got[0], b.mean(axis=0), atol=0.5)

    def test_k_equals_n_zero_distortion(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        centroids, labels = kmeans(pts, 3, seed=1)
        assert sorted(labels.tolist()) == [0, 1, 2]
        assert np.allclose(np.sort(centroids, axis=0), np.sort(pts, axis=0))

    def test_k_larger_than_n_leaves_extra_clusters_empty(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0]])
        centroids, labels = kmeans(pts, 3, seed=0)
        assert len(set(labels.tolist())) == 2
        assert centroids.shape == (3, 2)
        # every centroid is one of the points: the spare one is a duplicate
        assert all(any(np.array_equal(c, p) for p in pts) for c in centroids)

    def test_empty_cluster_takes_farthest_point(self):
        # all points coincide: k-means++ seeds both centroids on them and
        # every point ties to cluster 0; the repair moves the lowest index
        centroids, labels = kmeans(np.full((6, 2), 50.0), 2, seed=0)
        assert labels.tolist() == [1, 0, 0, 0, 0, 0]
        assert np.all(centroids == 50.0)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 100, size=(30, 2))
        c1, l1 = kmeans(pts, 4, seed=9)
        c2, l2 = kmeans(pts, 4, seed=9)
        assert np.array_equal(c1, c2) and np.array_equal(l1, l2)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(max_outer_iters=0),
        dict(rel_tol=0.0),
        dict(restarts=0),
        dict(rel_tol=float("inf")),
        dict(rel_tol=float("nan")),
        dict(restarts=2.5),
        dict(max_outer_iters=2.5),
        dict(seed=1.5),
        dict(restarts=True),
        dict(max_outer_iters=True),
        dict(seed=False),
        dict(seed="1"),
        dict(rel_tol=True),
        dict(rel_tol="0.1"),
        dict(rel_tol=None),
        dict(seed=-1),
    ])
    def test_invalid_rejected(self, kwargs):
        [name] = kwargs
        with pytest.raises(ValueError, match=name):
            OptimizerConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = OptimizerConfig(max_outer_iters=np.int64(3),
                              restarts=np.int32(2), seed=np.uint8(7))
        assert (cfg.max_outer_iters, cfg.restarts, cfg.seed) == (3, 2, 7)

    def test_unknown_method_rejected(self, medium_scenario):
        with pytest.raises(ValueError, match="unknown method"):
            solve(medium_scenario, "magic")


class TestProposed:
    def test_single_ue_lands_overhead_at_floor(self):
        sc = generate(0, 1, FleetConfig(num_uavs=1))
        rep = quiet_solve(sc, "proposed",
                          OptimizerConfig(restarts=2, seed=0))
        ue = sc.positions[0]
        assert rep.deployment.q[0] == pytest.approx(ue, abs=1.0)
        assert rep.deployment.h[0] == pytest.approx(40.0, abs=0.5)
        ref = oracle.grid_search(sc)
        assert rep.mu <= 1.01 * ref.mu

    def test_trace_non_increasing(self):
        for seed in range(3):
            sc = generate(seed, 20, FleetConfig(num_uavs=3))
            rep = quiet_solve(sc, "proposed",
                              OptimizerConfig(restarts=1, seed=seed))
            trace = np.array(rep.mu_trace)
            assert np.all(np.diff(trace) <= 1e-6)
            assert rep.mu == pytest.approx(trace[-1], rel=1e-12)

    def test_deterministic_given_seed(self, medium_scenario):
        cfg = OptimizerConfig(restarts=1, seed=4)
        r1 = quiet_solve(medium_scenario, "proposed", cfg)
        r2 = quiet_solve(medium_scenario, "proposed", cfg)
        assert r1.mu == r2.mu
        assert np.array_equal(r1.deployment.q, r2.deployment.q)
        assert np.array_equal(r1.deployment.h, r2.deployment.h)
        assert np.array_equal(r1.association, r2.association)

    def test_association_is_one_hot(self, medium_scenario):
        rep = quiet_solve(medium_scenario, "proposed",
                          OptimizerConfig(restarts=1, seed=0))
        assert np.all(rep.association.sum(axis=1) == 1)

    def test_deployment_inside_box(self, medium_scenario):
        rep = quiet_solve(medium_scenario, "proposed",
                          OptimizerConfig(restarts=1, seed=0))
        box = medium_scenario.fleet.box
        assert np.all(rep.deployment.q[:, 0] >= box.x_min - 1e-9)
        assert np.all(rep.deployment.q[:, 0] <= box.x_max + 1e-9)
        assert np.all(rep.deployment.h >= box.h_min - 1e-9)
        assert np.all(rep.deployment.h <= box.h_max + 1e-9)

    def test_reported_mu_matches_recomputation(self, medium_scenario):
        rep = quiet_solve(medium_scenario, "proposed",
                          OptimizerConfig(restarts=1, seed=0))
        mu, _ = completion_time(medium_scenario, rep.deployment,
                                rep.association)
        assert rep.mu == pytest.approx(mu, rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_bounds_tight_at_interior_altitude(self, seed):
        # a 400 m area and a 10-300 m band put the optimal altitudes inside
        # the band, so the last vertical step moves and its sine and rate
        # bounds must meet the true values at the SCA fixed point
        box = Box(0.0, 400.0, 0.0, 400.0, 10.0, 300.0)
        sc = generate(seed, 20, FleetConfig(num_uavs=3, box=box))
        rep = quiet_solve(sc, "proposed", OptimizerConfig(
            restarts=1, seed=seed, rel_tol=1e-7, max_outer_iters=60))
        dep = rep.deployment
        assert rep.converged
        assert np.all((dep.h > box.h_min + 1.0) & (dep.h < box.h_max - 1.0))
        for j, (served, v, z, accepted) in enumerate(rep.tightness):
            assert accepted
            sq = np.sum((dep.q[j] - sc.positions[served]) ** 2, axis=-1)
            h = dep.h[j]
            r_true = channel.rate(sq, h, sc.tx_powers[served], sc.channel,
                                  "rician")
            np.testing.assert_allclose(v, h / np.sqrt(sq + h * h),
                                       rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(z, r_true, rtol=1e-5, atol=0.0)


class TestEvaluateOnce:
    @pytest.mark.parametrize("method, extra", [("proposed", 1), ("hpo", 1),
                                               ("vpo", 0)])
    def test_one_service_time_matrix_per_deployment(self, method, extra,
                                                    monkeypatch):
        # one matrix per deployment: the start (to associate) and the end
        # of each iteration (its mu, and the next association)
        calls = []
        inner = association.service_time_matrix

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(association, "service_time_matrix", counting)
        sc = generate(2, 12, FleetConfig(num_uavs=3))
        rep = quiet_solve(sc, method, OptimizerConfig(restarts=1, seed=2))
        assert rep.iterations >= 2
        assert len(calls) == rep.iterations + extra


class TestOneBlockPerStep:
    """All UAVs take each placement step in one call: one horizontal and
    one vertical block per outer iteration, and no per-UAV call."""

    @pytest.mark.parametrize("method, horizontal, vertical", [
        ("proposed", 1, 1), ("hpo", 1, 0), ("vpo", 0, 1), ("clbo", 1, 1)])
    def test_block_calls_per_iteration(self, method, horizontal, vertical,
                                       monkeypatch):
        calls = collections.Counter()
        for name in ("horizontal_block", "vertical_block",
                     "solve_horizontal", "solve_vertical", "solve_convex"):
            inner = getattr(placement, name)

            def counting(*args, _inner=inner, _name=name, **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(placement, name, counting)
        sc = generate(2, 12, FleetConfig(num_uavs=3))
        rep = quiet_solve(sc, method, OptimizerConfig(restarts=1, seed=2))
        assert rep.iterations >= 2
        assert calls == collections.Counter(
            horizontal_block=horizontal * rep.iterations,
            vertical_block=vertical * rep.iterations)


class TestBaselines:
    def test_hpo_pins_altitude(self, medium_scenario):
        rep = quiet_solve(medium_scenario, "hpo",
                          OptimizerConfig(restarts=1, seed=0))
        assert np.all(rep.deployment.h == 60.0)

    def test_vpo_keeps_nearest_centroid_association(self, medium_scenario):
        rep = quiet_solve(medium_scenario, "vpo",
                          OptimizerConfig(restarts=1, seed=0))
        centroids, labels = kmeans(medium_scenario.positions,
                                   medium_scenario.fleet.num_uavs, seed=0)
        assert np.array_equal(np.argmax(rep.association, axis=1), labels)
        assert np.array_equal(rep.deployment.q, centroids)

    def test_clbo_reports_both_objectives(self, medium_scenario):
        rep = quiet_solve(medium_scenario, "clbo",
                          OptimizerConfig(restarts=1, seed=0))
        assert "mu_los" in rep.extras and "mu_eval" in rep.extras
        # the LoS rate dominates the outage rate, so the same deployment
        # always looks at least as fast under the LoS model
        assert rep.extras["mu_los"] <= rep.extras["mu_eval"] + 1e-9

    def test_method_ordering(self, medium_scenario):
        cfg = OptimizerConfig(restarts=2, seed=0)
        mu_p = quiet_solve(medium_scenario, "proposed", cfg).mu
        mu_h = quiet_solve(medium_scenario, "hpo", cfg).mu
        mu_v = quiet_solve(medium_scenario, "vpo", cfg).mu
        assert mu_p <= mu_h + 1e-6
        assert mu_p <= mu_v + 1e-6


def test_solver_entry_points_agree(medium_scenario):
    cfg = OptimizerConfig(restarts=1, seed=2)
    by_name = quiet_solve(medium_scenario, "hpo", cfg).mu
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        direct = solve_hpo(medium_scenario, cfg).mu
    assert by_name == direct


def _scenario(xy, bits, num_uavs):
    ues = tuple(Ue(x=float(x), y=float(y), data_bits=float(b),
                   cycles=float(300.0 * b)) for (x, y), b in zip(xy, bits))
    return Scenario(ues=ues, fleet=FleetConfig(num_uavs=num_uavs),
                    channel=ChannelParams(), seed=0)


def _orders_apart(xy, orders):
    """UEs at xy on 3 UAVs; data_bits from 1e3 to 1e3 * 10**orders,
    log-spaced and shuffled."""
    rng = np.random.default_rng(0)
    return _scenario(xy, rng.permutation(np.logspace(3, 3 + orders, len(xy))),
                     3)


DEGENERATE = {
    "single-ue": lambda: generate(2, 1, FleetConfig(num_uavs=2)),
    "colocated-12-on-3": lambda: _scenario(np.full((12, 2), 50.0),
                                           np.full(12, 1e6), 3),
    "bits-12-orders": lambda: _orders_apart(
        np.random.default_rng(1).uniform(0.0, 100.0, (20, 2)), 12),
    "groups-17-orders": lambda: _orders_apart(
        np.repeat([[20.0, 30.0], [70.0, 40.0], [50.0, 85.0]], 10, axis=0), 17),
}


class TestDegenerateInputs:
    @pytest.mark.parametrize("method", ["proposed", "hpo", "vpo", "clbo"])
    def test_more_uavs_than_ues(self, method):
        sc = generate(1, 3, FleetConfig(num_uavs=5))
        rep = quiet_solve(sc, method, OptimizerConfig(restarts=1, seed=0))
        assert np.isfinite(rep.mu) and rep.mu > 0
        assert np.all(rep.association.sum(axis=1) == 1)
        box = sc.fleet.box
        assert np.all((box.h_min <= rep.deployment.h)
                      & (rep.deployment.h <= box.h_max))

    @pytest.mark.parametrize("method", ["proposed", "hpo", "vpo", "clbo"])
    @pytest.mark.parametrize("case", sorted(DEGENERATE))
    def test_valid_deployment(self, case, method):
        sc = DEGENERATE[case]()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.filterwarnings("ignore",
                                    message="association rounding regressed")
            rep = solve(sc, method, OptimizerConfig(restarts=1, seed=0))
        assert np.array_equal(rep.association.sum(axis=1),
                              np.ones(sc.n_ues))
        assert set(np.unique(rep.association)) <= {0, 1}
        box, dep = sc.fleet.box, rep.deployment
        assert np.all((box.x_min <= dep.q[:, 0]) & (dep.q[:, 0] <= box.x_max))
        assert np.all((box.y_min <= dep.q[:, 1]) & (dep.q[:, 1] <= box.y_max))
        assert np.all((box.h_min <= dep.h) & (dep.h <= box.h_max))
        assert np.isfinite(rep.mu) and rep.mu > 0
        model = "los" if method == "clbo" else "rician"
        assert rep.mu == completion_time(sc, dep, rep.association, model)[0]

    def test_vpo_splits_colocated_ues(self):
        ues = tuple(Ue(x=50.0, y=50.0, data_bits=1e6, cycles=3e8)
                    for _ in range(6))
        sc = Scenario(ues=ues, fleet=FleetConfig(num_uavs=2),
                      channel=ChannelParams(), seed=0)
        cfg = OptimizerConfig(restarts=1, seed=0)
        vpo = quiet_solve(sc, "vpo", cfg)
        assert np.all(vpo.association.sum(axis=0) >= 1)
        # one UAV serving all six takes twice as long as proposed's 3 + 3
        alone = completion_time(sc, vpo.deployment,
                                np.column_stack([np.ones(6), np.zeros(6)]))[0]
        assert vpo.mu < alone
        assert quiet_solve(sc, "proposed", cfg).mu <= vpo.mu + 1e-9


class TestPricedAssociation:
    """The priced starting basis must not change any solve: same mu to
    the bit and the same association as the LP solved cold."""

    @pytest.mark.parametrize("size", [(40, 3), (80, 10)])
    @pytest.mark.parametrize("method", ["proposed", "hpo", "clbo"])
    def test_solves_match_cold_lp(self, size, method, monkeypatch):
        cfg = [OptimizerConfig(restarts=1, max_outer_iters=2, seed=seed)
               for seed in range(3)]
        scenarios = [generate(seed, size[0], FleetConfig(num_uavs=size[1]))
                     for seed in range(3)]
        priced = [quiet_solve(sc, method, c) for sc, c in zip(scenarios, cfg)]
        monkeypatch.setattr(association, "solve_relaxed", cold_relaxed)
        for sc, c, rep in zip(scenarios, cfg, priced):
            ref = quiet_solve(sc, method, c)
            assert rep.mu.hex() == ref.mu.hex()
            assert np.array_equal(rep.association, ref.association)

    @pytest.mark.parametrize("seed, n", [(925312022, 200), (932482408, 200),
                                         (1258493683, 200), (1878861697, 200),
                                         (1, 1000)])
    def test_priced_basis_is_optimal(self, seed, n, monkeypatch):
        # instances where a master scaled to values below 1 ended pricing
        # about 1e-9 relative above the LP optimum: the priced basis then
        # missed tied pairs and the certifying call solved from scratch
        # (over 1100 pivots); on 1878861697 a pair 8.8e-9 relative above
        # its row minimum missed a 1e-9 tie tolerance the same way; the
        # priced basis, tried first, must be the one phase 2 starts from,
        # also at the 1000 UEs / 10 UAVs that CI solves
        pivots = []

        def spy(prog, bases):
            assert basis_start(*equality_form(prog), bases[0]) is not None
            res = solve_lp(prog, bases=bases)
            pivots.append(res.iterations)
            return res

        monkeypatch.setattr(association, "solve_lp", spy)
        quiet_solve(generate(seed, n, FleetConfig(num_uavs=10)), "proposed",
                    OptimizerConfig(restarts=1, max_outer_iters=2, seed=seed))
        assert pivots == [0, 0]

    @pytest.mark.parametrize("seed", [925312022, 932482408, 1258493683,
                                      1878861697])
    def test_smoothed_pricing_columns_at_200_by_10(self, seed, monkeypatch):
        # the master's prices tail off: pricing at them took 299-308
        # columns for the solve's two LPs on a master with one convexity
        # row; smoothed pricing took 128-146, and one convexity row per
        # fastest-UAV group takes 56-66 pricing rounds (master runs).
        # Without the stop on columns that do not enter, 1878861697 kept
        # adding columns below the simplex's tolerance up to the one-row
        # master's 10 000-column cap (10 055 in all)
        rounds = []
        run = lp.Tableau.run

        def spy(self, max_iter):
            rounds.append(max_iter)
            return run(self, max_iter)

        monkeypatch.setattr(lp.Tableau, "run", spy)
        quiet_solve(generate(seed, 200, FleetConfig(num_uavs=10)), "proposed",
                    OptimizerConfig(restarts=1, max_outer_iters=2, seed=seed))
        assert 0 < len(rounds) <= 90


def _scaled_tasks(sc, factor):
    return dataclasses.replace(sc, ues=tuple(
        dataclasses.replace(ue, data_bits=ue.data_bits * factor,
                            cycles=ue.cycles * factor) for ue in sc.ues))


class TestScaleInvariance:
    """The problem is homogeneous in (data_bits, cycles): scaling both by a
    power of two, which is exact in floating point, must leave every
    deployment unchanged to the bit and scale mu by the same factor."""

    @pytest.mark.parametrize("method", ["proposed", "hpo", "vpo", "clbo"])
    @pytest.mark.parametrize("size", [(6, 2), (20, 3)], ids=["6x2", "20x3"])
    def test_scaled_tasks_same_deployment(self, size, method):
        factor = 2.0 ** 40
        for seed in range(4):
            sc = generate(seed, size[0], FleetConfig(num_uavs=size[1]))
            cfg = OptimizerConfig(restarts=1, seed=seed)
            rep = quiet_solve(sc, method, cfg)
            big = quiet_solve(_scaled_tasks(sc, factor), method, cfg)
            assert big.deployment.q.tobytes() == rep.deployment.q.tobytes()
            assert big.deployment.h.tobytes() == rep.deployment.h.tobytes()
            assert np.array_equal(big.association, rep.association)
            assert big.mu == rep.mu * factor
