"""SCA subproblems: bound coefficients, global lower bounds, and the
horizontal/vertical solves against brute-force references."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sca_epigraph
from uavmec import channel, oracle, placement
from uavmec.channel import ChannelParams
from uavmec.lp import Status
from uavmec.placement import ExpansionPoint
from uavmec.scenario import Box, FleetConfig, generate


def make_ep(q_hat, h_hat, ue_pos, params, model="rician"):
    ue_pos = np.atleast_2d(np.asarray(ue_pos, dtype=float))
    powers = np.full(len(ue_pos), 0.1)
    return ExpansionPoint.at(np.asarray(q_hat, float), h_hat, ue_pos, powers,
                             params, model=model)


def ue_data_for(ep, data_bits=1e6, cycles_per_bit=300.0, cpu_hz=2e9):
    bits = np.full(len(ep.r_hat), data_bits)
    return (bits, cycles_per_bit * bits, cpu_hz)


def true_time(ep, data, q, h):
    """Exact completion time of ep's UEs with the UAV at (q, h)."""
    return placement.true_uav_time(q, h, ep.ue_pos, data[0], data[1],
                                   ep.tx_powers, data[2], ep.params, ep.model)


class TestCoefficients:
    def test_positive(self, params, rng):
        for _ in range(50):
            v = rng.uniform(0.05, 1.0)
            dsq = rng.uniform(1600.0, 3e4)
            ce, cq = placement.taylor_coefficients(v, dsq, params.gamma(0.1),
                                                  params)
            assert ce > 0 and cq > 0

    def test_match_rate_partials(self, params, rng):
        # at the expansion point the bound is first-order exact, so its
        # slopes in (v, squared distance) must match the true rate's
        for _ in range(50):
            v_hat = float(rng.uniform(0.05, 0.999))
            d_sq = float(rng.uniform(1600.0, 3e4))
            h = 50.0
            sq_hat = d_sq - h * h
            if sq_hat <= 1.0:
                continue
            gamma = params.gamma(0.1)
            ce, cq = placement.taylor_coefficients(v_hat, d_sq, gamma, params)

            def rate(p):
                return float(channel.outage_rate(p[1], h, p[0], 0.1, params))

            grad = np.array([ce * params.k4
                             * np.exp(-(params.k3 + params.k4 * v_hat)), -cq])
            err = oracle.finite_diff_check(rate, lambda p: grad,
                                           np.array([v_hat, sq_hat]),
                                           step=1e-6, scales=(1.0, d_sq))
            assert err <= 1e-6

    def test_los_coefficient_matches_los_rate_slope(self, params):
        d_sq = 2500.0
        h = 40.0
        gamma = params.gamma(0.1)
        cq = float(placement.los_coefficient(d_sq, gamma, params))

        def rate(p):
            return float(channel.los_rate(p[0], h, 0.1, params))

        err = oracle.finite_diff_check(rate, lambda p: np.array([-cq]),
                                       np.array([d_sq - h * h]),
                                       step=1e-6, scales=(d_sq,))
        assert err <= 1e-6


class TestBounds:
    def test_exact_at_expansion(self, params):
        ep = make_ep([30.0, 40.0], 55.0, [[10.0, 10.0], [80.0, 70.0]], params)
        coeffs = placement.psi_coefficients(ep, params)
        r = placement.r_lb_horizontal(ep.horiz_sq_hat, ep.v_hat, ep, coeffs,
                                      params)
        assert r == pytest.approx(ep.r_hat, rel=1e-14)
        assert placement.v_lb(ep.horiz_sq_hat, ep) == pytest.approx(
            ep.v_hat, rel=1e-14)
        rv = placement.r_lb_vertical(ep.h_hat, ep.v_hat, ep, coeffs, params)
        assert rv == pytest.approx(ep.r_hat, rel=1e-14)

    def test_sine_bound_hand_value(self, params):
        # expansion at horizontal offset 30, altitude 40 (d = 50, sine 0.8);
        # moving to the UE (offset 0) raises the bound by slope * 900
        ep = make_ep([30.0, 0.0], 40.0, [[0.0, 0.0]], params)
        slope = 40.0 / (2.0 * 2500.0 ** 1.5)
        got = placement.v_lb(0.0, ep)[0]
        assert got == pytest.approx(0.8 + slope * 900.0, rel=1e-12)
        assert got == pytest.approx(0.944)

    def test_never_exceed_true_values(self, small_scenario):
        worst = oracle.bound_domination_sample(small_scenario, 2000, seed=3)
        assert worst <= 1e-9

    def test_domination_sampler_catches_sign_flip(self, small_scenario,
                                                  flipped_bounds):
        worst = oracle.bound_domination_sample(small_scenario, 200, seed=3)
        assert worst > 1e-6


class TestTrueTime:
    def test_single_link_arithmetic(self, params):
        t = placement.true_uav_time(
            np.array([50.0, 50.0]), 40.0, np.array([[50.0, 50.0]]),
            np.array([1e6]), np.array([3e8]), np.array([0.1]), 2e9, params)
        assert t == pytest.approx(1e6 / 33675662.955950975 + 0.15, rel=1e-9)

    def test_sums_over_ues(self, params):
        pos = np.array([[10.0, 10.0], [90.0, 90.0]])
        args = (np.array([1e6, 1e6]), np.array([3e8, 3e8]),
                np.array([0.1, 0.1]), 2e9, params)
        both = placement.true_uav_time(np.array([50.0, 50.0]), 60.0, pos, *args)
        parts = [placement.true_uav_time(
            np.array([50.0, 50.0]), 60.0, pos[k:k + 1], args[0][k:k + 1],
            args[1][k:k + 1], args[2][k:k + 1], 2e9, params) for k in range(2)]
        assert both == pytest.approx(sum(parts), rel=1e-12)


class TestUnknownModel:
    """A misspelt model name is an error, never a silent LoS solve."""

    def test_expansion_point_rejects(self, params):
        with pytest.raises(ValueError, match="unknown channel model"):
            make_ep([50.0, 50.0], 60.0, [[20.0, 20.0]], params, model="Rician")

    def test_true_time_rejects(self, params):
        with pytest.raises(ValueError, match="unknown channel model"):
            placement.true_uav_time(
                np.array([50.0, 50.0]), 60.0, np.array([[20.0, 20.0]]),
                np.array([1e6]), np.array([3e8]), np.array([0.1]), 2e9,
                params, model="Rician")

    def test_horizontal_step_rejects(self, params):
        ep = make_ep([90.0, 90.0], 60.0, [[20.0, 20.0]], params)
        bad = dataclasses.replace(ep, model="Rician")
        with pytest.raises(ValueError, match="unknown channel model"):
            placement.solve_horizontal(bad, ue_data_for(ep), Box())


class TestHorizontalStep:
    def test_moves_toward_single_ue(self, params):
        box = Box()
        ep = make_ep([90.0, 90.0], 60.0, [[20.0, 20.0]], params)
        sol = placement.solve_horizontal(ep, ue_data_for(ep), box)
        assert sol.accepted
        d_old = np.linalg.norm(ep.q_hat - [20.0, 20.0])
        d_new = np.linalg.norm(sol.position - [20.0, 20.0])
        assert d_new < d_old

    def test_fixpoint_reaches_single_ue(self, params):
        box = Box()
        q = np.array([90.0, 90.0])
        for _ in range(40):
            ep = make_ep(q, 60.0, [[20.0, 20.0]], params)
            sol = placement.solve_horizontal(ep, ue_data_for(ep), box)
            q = np.asarray(sol.position)
        assert q == pytest.approx([20.0, 20.0], abs=0.5)

    def test_symmetric_pair_ends_on_bisector(self, params):
        box = Box()
        q = np.array([50.0, 90.0])
        pos = [[20.0, 50.0], [80.0, 50.0]]
        for _ in range(40):
            ep = make_ep(q, 60.0, pos, params)
            sol = placement.solve_horizontal(ep, ue_data_for(ep), box)
            q = np.asarray(sol.position)
        assert q[0] == pytest.approx(50.0, abs=0.5)

    def test_never_increases_true_time(self, params, rng):
        box = Box()
        for _ in range(15):
            q_hat = rng.uniform(0, 100, size=2)
            h = rng.uniform(40, 80)
            pos = rng.uniform(0, 100, size=(3, 2))
            ep = make_ep(q_hat, h, pos, params)
            data = ue_data_for(ep)
            sol = placement.solve_horizontal(ep, data, box)
            t_old = true_time(ep, data, q_hat, h)
            t_new = true_time(ep, data, sol.position, h)
            assert t_new <= t_old + 1e-9

    def test_los_variant_improves(self, params):
        box = Box()
        ep = make_ep([90.0, 90.0], 60.0, [[20.0, 20.0]], params, model="los")
        data = ue_data_for(ep)
        sol = placement.solve_horizontal(ep, data, box)
        t_old = true_time(ep, data, ep.q_hat, 60.0)
        t_new = true_time(ep, data, sol.position, 60.0)
        assert t_new <= t_old + 1e-9


class TestVerticalStep:
    def test_overhead_ue_drops_to_floor(self, params):
        box = Box()
        h = 70.0
        for _ in range(30):
            ep = make_ep([50.0, 50.0], h, [[50.0, 50.0]], params)
            sol = placement.solve_vertical(ep, ue_data_for(ep), box)
            h = float(sol.position)
        assert h == pytest.approx(box.h_min, abs=0.05)

    def test_fixpoint_matches_fine_grid(self, params):
        # single UE at horizontal offset 30: the altitude trades path loss
        # against elevation angle; compare with a 0.01 m grid
        box = Box()
        pos = np.array([[80.0, 50.0]])
        h = 75.0
        for _ in range(60):
            ep = make_ep([50.0, 50.0], h, pos, params)
            data = ue_data_for(ep)
            sol = placement.solve_vertical(ep, data, box)
            h = float(sol.position)
        hs = np.arange(box.h_min, box.h_max + 1e-9, 0.01)
        times = [true_time(ep, data, np.array([50.0, 50.0]), hh) for hh in hs]
        h_grid = hs[int(np.argmin(times))]
        assert abs(h - h_grid) <= 0.05

    def test_never_increases_true_time(self, params, rng):
        box = Box()
        for _ in range(15):
            q_hat = rng.uniform(0, 100, size=2)
            h = rng.uniform(40, 80)
            pos = rng.uniform(0, 100, size=(3, 2))
            ep = make_ep(q_hat, h, pos, params)
            data = ue_data_for(ep)
            sol = placement.solve_vertical(ep, data, box)
            t_old = true_time(ep, data, q_hat, h)
            t_new = true_time(ep, data, q_hat, sol.position)
            assert t_new <= t_old + 1e-9

    def test_altitude_stays_in_box(self, params, rng):
        box = Box()
        for _ in range(10):
            ep = make_ep(rng.uniform(0, 100, size=2), rng.uniform(40, 80),
                         rng.uniform(0, 100, size=(2, 2)), params)
            sol = placement.solve_vertical(ep, ue_data_for(ep), box)
            assert box.h_min - 1e-9 <= float(sol.position) <= box.h_max + 1e-9


def _captured_newton(monkeypatch):
    """Record the NewtonRows of every placement.projected_newton call."""
    calls = []
    inner = placement.projected_newton

    def recording(*args, **kwargs):
        calls.append(inner(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(placement, "projected_newton", recording)
    return calls


def random_block(rng, params, model, k, max_ues=5, box=Box()):
    """(exp_point, owner, q, h, ue_data) for k UAVs serving 1..max_ues UEs
    each; the UEs of different UAVs are interleaved."""
    owner = rng.permutation(np.repeat(np.arange(k),
                                      rng.integers(1, max_ues + 1, size=k)))
    pos = rng.uniform(0, 100, size=(owner.size, 2))
    q = rng.uniform(20, 80, size=(k, 2))
    h = rng.uniform(box.h_min + 5.0, box.h_max - 5.0, size=k)
    bits = 10 ** rng.uniform(4, 7, size=owner.size)
    ep = ExpansionPoint.at(q[owner], h[owner], pos, np.full(owner.size, 0.1),
                           params, model)
    return ep, owner, q, h, (bits, 300.0 * bits, 2e9)


def one_uav_rows(block, j):
    """The arguments of UAV j's one-UAV call: its rows of the expansion
    point, in the same order."""
    ep, owner, q, h, (bits, cycles, cpu_hz) = block
    sel = owner == j
    sub = ExpansionPoint.at(ep.q_hat[sel], ep.h_hat[sel], ep.ue_pos[sel],
                            ep.tx_powers[sel], ep.params, ep.model)
    return (sub, np.zeros(sel.sum(), dtype=int), q[j:j + 1], h[j:j + 1],
            (bits[sel], cycles[sel], cpu_hz))


STEPS = {"horizontal": placement.horizontal_block,
         "vertical": placement.vertical_block}


class TestNewtonOracle:
    """The shared Newton oracle, evaluated for several UAVs in one call:
    each UAV's gradient and Hessian against central differences of its own
    value and gradient, with the other UAVs' rows unaffected."""

    @pytest.mark.parametrize("model", ["rician", "los"])
    @pytest.mark.parametrize("step_cls", [placement._Horizontal,
                                          placement._Vertical])
    def test_derivatives_match_finite_differences(self, params, model,
                                                  step_cls):
        rng = np.random.default_rng(7)
        box = Box()
        for _ in range(10):
            k = int(rng.integers(2, 5))
            oracle_k = step_cls(*random_block(rng, params, model, k), box)
            x = oracle_k.x_hat + rng.uniform(-3.0, 3.0,
                                             size=oracle_k.x_hat.shape)
            f, grad, hess = oracle_k(x)
            n = x.shape[1]
            assert f.shape == (k,) and grad.shape == (k, n)
            assert hess.shape == (k, n, n)
            assert np.all(np.isfinite(f))
            for r in range(k):
                def at(y, r=r):
                    moved = x.copy()
                    moved[r] = y
                    got = oracle_k(moved)
                    others = np.arange(k) != r
                    assert np.array_equal(got[0][others], f[others])
                    return got[0][r], got[1][r], got[2][r]

                assert oracle.finite_diff_check(lambda y: at(y)[0],
                                                lambda y: at(y)[1], x[r],
                                                step=1e-6) <= 1e-6
                for c in range(n):
                    assert oracle.finite_diff_check(
                        lambda y: at(y)[1][c], lambda y: at(y)[2][c], x[r],
                        step=1e-6) <= 1e-6
                np.testing.assert_allclose(hess[r], hess[r].T, rtol=1e-12)
                assert np.all(np.linalg.eigvalsh(hess[r]) > 0)


def _same(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _assert_uav_matches(sol, ref, j, sel):
    """UAV j of a K-UAV solution against its one-UAV solution ``ref``,
    bit for bit."""
    assert _same(sol.q[j], ref.q[0]) and _same(sol.h[j], ref.h[0])
    assert sol.status[j] is ref.status[0]
    assert sol.accepted[j] == ref.accepted[0]
    assert _same(sol.mu[j], ref.mu[0])
    assert _same(sol.v[sel], ref.v) and _same(sol.z[sel], ref.z)


class TestBlock:
    """One call for all UAVs gives each UAV exactly its one-UAV result."""

    @given(st.integers(1, 5), st.sampled_from(["rician", "los"]),
           st.sampled_from(["horizontal", "vertical"]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_each_uav_bit_identical_to_its_own_call(self, k, model, step,
                                                    seed):
        rng = np.random.default_rng(seed)
        block = random_block(rng, ChannelParams(), model, k, max_ues=11)
        solve = STEPS[step]
        sol = solve(*block, Box())
        owner = block[1]
        for j in range(k):
            _assert_uav_matches(sol, solve(*one_uav_rows(block, j), Box()),
                                j, owner == j)

    def _others_unchanged(self, sol, block, solve, bad):
        owner = block[1]
        for j in range(len(block[3])):
            if j != bad:
                _assert_uav_matches(
                    sol, solve(*one_uav_rows(block, j), Box()), j, owner == j)

    def _kept(self, sol, block, bad):
        ep, owner, q, h, _ = block
        sel = owner == bad
        assert not sol.accepted[bad]
        assert _same(sol.q[bad], q[bad]) and _same(sol.h[bad], h[bad])
        assert _same(sol.v[sel], ep.v_hat[sel])
        assert _same(sol.z[sel], ep.r_hat[sel])
        for name in ("horiz_sq_hat", "d_sq_hat", "v_hat", "r_hat"):
            assert _same(getattr(sol.point, name)[sel],
                         getattr(ep, name)[sel]), name

    @pytest.mark.parametrize("cause", ["rate_floor"])
    @pytest.mark.parametrize("step", ["horizontal", "vertical"])
    def test_infeasible_start_isolated(self, params, step, cause):
        # a UE 1e6 m away gets a rate below Z_FLOOR at the start
        rng = np.random.default_rng(3)
        ep, owner, q, h, (bits, cycles, cpu_hz) = random_block(
            rng, params, "rician", 4)
        far = np.flatnonzero(owner == 2)[0]
        pos = ep.ue_pos.copy()
        pos[far] = [1e6, 0.0]
        bits[far] = 1e3
        ep = ExpansionPoint.at(q[owner], h[owner], pos, ep.tx_powers, params)
        assert ep.r_hat[far] < placement.Z_FLOOR
        block = (ep, owner, q, h, (bits, cycles, cpu_hz))
        solve = STEPS[step]
        sol = solve(*block, Box())
        assert sol.status[2] is Status.INFEASIBLE
        self._kept(sol, block, 2)
        self._others_unchanged(sol, block, solve, 2)

    @pytest.mark.parametrize("step", ["horizontal", "vertical"])
    def test_numerical_failure_isolated(self, params, step, monkeypatch):
        block = random_block(np.random.default_rng(4), params, "rician", 4)
        solve = STEPS[step]
        inner = placement._Step.__call__

        def nan_gradient(self, x):
            f, g, hess = inner(self, x)
            g = g.copy()
            g[1] = np.nan
            return f, g, hess

        monkeypatch.setattr(placement._Step, "__call__", nan_gradient)
        sol = solve(*block, Box())
        monkeypatch.undo()
        assert sol.status[1] is Status.NUMERICAL_FAILURE
        self._kept(sol, block, 1)
        self._others_unchanged(sol, block, solve, 1)

    @pytest.mark.parametrize("step", ["horizontal", "vertical"])
    def test_rejected_step_isolated(self, params, step, monkeypatch):
        # UAV 0's "optimum" is the box corner far from its UEs, which makes
        # its time worse: the safeguard rejects it, and only it
        box = Box()
        rng = np.random.default_rng(5)
        ep, owner, q, h, data = random_block(rng, params, "rician", 3)
        pos = np.where((owner == 0)[:, None], 10.0, ep.ue_pos)
        q[0] = [10.0, 10.0]
        ep = ExpansionPoint.at(q[owner], h[owner], pos, ep.tx_powers, params)
        block = (ep, owner, q, h, data)
        solve = STEPS[step]
        inner = placement.projected_newton

        def corner(fun, x0, lo, hi):
            res = inner(fun, x0, lo, hi)
            x = res.x.copy()
            x[0] = hi
            return dataclasses.replace(res, x=x)

        monkeypatch.setattr(placement, "projected_newton", corner)
        sol = solve(*block, box)
        monkeypatch.undo()
        assert sol.status[0] is Status.OPTIMAL
        self._kept(sol, block, 0)
        self._others_unchanged(sol, block, solve, 0)

    @pytest.mark.parametrize("step", ["horizontal", "vertical"])
    def test_empty_uav_untouched(self, params, step):
        ep, owner, q, h, data = random_block(np.random.default_rng(6), params,
                                             "rician", 3)
        owner = np.where(owner == 1, 2, owner)      # UAV 1 serves nobody
        ep = ExpansionPoint.at(q[owner], h[owner], ep.ue_pos, ep.tx_powers,
                               params)
        block = (ep, owner, q, h, data)
        solve = STEPS[step]
        sol = solve(*block, Box())
        assert _same(sol.q[1], q[1]) and _same(sol.h[1], h[1])
        assert sol.status[1] is Status.OPTIMAL and sol.mu[1] == 0.0
        self._others_unchanged(sol, block, solve, 1)


class TestSolveConvex:
    """The one-problem form of the projected Newton."""

    def test_box_constrained_quadratic(self):
        # minimum of (x - c)^T A (x - c) at c = (0.5, -1), outside the box
        # [0, 1]^2: the KKT point has x1 on its lower bound (its gradient
        # there is 1.75 > 0) and x0 = c0 + A01 c1 / A00 = 0.25, the
        # minimizer along x0 with x1 = 0
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        c = np.array([0.5, -1.0])

        def fun(x):
            r = x - c
            return 1.0 + r @ a @ r, 2.0 * a @ r, 2.0 * a

        res = placement.solve_convex(fun, np.array([0.5, 0.5]), np.zeros(2),
                                     np.ones(2))
        assert res.status is Status.OPTIMAL
        np.testing.assert_allclose(res.x, [0.25, 0.0], atol=1e-12)
        assert res.iterations <= 5

    def test_infeasible_start(self):
        res = placement.solve_convex(lambda x: (np.inf, None, None),
                                     np.zeros(1), np.zeros(1), np.ones(1))
        assert res.status is Status.INFEASIBLE and res.x is None


class TestPointHandOff:
    """SubproblemSolution.point is the expansion point at the returned
    position, so the next step can expand there without new rates."""

    @pytest.mark.parametrize("model", ["rician", "los"])
    def test_accepted_step_returns_point_at_position(self, params, model):
        box = Box()
        ep = make_ep([90.0, 90.0], 60.0, [[20.0, 20.0], [40.0, 70.0]],
                     params, model)
        data = ue_data_for(ep)
        hor = placement.solve_horizontal(ep, data, box)
        ver = placement.solve_vertical(hor.point, data, box)
        assert hor.accepted and ver.accepted
        for sol, (q, h) in ((hor, (hor.position, 60.0)),
                            (ver, (hor.position, ver.position))):
            want = ExpansionPoint.at(q, h, ep.ue_pos, ep.tx_powers, params,
                                     model)
            got = sol.point
            assert got.model == model and got.params is params
            for name in ("q_hat", "h_hat", "horiz_sq_hat", "d_sq_hat",
                         "v_hat", "r_hat", "gamma", "tx_powers"):
                assert np.array_equal(getattr(got, name),
                                      getattr(want, name)), name

    @pytest.mark.parametrize("status", [Status.OPTIMAL,
                                        Status.NUMERICAL_FAILURE])
    def test_rejected_step_returns_input_point(self, params, status,
                                               monkeypatch):
        # an "optimum" in the far corner makes the UE's time worse
        box = Box()
        ep = make_ep([20.0, 20.0], 60.0, [[20.0, 20.0]], params)
        monkeypatch.setattr(placement, "projected_newton", lambda *a, **k: (
            placement.NewtonRows(
                x=np.array([[box.x_max, box.y_max]]),
                objective=np.zeros(1), status=np.array([status]),
                iterations=np.zeros(1, dtype=int))))
        sol = placement.solve_horizontal(ep, ue_data_for(ep), box)
        assert not sol.accepted
        assert sol.point is ep
        assert np.array_equal(sol.position, ep.q_hat)


class TestAgainstBarrierReference:
    """The reduced projected-Newton steps against the epigraph programs
    they were derived from, solved by the log-barrier reference."""

    @pytest.mark.parametrize("model", ["rician", "los"])
    def test_random_expansion_points(self, params, model, monkeypatch):
        calls = _captured_newton(monkeypatch)
        rng = np.random.default_rng(2024 if model == "rician" else 2025)
        box = Box()
        for k in range(24):
            s = 1 + k % 20
            pos = rng.uniform(0, 100, size=(s, 2))
            q_hat = rng.uniform(0, 100, size=2)
            h_hat = float(rng.uniform(40, 80))
            bits = 10 ** rng.uniform(3, 9, size=s)
            data = (bits, 300.0 * bits, 2e9)
            ep = make_ep(q_hat, h_hat, pos, params, model=model)
            for ours, ref in ((placement.solve_horizontal,
                               sca_epigraph.horizontal),
                              (placement.solve_vertical,
                               sca_epigraph.vertical)):
                ours(ep, data, box)
                got = calls[-1]
                want, want_pos = ref(ep, data, box, params, model=model)
                assert got.status[0] is Status.OPTIMAL
                assert want.status is Status.OPTIMAL
                assert got.iterations[0] <= 15
                assert got.objective[0] <= want.objective + 1e-8
                assert np.max(np.abs(got.x[0] - want_pos)) <= 1e-3, (k, ours)


class TestDegenerateSteps:
    def _check(self, ep, box):
        data = ue_data_for(ep)
        for step in (placement.solve_horizontal, placement.solve_vertical):
            sol = step(ep, data, box)
            assert sol.accepted or sol.status in (Status.INFEASIBLE,
                                                  Status.NUMERICAL_FAILURE)
            assert np.all(np.isfinite(sol.position)) and np.isfinite(sol.mu)
            assert np.all(np.isfinite(sol.v)) and np.all(np.isfinite(sol.z))
            if step is placement.solve_horizontal:
                assert box.contains_horizontal(*sol.position, tol=0.0)
            else:
                assert box.h_min <= sol.position <= box.h_max

    @pytest.mark.parametrize("model", ["rician", "los"])
    @pytest.mark.parametrize("case", ["below", "colocated", "corner",
                                      "h_min", "h_max"])
    def test_accepted_or_safeguarded(self, params, model, case):
        box = Box()
        q_hat, h_hat = [30.0, 70.0], 60.0
        pos = [[30.0, 70.0], [80.0, 10.0]]
        if case == "colocated":
            pos = [[55.0, 45.0]] * 4
        elif case == "corner":
            q_hat = [box.x_max, box.y_min]
        elif case in ("h_min", "h_max"):
            h_hat = getattr(box, case)
        self._check(make_ep(q_hat, h_hat, pos, params, model=model), box)

    def test_ue_below_is_stationary(self, params):
        box = Box()
        ep = make_ep([40.0, 40.0], 60.0, [[40.0, 40.0]], params)
        sol = placement.solve_horizontal(ep, ue_data_for(ep), box)
        assert sol.accepted
        assert sol.position == pytest.approx([40.0, 40.0], abs=1e-12)
