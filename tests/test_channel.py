"""Channel model: reference SNR, the outage/LoS rates, and the rate-model
choice.

Reference values are recomputed in-test with the math module (scalar,
no numpy) so they cannot share bugs with the vectorized implementation.
"""

import math

import numpy as np
import pytest

from uavmec import channel
from uavmec.channel import ChannelParams


def scalar_outage_rate(horiz_sq, h, v, p, params):
    """Independent scalar reimplementation of the rate model."""
    gamma = p * params.ref_gain / (params.noise_w * params.snr_gap)
    factor = params.k1 + params.k2 / (1.0 + math.exp(-(params.k3 + params.k4 * v)))
    d_sq = horiz_sq + h * h
    snr = factor * gamma / d_sq ** (params.pathloss_exp / 2.0)
    return params.bandwidth_hz * math.log2(1.0 + snr)


class TestParams:
    def test_defaults(self, params):
        assert params.bandwidth_hz == 1e7
        assert params.ref_gain == 1e-3
        assert params.noise_w == 1e-9
        assert params.snr_gap == pytest.approx(10.0 ** 0.82, rel=1e-15)
        assert (params.k1, params.k2) == (0.01, 0.99)
        assert (params.k3, params.k4) == (-4.7, 8.9)
        assert params.pathloss_exp == 2.0

    def test_gamma_reference_snr(self, params):
        # 0.1 W * 1e-3 / (1e-9 * 10^0.82)
        assert params.gamma(0.1) == pytest.approx(15135.612484362084, rel=1e-12)

    def test_gamma_linear_in_power(self, params):
        assert params.gamma(0.2) == pytest.approx(2 * params.gamma(0.1))

    @pytest.mark.parametrize("kwargs", [
        dict(k1=0.02),                       # k1 + k2 != 1
        dict(k1=-0.01, k2=1.01),
        dict(k3=4.7),
        dict(k4=-8.9),
        dict(snr_gap=0.5),
        dict(pathloss_exp=1.5),
        dict(bandwidth_hz=0.0),
        dict(noise_w=0.0),
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChannelParams(**kwargs)


class TestOutageRate:
    def test_overhead_value(self, params):
        # horiz 0, h = 40, v = 1, p = 0.1 W
        got = channel.outage_rate(0.0, 40.0, 1.0, 0.1, params)
        assert got == pytest.approx(33675662.955950975, rel=1e-9)

    def test_offset_value(self, params):
        # horiz 30, h = 40 (d = 50), v = 0.8
        got = channel.outage_rate(900.0, 40.0, 0.8, 0.1, params)
        assert got == pytest.approx(27147505.567153055, rel=1e-9)

    def test_matches_scalar_reimplementation(self, params, rng):
        for _ in range(100):
            hsq = rng.uniform(0.0, 2e4)
            h = rng.uniform(40.0, 80.0)
            v = h / math.sqrt(hsq + h * h)
            got = float(channel.outage_rate(hsq, h, v, 0.1, params))
            ref = scalar_outage_rate(hsq, h, v, 0.1, params)
            assert got == pytest.approx(ref, rel=1e-12)

    def test_decreases_with_distance(self, params):
        # along the true geometry (v recomputed from the position)
        hsq = np.linspace(0.0, 2e4, 50)
        h = 60.0
        v = h / np.sqrt(hsq + h ** 2)
        r = channel.outage_rate(hsq, h, v, 0.1, params)
        assert np.all(np.diff(r) < 0)

    def test_increases_with_elevation_sine(self, params):
        v = np.linspace(0.1, 1.0, 50)
        r = channel.outage_rate(900.0, 40.0, v, 0.1, params)
        assert np.all(np.diff(r) > 0)

    def test_increases_with_power(self, params):
        r1 = channel.outage_rate(900.0, 40.0, 0.8, 0.1, params)
        r2 = channel.outage_rate(900.0, 40.0, 0.8, 0.2, params)
        assert r2 > r1

    def test_broadcasting_matches_loop(self, params, rng):
        hsq = rng.uniform(0, 1e4, size=5)
        h = rng.uniform(40, 80, size=5)
        v = h / np.sqrt(hsq + h ** 2)
        batch = channel.outage_rate(hsq, h, v, 0.1, params)
        for k in range(5):
            assert batch[k] == pytest.approx(
                float(channel.outage_rate(hsq[k], h[k], v[k], 0.1, params)))

    def test_non_finite_rejected(self, params):
        with pytest.raises(ValueError):
            channel.outage_rate(np.nan, 40.0, 0.8, 0.1, params)
        with pytest.raises(ValueError):
            channel.outage_rate(900.0, np.inf, 0.8, 0.1, params)


class TestLosRate:
    def test_overhead_value(self, params):
        got = channel.los_rate(0.0, 40.0, 0.1, params)
        assert got == pytest.approx(33867775.41037126, rel=1e-9)

    def test_upper_bounds_outage_rate(self, params, rng):
        # the angle factor is < 1, so the LoS rate dominates everywhere
        for _ in range(200):
            hsq = rng.uniform(0.0, 2e4)
            h = rng.uniform(40.0, 80.0)
            v = rng.uniform(1e-3, 1.0)
            assert float(channel.los_rate(hsq, h, 0.1, params)) \
                >= float(channel.outage_rate(hsq, h, v, 0.1, params))

    def test_non_finite_rejected(self, params):
        with pytest.raises(ValueError):
            channel.los_rate(np.nan, 40.0, 0.1, params)


class TestRate:
    def test_rician_is_outage_rate_at_exact_sine(self, params, rng):
        # horiz 30, h = 40: sine 0.8, the hand value of TestOutageRate
        assert channel.rate(900.0, 40.0, 0.1, params, "rician") == \
            pytest.approx(27147505.567153055, rel=1e-9)
        hsq = rng.uniform(0.0, 2e4, size=20)
        h = rng.uniform(40.0, 80.0, size=20)
        got = channel.rate(hsq, h, 0.1, params, "rician")
        for k in range(20):
            v = h[k] / math.sqrt(hsq[k] + h[k] * h[k])
            assert got[k] == pytest.approx(
                scalar_outage_rate(hsq[k], h[k], v, 0.1, params), rel=1e-12)

    def test_los_is_los_rate(self, params, rng):
        hsq = rng.uniform(0.0, 2e4, size=20)
        h = rng.uniform(40.0, 80.0, size=20)
        np.testing.assert_array_equal(channel.rate(hsq, h, 0.1, params, "los"),
                                      channel.los_rate(hsq, h, 0.1, params))

    @pytest.mark.parametrize("model", ["Rician", "LoS", "", None])
    def test_unknown_model_rejected(self, params, model):
        with pytest.raises(ValueError, match="unknown channel model"):
            channel.rate(900.0, 40.0, 0.1, params, model)
