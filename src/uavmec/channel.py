"""Air-to-ground channel model: the outage rate and its pure-LoS baseline.

All functions are pure and accept scalars or numpy arrays (broadcasting).
Units are SI throughout: meters, watts, bits/s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelParams:
    """Link-budget and logistic-rate constants.

    ``pathloss_exp = 2.0`` is a placeholder: the exponent is not pinned by
    our parameter set.
    """

    bandwidth_hz: float = 1e7
    ref_gain: float = 1e-3            # channel power gain at d = 1 m, linear
    pathloss_exp: float = 2.0
    noise_w: float = 1e-9
    snr_gap: float = 10.0 ** 0.82     # 8.2 dB, linear
    k1: float = 0.01
    k2: float = 0.99
    k3: float = -4.7
    k4: float = 8.9

    def __post_init__(self):
        if not self.bandwidth_hz > 0:
            raise ValueError("bandwidth_hz must be > 0")
        if not self.ref_gain > 0:
            raise ValueError("ref_gain must be > 0")
        if not self.noise_w > 0:
            raise ValueError("noise_w must be > 0")
        if not self.snr_gap >= 1:
            raise ValueError("snr_gap must be >= 1 (linear)")
        if not self.pathloss_exp >= 2:
            raise ValueError("pathloss_exp must be >= 2")
        if not (self.k1 > 0 and self.k2 > 0):
            raise ValueError("k1 and k2 must be > 0")
        if abs(self.k1 + self.k2 - 1.0) > 1e-12:
            raise ValueError("k1 + k2 must equal 1 within 1e-12")
        if not self.k3 < 0:
            raise ValueError("k3 must be < 0")
        if not self.k4 > 0:
            raise ValueError("k4 must be > 0")

    def gamma(self, tx_power_w):
        """Reference SNR: p * beta0 / (sigma^2 * Gamma)."""
        return tx_power_w * self.ref_gain / (self.noise_w * self.snr_gap)


def _logistic_factor(v, params: ChannelParams):
    return params.k1 + params.k2 / (1.0 + np.exp(-(params.k3 + params.k4 * v)))


def _link_rate(horiz_dist_sq, h, v, tx_power_w, params: ChannelParams):
    """Shannon rate of the link budget shared by both models: the angle
    factor at elevation sine v, or 1.0 (pure line of sight) for v=None."""
    arrays = {}
    for name, value in (("horiz_dist_sq", horiz_dist_sq), ("h", h), ("v", v),
                        ("tx_power_w", tx_power_w)):
        if value is not None:
            arrays[name] = np.asarray(value, dtype=float)
            if not np.all(np.isfinite(arrays[name])):
                raise ValueError(f"non-finite {name}")
    factor = 1.0 if v is None else _logistic_factor(arrays["v"], params)
    dist_sq = arrays["horiz_dist_sq"] + arrays["h"] ** 2
    snr = factor * params.gamma(arrays["tx_power_w"]) \
        / dist_sq ** (params.pathloss_exp / 2.0)
    return params.bandwidth_hz * np.log2(1.0 + snr)


def outage_rate(horiz_dist_sq, h, v, tx_power_w, params: ChannelParams):
    """Outage-constrained uplink rate in bits/s at the given geometry.

    horiz_dist_sq is the squared horizontal UE-UAV distance (m^2), h the
    altitude, v the elevation sine in (0, 1].
    """
    return _link_rate(horiz_dist_sq, h, v, tx_power_w, params)


def los_rate(horiz_dist_sq, h, tx_power_w, params: ChannelParams):
    """Idealized pure line-of-sight rate: the angle-dependent factor set to 1."""
    return _link_rate(horiz_dist_sq, h, None, tx_power_w, params)


def rate(horiz_dist_sq, h, tx_power_w, params: ChannelParams, model):
    """Uplink rate in bits/s under ``model``: 'rician' is the outage rate at
    the exact elevation sine, 'los' the pure line-of-sight rate."""
    if model == "rician":
        v = h / np.sqrt(horiz_dist_sq + h ** 2)
        return outage_rate(horiz_dist_sq, h, v, tx_power_w, params)
    if model == "los":
        return los_rate(horiz_dist_sq, h, tx_power_w, params)
    raise ValueError(f"unknown channel model '{model}'")
