import numpy as np
import pytest

from uavmec import placement
from uavmec.channel import ChannelParams
from uavmec.scenario import FleetConfig, generate


@pytest.fixture
def params():
    return ChannelParams()


@pytest.fixture
def small_scenario():
    return generate(7, 6, FleetConfig(num_uavs=2))


@pytest.fixture
def flipped_bounds(monkeypatch):
    """Negate the rate-bound coefficients of both placement steps, so the
    bounds overshoot the true rate and the domination sampler must say so."""
    psi = placement.psi_coefficients
    monkeypatch.setattr(placement, "psi_coefficients",
                        lambda ep, params: tuple(-c for c in psi(ep, params)))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
