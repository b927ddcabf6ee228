"""Tests for flow characterisation."""

import numpy as np
import pytest

from repro.geometry.channel import RectangularChannel
from repro.materials.fluid import vanadium_electrolyte_fluid
from repro.microfluidics.flow import (
    cross_channel_velocity_profile,
    reynolds_number,
)


@pytest.fixture
def channel():
    return RectangularChannel(200e-6, 400e-6, 22e-3)


@pytest.fixture
def fluid():
    return vanadium_electrolyte_fluid()


class TestReynolds:
    def test_table2_regime(self, channel, fluid):
        # 1.6 m/s in a 267 um channel of the viscous electrolyte:
        # Re = 1260*1.6*2.67e-4/2.53e-3 ~ 212 — deeply laminar.
        q = 676e-6 / 60.0 / 88
        re = reynolds_number(channel, fluid, q)
        assert re == pytest.approx(212, rel=0.02)

    def test_scales_linearly_with_flow(self, channel, fluid):
        re1 = reynolds_number(channel, fluid, 1e-7)
        re2 = reynolds_number(channel, fluid, 2e-7)
        assert re2 == pytest.approx(2.0 * re1)


class TestCrossChannelProfile:
    def test_narrow_channel_is_parabolic(self, channel):
        # w < h: parabola with 1.5x peak at centre.
        u = cross_channel_velocity_profile(channel, 1.0, 257)
        assert u.max() == pytest.approx(1.5, rel=1e-3)
        assert u.mean() == pytest.approx(1.0, rel=1e-9)

    def test_wide_channel_is_plug_like(self):
        wide = RectangularChannel(2e-3, 150e-6, 33e-3)
        u = cross_channel_velocity_profile(wide, 1.0, 400)
        # Hele-Shaw: core plateau close to the mean.
        assert u.max() < 1.1
        assert u.mean() == pytest.approx(1.0, rel=1e-9)

    def test_wide_channel_wall_shear_matches_leveque(self):
        wide = RectangularChannel(2e-3, 150e-6, 33e-3)
        n = 2000
        u = cross_channel_velocity_profile(wide, 1.0, n)
        dy = wide.width_m / n
        wall_shear = u[0] / (dy / 2.0)
        # Target: 6*v/h within the ramp approximation (~10 %).
        assert wall_shear == pytest.approx(6.0 / 150e-6, rel=0.1)

    def test_symmetry(self, channel):
        u = cross_channel_velocity_profile(channel, 1.0, 64)
        assert np.allclose(u, u[::-1])

