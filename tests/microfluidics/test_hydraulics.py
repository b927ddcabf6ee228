"""Tests for pressure drop and pumping power."""

import pytest

from repro.errors import ConfigurationError
from repro.geometry.channel import RectangularChannel
from repro.materials.fluid import vanadium_electrolyte_fluid
from repro.microfluidics.hydraulics import (
    darcy_pressure_drop,
    pumping_power,
)


@pytest.fixture
def channel():
    return RectangularChannel(200e-6, 400e-6, 22e-3)


@pytest.fixture
def fluid():
    return vanadium_electrolyte_fluid()


class TestDarcy:
    def test_linearity(self, channel, fluid):
        dp1 = darcy_pressure_drop(channel, fluid, 1e-7, 5e-10)
        dp2 = darcy_pressure_drop(channel, fluid, 2e-7, 5e-10)
        assert dp2 == pytest.approx(2.0 * dp1)

    def test_inverse_in_permeability(self, channel, fluid):
        dp1 = darcy_pressure_drop(channel, fluid, 1e-7, 5e-10)
        dp2 = darcy_pressure_drop(channel, fluid, 1e-7, 1e-9)
        assert dp1 == pytest.approx(2.0 * dp2)

    def test_calibrated_permeability_hits_pumping_anchor(self, channel, fluid):
        """K = 4.56e-10 reproduces the paper's 4.4 W pumping power."""
        total_q = 676e-6 / 60.0
        dp = darcy_pressure_drop(channel, fluid, total_q / 88, 4.56e-10)
        assert pumping_power(dp, total_q, 0.5) == pytest.approx(4.4, rel=0.02)

    def test_rejects_bad_permeability(self, channel, fluid):
        with pytest.raises(ConfigurationError):
            darcy_pressure_drop(channel, fluid, 1e-7, 0.0)


class TestPumpingPower:
    def test_bernoulli_formula(self):
        assert pumping_power(1e5, 1e-5, 0.5) == pytest.approx(2.0)

    def test_ideal_pump(self):
        assert pumping_power(1e5, 1e-5, 1.0) == pytest.approx(1.0)

    def test_rejects_bad_efficiency(self):
        for eta in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigurationError):
                pumping_power(1e5, 1e-5, eta)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ConfigurationError):
            pumping_power(-1.0, 1e-5)
