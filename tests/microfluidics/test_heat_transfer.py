"""Tests for convective heat-transfer models."""

import pytest

from repro.errors import ConfigurationError
from repro.geometry.channel import RectangularChannel
from repro.materials.fluid import vanadium_electrolyte_fluid
from repro.microfluidics.heat_transfer import (
    fin_efficiency,
    heat_transfer_coefficient,
    nusselt_rectangular,
)


@pytest.fixture
def channel():
    return RectangularChannel(200e-6, 400e-6, 22e-3)


@pytest.fixture
def fluid():
    return vanadium_electrolyte_fluid()


class TestNusselt:
    def test_parallel_plate_limit(self):
        assert nusselt_rectangular(1e-9) == pytest.approx(8.235, rel=1e-3)

    def test_square_duct(self):
        assert nusselt_rectangular(1.0) == pytest.approx(3.599, rel=1e-3)

    def test_aspect_half(self):
        assert nusselt_rectangular(0.5) == pytest.approx(4.111, rel=1e-3)

    def test_monotone_decreasing(self):
        values = [nusselt_rectangular(a) for a in (0.05, 0.2, 0.5, 1.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            nusselt_rectangular(0.0)


class TestHeatTransferCoefficient:
    def test_table2_value(self, channel, fluid):
        # Nu=4.111, k=0.67, Dh=267 um -> h ~ 1.03e4 W/m2K.
        h = heat_transfer_coefficient(channel, fluid)
        assert h == pytest.approx(1.03e4, rel=0.01)

    def test_smaller_channel_higher_h(self, fluid):
        small = RectangularChannel(100e-6, 200e-6, 22e-3)
        large = RectangularChannel(200e-6, 400e-6, 22e-3)
        assert heat_transfer_coefficient(small, fluid) > heat_transfer_coefficient(
            large, fluid
        )


class TestFinEfficiency:
    def test_vanishing_fin_is_perfect(self):
        assert fin_efficiency(0.0, 100e-6, 1e4) == 1.0

    def test_table2_wall(self):
        # 100 um silicon wall, 400 um tall, h ~ 1.03e4: eta ~ 0.92.
        eta = fin_efficiency(400e-6, 100e-6, 1.03e4)
        assert eta == pytest.approx(0.92, abs=0.02)

    def test_taller_fin_less_efficient(self):
        eta_short = fin_efficiency(200e-6, 100e-6, 1e4)
        eta_tall = fin_efficiency(800e-6, 100e-6, 1e4)
        assert eta_tall < eta_short

    def test_bounded(self):
        for height in (1e-5, 1e-4, 1e-3, 1e-2):
            eta = fin_efficiency(height, 50e-6, 2e4)
            assert 0.0 < eta <= 1.0
