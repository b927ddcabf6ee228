"""Tests for rectangular channel geometry."""

import pytest

from repro.errors import ConfigurationError
from repro.geometry.channel import RectangularChannel


@pytest.fixture
def table2_channel():
    """The POWER7+ array channel: 200 um x 400 um x 22 mm."""
    return RectangularChannel(200e-6, 400e-6, 22e-3)


@pytest.fixture
def table1_channel():
    """The validation cell channel: 2 mm x 150 um x 33 mm."""
    return RectangularChannel(2e-3, 150e-6, 33e-3)


class TestCrossSection:
    def test_area(self, table2_channel):
        assert table2_channel.cross_section_area_m2 == pytest.approx(8e-8)

    def test_wetted_perimeter(self, table2_channel):
        assert table2_channel.wetted_perimeter_m == pytest.approx(1.2e-3)

    def test_hydraulic_diameter(self, table2_channel):
        # 2wh/(w+h) = 2*200*400/600 um.
        assert table2_channel.hydraulic_diameter_m == pytest.approx(266.67e-6, rel=1e-3)

    def test_square_duct_hydraulic_diameter_equals_side(self):
        square = RectangularChannel(1e-4, 1e-4, 1e-2)
        assert square.hydraulic_diameter_m == pytest.approx(1e-4)

    def test_aspect_ratio_is_min_over_max(self, table2_channel, table1_channel):
        assert table2_channel.aspect_ratio == pytest.approx(0.5)
        assert table1_channel.aspect_ratio == pytest.approx(0.075)


class TestElectrodeGeometry:
    def test_electrode_area(self, table2_channel):
        # h * L = 400 um * 22 mm.
        assert table2_channel.electrode_area_m2 == pytest.approx(8.8e-6)

    def test_total_array_electrode_area_matches_paper_scale(self, table2_channel):
        # 88 channels -> 7.74 cm2; at 6 A that is the ~0.78 A/cm2 the
        # paper's power-density discussion implies.
        total_cm2 = 88 * table2_channel.electrode_area_m2 * 1e4
        assert total_cm2 == pytest.approx(7.744, rel=1e-3)

    def test_gap_equals_width(self, table2_channel):
        assert table2_channel.inter_electrode_gap_m == table2_channel.width_m


class TestKinematics:
    def test_mean_velocity_table2(self, table2_channel):
        # 676 ml/min / 88 channels -> 1.6 m/s.
        q = 676e-6 / 60.0 / 88
        assert table2_channel.mean_velocity(q) == pytest.approx(1.6, rel=1e-2)

    def test_zero_flow(self, table2_channel):
        assert table2_channel.mean_velocity(0.0) == 0.0

    def test_negative_flow_rejected(self, table2_channel):
        with pytest.raises(ConfigurationError):
            table2_channel.mean_velocity(-1e-9)


class TestValidation:
    @pytest.mark.parametrize("dims", [(0, 1e-4, 1e-2), (1e-4, -1, 1e-2), (1e-4, 1e-4, 0)])
    def test_rejects_nonpositive_dimensions(self, dims):
        with pytest.raises(ConfigurationError):
            RectangularChannel(*dims)
