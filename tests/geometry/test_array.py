"""Tests for channel array layout."""

import pytest

from repro.errors import ConfigurationError
from repro.geometry.array import ChannelArray
from repro.geometry.channel import RectangularChannel


@pytest.fixture
def table2_array():
    channel = RectangularChannel(200e-6, 400e-6, 22e-3)
    return ChannelArray(channel, 88, 300e-6, flow_axis="y")


class TestLayout:
    def test_wall_width(self, table2_array):
        assert table2_array.wall_width_m == pytest.approx(100e-6)

    def test_coverage_fraction(self, table2_array):
        coverage = table2_array.coverage_fraction(26.55e-3)
        assert coverage == pytest.approx(88 * 200e-6 / 26.55e-3)
        assert 0.6 < coverage < 0.7


class TestFlowSplit:
    def test_per_channel_flow(self, table2_array):
        total = 676e-6 / 60.0
        assert table2_array.per_channel_flow(total) == pytest.approx(total / 88)

    def test_mean_velocity_paper_scale(self, table2_array):
        # The paper quotes ~1.4 m/s average; the open-area value is 1.6.
        velocity = table2_array.mean_velocity(676e-6 / 60.0)
        assert velocity == pytest.approx(1.6, rel=0.01)

    def test_negative_flow_rejected(self, table2_array):
        with pytest.raises(ConfigurationError):
            table2_array.per_channel_flow(-1.0)


class TestValidation:
    def test_rejects_overlapping_channels(self):
        channel = RectangularChannel(200e-6, 400e-6, 22e-3)
        with pytest.raises(ConfigurationError):
            ChannelArray(channel, 88, pitch_m=150e-6)

    def test_rejects_zero_count(self):
        channel = RectangularChannel(200e-6, 400e-6, 22e-3)
        with pytest.raises(ConfigurationError):
            ChannelArray(channel, 0, 300e-6)

    def test_rejects_bad_axis(self):
        channel = RectangularChannel(200e-6, 400e-6, 22e-3)
        with pytest.raises(ConfigurationError):
            ChannelArray(channel, 88, 300e-6, flow_axis="z")

    def test_layout_count_must_match(self):
        from repro.flowcell.array import FlowCellArray
        from repro.electrochem.polarization import PolarizationCurve

        channel = RectangularChannel(200e-6, 400e-6, 22e-3)
        layout = ChannelArray(channel, 44, 300e-6)
        curve = PolarizationCurve([0.0, 1.0], [1.5, 1.0])
        with pytest.raises(ConfigurationError):
            FlowCellArray(curve, 88, layout=layout)
