"""Tests for the flow-cell array electrical model."""

import numpy as np
import pytest

from repro.electrochem.polarization import PolarizationCurve
from repro.flowcell.array import FlowCellArray


@pytest.fixture
def channel_curve():
    current = np.linspace(0.0, 0.6, 31)
    voltage = 1.65 - 1.0 * current - 0.3 * current**2
    return PolarizationCurve(current, voltage)


@pytest.fixture
def array(channel_curve):
    return FlowCellArray(channel_curve, 88)


class TestParallelScaling:
    def test_current_scales_with_count(self, channel_curve):
        single = FlowCellArray(channel_curve, 1)
        many = FlowCellArray(channel_curve, 88)
        assert many.current_at_voltage(1.0) == pytest.approx(
            88.0 * single.current_at_voltage(1.0)
        )

    def test_ocv_unchanged(self, array, channel_curve):
        assert array.open_circuit_voltage_v == channel_curve.open_circuit_voltage_v

    def test_power_scales(self, channel_curve):
        single = FlowCellArray(channel_curve, 1)
        many = FlowCellArray(channel_curve, 88)
        assert many.max_power_w == pytest.approx(88.0 * single.max_power_w)


class TestHeterogeneousCombination:
    def test_identical_channels_match_scaling(self, channel_curve):
        total = FlowCellArray.combine_at_voltage([channel_curve] * 88, 1.0)
        assert total == pytest.approx(88.0 * channel_curve.current_at_voltage(1.0))

    def test_cold_channel_contributes_nothing_above_its_ocv(self, channel_curve):
        weak = PolarizationCurve([0.0, 0.5], [0.9, 0.4])
        total = FlowCellArray.combine_at_voltage([channel_curve, weak], 1.0)
        assert total == pytest.approx(channel_curve.current_at_voltage(1.0))

    def test_below_everyones_range_clamps(self, channel_curve):
        """Below a channel's sampled window it contributes its max current."""
        v_floor = float(channel_curve.voltage_v[-1])
        total = FlowCellArray.combine_at_voltage([channel_curve], v_floor / 2.0)
        assert total == pytest.approx(channel_curve.max_current_a)
