"""Tests for the PolarizationCurve container."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.electrochem.polarization import PolarizationCurve


@pytest.fixture
def curve():
    current = np.linspace(0.0, 50.0, 26)
    voltage = 1.65 - 0.02 * current - 1e-4 * current**2
    return PolarizationCurve(current, voltage, label="test")


class TestConstruction:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            PolarizationCurve([0.0, 1.0], [1.0])

    def test_rejects_non_monotonic_current(self):
        with pytest.raises(ConfigurationError):
            PolarizationCurve([0.0, 2.0, 1.0], [1.5, 1.0, 0.5])

    def test_rejects_increasing_voltage(self):
        with pytest.raises(ConfigurationError):
            PolarizationCurve([0.0, 1.0, 2.0], [1.0, 1.2, 0.9])

    def test_rejects_single_point(self):
        with pytest.raises(ConfigurationError):
            PolarizationCurve([0.0], [1.0])

    def test_rejects_negative_start(self):
        with pytest.raises(ConfigurationError):
            PolarizationCurve([-1.0, 1.0], [1.5, 1.0])


class TestScalars:
    def test_ocv(self, curve):
        assert curve.open_circuit_voltage_v == pytest.approx(1.65)

    def test_max_current(self, curve):
        assert curve.max_current_a == pytest.approx(50.0)

    def test_power_curve(self, curve):
        assert curve.power_w[0] == 0.0
        assert curve.max_power_w > 0.0

    def test_max_power_consistency(self, curve):
        k = int(np.argmax(curve.power_w))
        assert curve.current_at_max_power_a == pytest.approx(curve.current_a[k])


class TestInterpolation:
    def test_voltage_at_sampled_point(self, curve):
        assert curve.voltage_at_current(0.0) == pytest.approx(1.65)

    def test_current_at_voltage_roundtrip(self, curve):
        v = curve.voltage_at_current(20.0)
        assert curve.current_at_voltage(v) == pytest.approx(20.0, rel=1e-9)

    def test_power_at_voltage(self, curve):
        v = curve.voltage_at_current(10.0)
        assert curve.power_at_voltage(v) == pytest.approx(10.0 * v, rel=1e-9)

    def test_out_of_range_raises(self, curve):
        with pytest.raises(ConfigurationError):
            curve.voltage_at_current(51.0)
        with pytest.raises(ConfigurationError):
            curve.current_at_voltage(1.7)


class TestTransforms:
    def test_scaling_to_array(self, curve):
        array_curve = curve.scaled(88.0)
        assert array_curve.max_current_a == pytest.approx(88.0 * 50.0)
        assert array_curve.open_circuit_voltage_v == curve.open_circuit_voltage_v

    def test_parallel_scaling_preserves_voltage_at_scaled_current(self, curve):
        array_curve = curve.scaled(88.0)
        assert array_curve.voltage_at_current(88.0 * 20.0) == pytest.approx(
            curve.voltage_at_current(20.0)
        )

    def test_scale_must_be_positive(self, curve):
        with pytest.raises(ConfigurationError):
            curve.scaled(0.0)
