"""Tests for curve-comparison metrics."""

import numpy as np
import pytest

from repro.electrochem.polarization import PolarizationCurve
from repro.errors import ConfigurationError
from repro.validation.metrics import compare_polarization


def linear_curve(ocv, slope, i_max, n=20):
    current = np.linspace(0.0, i_max, n)
    return PolarizationCurve(current, ocv - slope * current)


class TestCompare:
    def test_identical_curves_zero_error(self):
        a = linear_curve(1.3, 0.01, 50.0)
        assert compare_polarization(a, a).max_relative_error == pytest.approx(
            0.0, abs=1e-12
        )

    def test_known_offset(self):
        model = linear_curve(1.3, 0.01, 50.0)
        reference = linear_curve(1.43, 0.01, 50.0)
        comparison = compare_polarization(model, reference)
        # Constant 0.13 V offset: relative error largest where V_ref smallest.
        v_min = reference.voltage_v.min()
        assert comparison.max_relative_error == pytest.approx(0.13 / v_min, rel=1e-6)

    def test_rms_below_max(self):
        model = linear_curve(1.35, 0.011, 50.0)
        reference = linear_curve(1.3, 0.01, 50.0)
        comparison = compare_polarization(model, reference)
        assert comparison.rms_relative_error <= comparison.max_relative_error

    def test_insufficient_overlap_raises(self):
        model = linear_curve(1.3, 0.01, 5.0)  # short model curve
        reference = linear_curve(1.3, 0.01, 50.0)
        with pytest.raises(ConfigurationError):
            compare_polarization(model, reference)

    def test_wrong_limiting_current_rejected(self):
        """A model covering most points but not the reference's tail must
        not silently pass on its kinetic region alone."""
        reference = linear_curve(1.3, 0.01, 50.0, n=100)
        model = linear_curve(1.3, 0.01, 40.0)  # 80 % of range, many points
        with pytest.raises(ConfigurationError):
            compare_polarization(model, reference)


class TestFig3Acceptance:
    @pytest.mark.parametrize("flow_ul_min", [2.5, 10.0, 60.0, 300.0])
    def test_model_within_10_percent(self, flow_ul_min):
        """The paper's validation criterion, per flow rate."""
        from repro.casestudy.validation_cell import build_validation_cell
        from repro.units import ma_cm2_from_a_m2
        from repro.validation import reference_curve

        cell = build_validation_cell(flow_ul_min)
        model = cell.polarization_curve_density(60)
        model_ma = PolarizationCurve(
            ma_cm2_from_a_m2(model.current_a), model.voltage_v
        )
        error = compare_polarization(
            model_ma, reference_curve(flow_ul_min)
        ).max_relative_error
        assert error < 0.10
