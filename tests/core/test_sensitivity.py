"""Tests for the sensitivity-analysis utilities."""

import pytest

from repro.core.sensitivity import one_at_a_time
from repro.errors import ConfigurationError


class TestOneAtATime:
    def test_linear_function_has_unit_elasticity(self):
        result = one_at_a_time(lambda s: 5.0 * s, "p", "out")
        assert result.elasticity == pytest.approx(1.0, abs=1e-9)

    def test_inverse_function(self):
        result = one_at_a_time(lambda s: 2.0 / s, "p", "out")
        assert result.elasticity == pytest.approx(-1.0, abs=1e-9)

    def test_power_law(self):
        result = one_at_a_time(lambda s: s**0.4, "p", "out")
        assert result.elasticity == pytest.approx(0.4, abs=1e-9)

    def test_constant_function(self):
        result = one_at_a_time(lambda s: 3.0, "p", "out")
        assert result.elasticity == pytest.approx(0.0, abs=1e-12)

    def test_records_endpoint_values(self):
        result = one_at_a_time(lambda s: 10.0 * s, "p", "out", relative_step=0.1)
        assert result.low_value == pytest.approx(9.0)
        assert result.high_value == pytest.approx(11.0)

    def test_rejects_nonpositive_outputs(self):
        with pytest.raises(ConfigurationError):
            one_at_a_time(lambda s: s - 1.0, "p", "out")

    def test_rejects_bad_step(self):
        with pytest.raises(ConfigurationError):
            one_at_a_time(lambda s: s, "p", "out", relative_step=1.5)


class TestCaseStudyEvaluators:
    def test_pumping_inverse_in_permeability(self):
        from repro.core.sensitivity import _pumping_power_with

        assert _pumping_power_with(2.0) == pytest.approx(
            _pumping_power_with(1.0) / 2.0, rel=1e-9
        )

    def test_current_grows_with_surface(self):
        from repro.core.sensitivity import _array_current_with

        assert _array_current_with(scale_surface=1.3) > _array_current_with(
            scale_surface=0.7
        )

    def test_peak_rise_falls_with_enhancement(self):
        from repro.core.sensitivity import _peak_temperature_with

        assert _peak_temperature_with(1.5) < _peak_temperature_with(0.7)

    def test_nominal_peak_rise_is_the_case_study_stack(self):
        """At the nominal enhancement the stack is the case study's own
        (``build_thermal_stack``), so the rise is its full-load peak's."""
        from repro.casestudy.power7plus import build_thermal_model
        from repro.core.sensitivity import _peak_temperature_with

        fresh = build_thermal_model(nx=44, ny=22, total_flow_ml_min=676.0)
        assert _peak_temperature_with(1.0) == (
            fresh.solve_steady().peak_k - 300.0
        )

    def test_pdn_drop_grows_with_impedance(self):
        from repro.core.sensitivity import _pdn_drop_with

        assert _pdn_drop_with(1.5) > _pdn_drop_with(0.7)
