"""Edge-case coverage: error types, report clipping, model internals."""

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    OperatingPointError,
    ReproError,
)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for error_type in (ConfigurationError, ConvergenceError, OperatingPointError):
            assert issubclass(error_type, ReproError)

    def test_convergence_error_metadata(self):
        error = ConvergenceError("did not converge", iterations=7, residual=1e-3)
        assert error.iterations == 7
        assert error.residual == pytest.approx(1e-3)

    def test_convergence_error_defaults(self):
        error = ConvergenceError("x")
        assert error.iterations == 0
        assert np.isnan(error.residual)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise OperatingPointError("beyond the limit")


class TestThermalModelInternals:
    def test_unknown_layer_field_raises(self, thermal_model_nominal):
        with pytest.raises(ConfigurationError):
            thermal_model_nominal._field("nonexistent")

    def test_wall_field_of_solid_layer_raises(self, thermal_model_nominal):
        with pytest.raises(ConfigurationError):
            thermal_model_nominal._field("active_si", "fluid")

    def test_total_power_sums_sources(self, thermal_model_nominal):
        assert thermal_model_nominal.total_power_w() == pytest.approx(152.6, abs=1.0)

    def test_capacitance_vector_positive(self, thermal_model_nominal):
        c = thermal_model_nominal.capacitance_vector()
        assert c.shape == (thermal_model_nominal.n_dof,)
        assert np.all(c > 0.0)

    def test_inlet_temperature_property(self, thermal_model_nominal):
        assert thermal_model_nominal.inlet_temperature_k == pytest.approx(300.0)

    def test_stack_without_channels_has_no_inlet(self):
        from repro.materials.solids import SILICON
        from repro.thermal.model import ThermalModel
        from repro.thermal.stack import LayerStack, SolidLayer

        model = ThermalModel(
            LayerStack([SolidLayer("a", 1e-4, SILICON)]), 0.01, 0.01, 4, 4
        )
        with pytest.raises(ConfigurationError):
            _ = model.inlet_temperature_k


class TestSolutionAccessors:
    def test_wall_field_accessible(self, thermal_solution):
        wall = thermal_solution.field("channels", "wall")
        fluid = thermal_solution.field("channels", "fluid")
        assert wall.shape == fluid.shape
        # The walls conduct from the hot die, so on average they run at
        # least as warm as the coolant they feed.
        assert wall.mean() >= fluid.mean() - 0.5

    def test_celsius_conversion(self, thermal_solution):
        kelvin = thermal_solution.field("active_si")
        celsius = thermal_solution.field_celsius("active_si")
        assert np.allclose(kelvin - 273.15, celsius)

    def test_min_k_at_least_inlet(self, thermal_solution):
        assert thermal_solution.min_k >= 300.0 - 1e-9


class TestFloorplanPostInitValidation:
    def test_constructor_rejects_overlap(self):
        from repro.geometry.floorplan import Block, BlockKind, Floorplan

        blocks = [
            Block("a", BlockKind.CORE, 0.0, 0.0, 2e-3, 2e-3),
            Block("b", BlockKind.CORE, 1e-3, 1e-3, 2e-3, 2e-3),
        ]
        with pytest.raises(ConfigurationError):
            Floorplan(width_m=10e-3, height_m=10e-3, blocks=blocks)

    def test_constructor_rejects_outside(self):
        from repro.geometry.floorplan import Block, BlockKind, Floorplan

        blocks = [Block("a", BlockKind.CORE, 9e-3, 9e-3, 2e-3, 2e-3)]
        with pytest.raises(ConfigurationError):
            Floorplan(width_m=10e-3, height_m=10e-3, blocks=blocks)


class TestPolarizationEdgeCases:
    def test_two_point_curve(self):
        from repro.electrochem.polarization import PolarizationCurve

        curve = PolarizationCurve([0.0, 1.0], [1.5, 1.0])
        assert curve.voltage_at_current(0.5) == pytest.approx(1.25)

    def test_flat_segment_allowed(self):
        """Non-increasing (not strictly decreasing) voltage is legal."""
        from repro.electrochem.polarization import PolarizationCurve

        curve = PolarizationCurve([0.0, 1.0, 2.0], [1.5, 1.2, 1.2])
        assert curve.voltage_at_current(2.0) == pytest.approx(1.2)


class TestCaseStudyBundleLaziness:
    def test_array_cached(self, case_study):
        assert case_study.array is case_study.array
