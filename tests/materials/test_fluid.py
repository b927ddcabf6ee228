"""Tests for the Fluid property model."""

import pytest

from repro.errors import ConfigurationError
from repro.materials.fluid import Fluid, vanadium_electrolyte_fluid


class TestFluid:
    def test_accepts_plain_numbers(self):
        fluid = Fluid(1260.0, 2.53e-3, 0.67, 4.187e6)
        assert fluid.density(300.0) == 1260.0
        assert fluid.dynamic_viscosity(300.0) == 2.53e-3

    def test_rejects_nonpositive_property(self):
        with pytest.raises(ConfigurationError):
            Fluid(0.0, 2.5e-3, 0.67, 4.187e6)
        with pytest.raises(ConfigurationError):
            Fluid(1260.0, -1.0, 0.67, 4.187e6)


class TestVanadiumElectrolyteFluid:
    def test_table_values(self):
        fluid = vanadium_electrolyte_fluid()
        assert fluid.density(300.0) == pytest.approx(1260.0)
        assert fluid.dynamic_viscosity(300.0) == pytest.approx(2.53e-3)
        assert fluid.thermal_conductivity(300.0) == pytest.approx(0.67)
        assert fluid.volumetric_heat_capacity(300.0) == pytest.approx(4.187e6)

    def test_isothermal_by_default(self):
        fluid = vanadium_electrolyte_fluid()
        assert fluid.dynamic_viscosity(340.0) == fluid.dynamic_viscosity(300.0)

    def test_temperature_dependent_viscosity_falls(self):
        fluid = vanadium_electrolyte_fluid(temperature_dependent=True)
        assert fluid.dynamic_viscosity(330.0) < fluid.dynamic_viscosity(300.0)

    def test_temperature_dependent_density_falls_mildly(self):
        fluid = vanadium_electrolyte_fluid(temperature_dependent=True)
        rho_hot = fluid.density(330.0)
        assert 0.97 * 1260.0 < rho_hot < 1260.0

    def test_reference_point_preserved(self):
        fluid = vanadium_electrolyte_fluid(temperature_dependent=True)
        assert fluid.dynamic_viscosity(300.0) == pytest.approx(2.53e-3)
