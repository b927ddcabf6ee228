"""Tests for the Electrolyte model."""

import pytest

from repro.constants import FARADAY
from repro.errors import ConfigurationError
from repro.materials.electrolyte import (
    Electrolyte,
    default_conductivity_model,
)
from repro.materials.fluid import vanadium_electrolyte_fluid
from repro.materials.species import vanadium_negative_couple


@pytest.fixture
def fuel():
    return Electrolyte(
        vanadium_electrolyte_fluid(),
        vanadium_negative_couple(),
        conc_ox=80.0,
        conc_red=920.0,
    )


class TestElectrolyte:
    def test_total_vanadium_conserved_quantity(self, fuel):
        assert fuel.total_vanadium == pytest.approx(1000.0)

    def test_charge_capacity(self, fuel):
        expected = 1 * FARADAY * 920.0
        assert fuel.charge_capacity_per_volume(as_fuel=True) == pytest.approx(expected)

    def test_with_concentrations_copies(self, fuel):
        depleted = fuel.with_concentrations(500.0, 500.0)
        assert depleted.conc_ox == 500.0
        assert fuel.conc_ox == 80.0  # original untouched
        assert depleted.couple is fuel.couple

    def test_rejects_negative_concentration(self, fuel):
        with pytest.raises(ConfigurationError):
            fuel.with_concentrations(-1.0, 10.0)

    def test_rejects_fully_empty(self):
        with pytest.raises(ConfigurationError):
            Electrolyte(
                vanadium_electrolyte_fluid(), vanadium_negative_couple(), 0.0, 0.0
            )

    def test_default_conductivity_positive(self, fuel):
        assert fuel.ionic_conductivity(300.0) > 0.0


class TestConductivityModel:
    def test_isothermal_default(self):
        model = default_conductivity_model()
        assert model == pytest.approx(30.0)

    def test_temperature_dependent_rises(self):
        model = default_conductivity_model(temperature_dependent=True)
        assert model(330.0) > model(300.0)
        assert model(300.0) == pytest.approx(30.0)
