"""Tests for Nernst equilibrium potentials."""

import math

import pytest

from repro.constants import FARADAY, GAS_CONSTANT
from repro.errors import ConfigurationError
from repro.electrochem.nernst import (
    equilibrium_potential,
    open_circuit_voltage,
)
from repro.materials.species import (
    vanadium_negative_couple,
    vanadium_positive_couple,
)


@pytest.fixture
def neg():
    return vanadium_negative_couple()


@pytest.fixture
def pos():
    return vanadium_positive_couple()


class TestEquilibriumPotential:
    def test_equal_concentrations_give_standard_potential(self, neg):
        assert equilibrium_potential(neg, 100.0, 100.0) == pytest.approx(-0.255)

    def test_nernst_slope(self, pos):
        # A factor e in concentration ratio shifts E by RT/F.
        e1 = equilibrium_potential(pos, 100.0, 100.0, 300.0)
        e2 = equilibrium_potential(pos, 100.0 * math.e, 100.0, 300.0)
        assert e2 - e1 == pytest.approx(GAS_CONSTANT * 300.0 / FARADAY)

    def test_table1_anode_value(self, neg):
        # E = -0.255 + RT/F ln(80/920) = -0.318 V.
        e = equilibrium_potential(neg, 80.0, 920.0, 300.0)
        assert e == pytest.approx(-0.318, abs=2e-3)

    def test_table1_cathode_value(self, pos):
        e = equilibrium_potential(pos, 992.0, 8.0, 300.0)
        assert e == pytest.approx(1.1157, abs=2e-3)

    def test_depleted_species_stays_finite(self, neg):
        e = equilibrium_potential(neg, 0.0, 1000.0)
        assert math.isfinite(e)

    def test_rejects_negative_concentration(self, neg):
        with pytest.raises(ConfigurationError):
            equilibrium_potential(neg, -1.0, 10.0)

    def test_rejects_bad_temperature(self, neg):
        with pytest.raises(ConfigurationError):
            equilibrium_potential(neg, 10.0, 10.0, temperature_k=0.0)


class TestCellVoltages:

    def test_table1_ocv(self, neg, pos):
        # Charged Kjeang electrolytes: Nernst OCV ~1.43 V.
        u = open_circuit_voltage(pos, 992.0, 8.0, neg, 80.0, 920.0, 300.0)
        assert u == pytest.approx(1.434, abs=3e-3)

    def test_table2_ocv_matches_fig7_start(self):
        # 2000:1 charged states with E0_pos = 1.0: OCV ~1.65 V, where the
        # Fig. 7 curve begins.
        neg = vanadium_negative_couple()
        pos = vanadium_positive_couple(standard_potential_v=1.0)
        u = open_circuit_voltage(pos, 2000.0, 1.0, neg, 1.0, 2000.0, 300.0)
        assert u == pytest.approx(1.648, abs=3e-3)

    def test_discharge_reduces_ocv(self, neg, pos):
        charged = open_circuit_voltage(pos, 1800, 200, neg, 200, 1800)
        discharged = open_circuit_voltage(pos, 200, 1800, neg, 1800, 200)
        assert charged > discharged
