"""Tests for the film model and the co-laminar ohmic resistance."""

import pytest

from repro.constants import FARADAY
from repro.errors import OperatingPointError
from repro.electrochem.losses import (
    film_surface_concentrations,
    ohmic_resistance_colaminar,
)
from repro.geometry.channel import RectangularChannel
from repro.materials.electrolyte import Electrolyte
from repro.materials.fluid import vanadium_electrolyte_fluid
from repro.materials.species import vanadium_negative_couple


class TestFilmModel:
    def test_zero_current_keeps_bulk(self):
        consumed, produced = film_surface_concentrations(0.0, 500.0, 100.0, 1e-5, 1)
        assert consumed == 500.0 and produced == 100.0

    def test_flux_balance(self):
        j = 100.0
        k_m = 1e-5
        consumed, produced = film_surface_concentrations(j, 500.0, 100.0, k_m, 1)
        depletion = j / (FARADAY * k_m)
        assert consumed == pytest.approx(500.0 - depletion)
        assert produced == pytest.approx(100.0 + depletion)

    def test_limit_raises(self):
        j_lim = FARADAY * 1e-5 * 500.0
        with pytest.raises(OperatingPointError):
            film_surface_concentrations(1.01 * j_lim, 500.0, 100.0, 1e-5, 1)

    def test_exactly_at_limit_is_zero_surface(self):
        j_lim = FARADAY * 1e-5 * 500.0
        consumed, _ = film_surface_concentrations(j_lim, 500.0, 100.0, 1e-5, 1)
        assert consumed == pytest.approx(0.0, abs=1e-9)


class TestOhmicResistance:
    @pytest.fixture
    def electrolytes(self):
        fluid = vanadium_electrolyte_fluid()
        couple = vanadium_negative_couple()
        a = Electrolyte(fluid, couple, 80.0, 920.0, ionic_conductivity=30.0)
        c = Electrolyte(fluid, couple, 992.0, 8.0, ionic_conductivity=30.0)
        return a, c

    def test_geometry_formula(self, electrolytes):
        channel = RectangularChannel(200e-6, 400e-6, 22e-3)
        a, c = electrolytes
        r = ohmic_resistance_colaminar(channel, a, c)
        expected = 2 * (100e-6) / (30.0 * 8.8e-6)
        assert r == pytest.approx(expected)

    def test_electronic_term_adds(self, electrolytes):
        channel = RectangularChannel(200e-6, 400e-6, 22e-3)
        a, c = electrolytes
        base = ohmic_resistance_colaminar(channel, a, c)
        with_contact = ohmic_resistance_colaminar(
            channel, a, c, electronic_resistance_ohm=1.5
        )
        assert with_contact == pytest.approx(base + 1.5)

    def test_wider_gap_more_resistance(self, electrolytes):
        a, c = electrolytes
        narrow = RectangularChannel(100e-6, 400e-6, 22e-3)
        wide = RectangularChannel(400e-6, 400e-6, 22e-3)
        assert ohmic_resistance_colaminar(wide, a, c) > ohmic_resistance_colaminar(
            narrow, a, c
        )
