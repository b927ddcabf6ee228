"""Tests for Butler-Volmer kinetics."""

import math

import pytest

from repro.constants import FARADAY, GAS_CONSTANT
from repro.errors import ConfigurationError
from repro.electrochem.butler_volmer import (
    current_density,
    exchange_current_density,
    overpotential_for_current,
    wall_reaction_coefficients,
)
from repro.materials.species import RedoxCouple, vanadium_negative_couple


@pytest.fixture
def couple():
    return vanadium_negative_couple()  # alpha = 0.5


@pytest.fixture
def asymmetric_couple():
    return RedoxCouple("asym", -0.255, 1, 0.3, 2e-5, 1.7e-10)


class TestExchangeCurrent:
    def test_formula(self, couple):
        j0 = exchange_current_density(couple, 100.0, 400.0)
        expected = FARADAY * 2e-5 * math.sqrt(100.0 * 400.0)
        assert j0 == pytest.approx(expected)

    def test_zero_when_species_absent(self, couple):
        assert exchange_current_density(couple, 0.0, 400.0) == 0.0

    def test_alpha_weighting(self, asymmetric_couple):
        j0 = exchange_current_density(asymmetric_couple, 100.0, 400.0)
        expected = FARADAY * 2e-5 * 100.0**0.3 * 400.0**0.7
        assert j0 == pytest.approx(expected)


class TestForward:
    def test_zero_overpotential_zero_current(self, couple):
        assert current_density(couple, 0.0, 500.0, 500.0) == pytest.approx(0.0)

    def test_anodic_positive(self, couple):
        assert current_density(couple, +0.1, 500.0, 500.0) > 0.0
        assert current_density(couple, -0.1, 500.0, 500.0) < 0.0

    def test_antisymmetric_for_equal_concentrations(self, couple):
        j_plus = current_density(couple, +0.05, 500.0, 500.0)
        j_minus = current_density(couple, -0.05, 500.0, 500.0)
        assert j_plus == pytest.approx(-j_minus)

    def test_small_signal_conductance(self, couple):
        """Linearised slope must equal j0*F/RT (the R_ct check)."""
        j0 = exchange_current_density(couple, 500.0, 500.0)
        eta = 1e-6
        slope = current_density(couple, eta, 500.0, 500.0) / eta
        assert slope == pytest.approx(j0 * FARADAY / (GAS_CONSTANT * 300.0), rel=1e-4)

    def test_surface_concentration_scaling(self, couple):
        """Halving the reduced surface concentration halves the anodic term."""
        full = current_density(couple, 0.3, 500.0, 500.0)
        half = current_density(
            couple, 0.3, 500.0, 500.0, conc_red_surface=250.0, conc_ox_surface=500.0
        )
        # At 0.3 V the cathodic term is negligible.
        assert half == pytest.approx(0.5 * full, rel=1e-3)


class TestInverse:
    @pytest.mark.parametrize("j_target", [1.0, 50.0, -25.0, 400.0])
    def test_roundtrip_alpha_half(self, couple, j_target):
        eta = overpotential_for_current(couple, j_target, 500.0, 500.0)
        assert current_density(couple, eta, 500.0, 500.0) == pytest.approx(
            j_target, rel=1e-9
        )

    @pytest.mark.parametrize("j_target", [1.0, 50.0, -25.0])
    def test_roundtrip_general_alpha(self, asymmetric_couple, j_target):
        eta = overpotential_for_current(asymmetric_couple, j_target, 500.0, 500.0)
        assert current_density(asymmetric_couple, eta, 500.0, 500.0) == pytest.approx(
            j_target, rel=1e-6
        )

    def test_sign_convention(self, couple):
        assert overpotential_for_current(couple, 10.0, 500.0, 500.0) > 0.0
        assert overpotential_for_current(couple, -10.0, 500.0, 500.0) < 0.0

    def test_tafel_regime_slope(self, couple):
        """At high overpotential, a decade of current costs 2.303*RT/((1-a)F).

        j0 here is ~965 A/m2, so 1e5 -> 1e6 A/m2 is deep in the anodic
        Tafel branch.
        """
        eta1 = overpotential_for_current(couple, 1e5, 500.0, 500.0)
        eta2 = overpotential_for_current(couple, 1e6, 500.0, 500.0)
        tafel = 2.303 * GAS_CONSTANT * 300.0 / (0.5 * FARADAY)
        assert eta2 - eta1 == pytest.approx(tafel, rel=0.02)


class TestWallReactionCoefficients:
    def test_equilibrium_consistency(self, couple):
        """j = a*C_red - b*C_ox must vanish at the Nernst potential."""
        from repro.electrochem.nernst import equilibrium_potential

        c_ox, c_red = 300.0, 700.0
        e_eq = equilibrium_potential(couple, c_ox, c_red)
        a, b = wall_reaction_coefficients(couple, e_eq, 1e-4)
        assert a * c_red - b * c_ox == pytest.approx(0.0, abs=1e-8)

    def test_transport_limit_for_fast_kinetics(self, couple):
        """Far above E_eq the flux saturates at n*F*k_w*C_red."""
        k_w = 1e-5
        a, b = wall_reaction_coefficients(couple, 1.5, k_w)
        assert a == pytest.approx(FARADAY * k_w, rel=1e-3)
        assert b == pytest.approx(0.0, abs=1e-6)

    def test_nonnegative(self, couple):
        for potential in (-1.0, -0.3, 0.0, 0.5, 1.5):
            a, b = wall_reaction_coefficients(couple, potential, 1e-4)
            assert a >= 0.0 and b >= 0.0

    def test_rejects_bad_wall_coefficient(self, couple):
        with pytest.raises(ConfigurationError):
            wall_reaction_coefficients(couple, 0.0, 0.0)
