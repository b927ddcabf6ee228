"""Property-based tests for the electrochemical core (hypothesis)."""


from hypothesis import given, settings, strategies as st
import pytest
# The Brent branch of ``overpotential_for_current`` imports scipy.optimize
# on first use; importing it here pays that once, before any example runs
# against the deadline.
import scipy.optimize  # noqa: F401

from repro.constants import FARADAY
from repro.electrochem.butler_volmer import (
    current_density,
    exchange_current_density,
    overpotential_for_current,
    wall_reaction_coefficients,
)
from repro.electrochem.halfcell import FilmHalfCell
from repro.electrochem.nernst import equilibrium_potential
from repro.materials.species import RedoxCouple

concentrations = st.floats(min_value=1.0, max_value=5000.0)
alphas = st.floats(min_value=0.1, max_value=0.9)
temperatures = st.floats(min_value=280.0, max_value=360.0)
overpotentials = st.floats(min_value=-0.8, max_value=0.8)


def make_couple(alpha: float) -> RedoxCouple:
    return RedoxCouple("prop", -0.255, 1, alpha, 2e-5, 1.7e-10)


class TestNernstProperties:
    @given(c_ox=concentrations, c_red=concentrations, t=temperatures)
    def test_antisymmetric_in_concentration_swap(self, c_ox, c_red, t):
        """Swapping ox and red mirrors E about the standard potential."""
        couple = make_couple(0.5)
        e_fwd = equilibrium_potential(couple, c_ox, c_red, t)
        e_rev = equilibrium_potential(couple, c_red, c_ox, t)
        assert e_fwd + e_rev == pytest.approx(2.0 * couple.standard_potential_v, abs=1e-9)

    @given(c_ox=concentrations, c_red=concentrations, scale=st.floats(0.1, 10.0))
    def test_depends_only_on_ratio(self, c_ox, c_red, scale):
        couple = make_couple(0.5)
        base = equilibrium_potential(couple, c_ox, c_red)
        scaled = equilibrium_potential(couple, scale * c_ox, scale * c_red)
        assert scaled == pytest.approx(base, abs=1e-9)


class TestButlerVolmerProperties:
    @given(alpha=alphas, eta=overpotentials, c_ox=concentrations, c_red=concentrations)
    def test_current_sign_follows_overpotential(self, alpha, eta, c_ox, c_red):
        couple = make_couple(alpha)
        j = current_density(couple, eta, c_ox, c_red)
        if eta > 1e-12:
            assert j > 0.0
        elif eta < -1e-12:
            assert j < 0.0

    @given(alpha=alphas, c_ox=concentrations, c_red=concentrations,
           eta1=overpotentials, eta2=overpotentials)
    def test_current_monotone_in_overpotential(self, alpha, c_ox, c_red, eta1, eta2):
        couple = make_couple(alpha)
        lo, hi = sorted((eta1, eta2))
        j_lo = current_density(couple, lo, c_ox, c_red)
        j_hi = current_density(couple, hi, c_ox, c_red)
        assert j_hi >= j_lo - 1e-12

    @settings(max_examples=60)
    @given(alpha=alphas, c_ox=concentrations, c_red=concentrations,
           fraction=st.floats(-0.95, 0.95), t=temperatures)
    def test_inverse_roundtrip(self, alpha, c_ox, c_red, fraction, t):
        """overpotential_for_current inverts current_density everywhere."""
        couple = make_couple(alpha)
        j0 = exchange_current_density(couple, c_ox, c_red, t)
        j_target = fraction * 50.0 * j0
        eta = overpotential_for_current(couple, j_target, c_ox, c_red, t)
        j_back = current_density(couple, eta, c_ox, c_red, t)
        # abs floor scaled to j0: brentq's 1e-12 V tolerance on eta maps to
        # ~j0*F/RT * 1e-12 in current.
        assert j_back == pytest.approx(j_target, rel=1e-5, abs=1e-6 * j0)

    @given(alpha=alphas, c_ox=concentrations, c_red=concentrations,
           potential=st.floats(-1.5, 1.5), k_w=st.floats(1e-7, 1e-3))
    def test_wall_coefficients_nonnegative(self, alpha, c_ox, c_red, potential, k_w):
        couple = make_couple(alpha)
        a, b = wall_reaction_coefficients(couple, potential, k_w)
        assert a >= 0.0 and b >= 0.0
        # Bounded by the transport ceiling n*F*k_w.
        assert a <= FARADAY * k_w * (1.0 + 1e-9)
        assert b <= FARADAY * k_w * (1.0 + 1e-9)


class TestFilmHalfCellProperties:
    @settings(max_examples=60)
    @given(alpha=alphas, c_ox=concentrations, c_red=concentrations,
           k_m=st.floats(1e-7, 1e-3), eta1=overpotentials, eta2=overpotentials)
    def test_current_monotone_and_bounded(self, alpha, c_ox, c_red, k_m, eta1, eta2):
        half = FilmHalfCell(make_couple(alpha), c_ox, c_red, k_m)
        lo, hi = sorted((eta1, eta2))
        j_lo = half.current_at_overpotential(lo)
        j_hi = half.current_at_overpotential(hi)
        assert j_hi >= j_lo - 1e-12
        for j in (j_lo, j_hi):
            assert -half.cathodic_limit_a_m2 - 1e-9 <= j <= half.anodic_limit_a_m2 + 1e-9

    @settings(max_examples=40)
    @given(alpha=alphas, c_ox=concentrations, c_red=concentrations,
           k_m=st.floats(1e-7, 1e-4), fraction=st.floats(0.01, 0.97))
    def test_overpotential_roundtrip(self, alpha, c_ox, c_red, k_m, fraction):
        half = FilmHalfCell(make_couple(alpha), c_ox, c_red, k_m)
        j_target = fraction * half.anodic_limit_a_m2
        eta = half.overpotential(j_target)
        assert half.current_at_overpotential(eta) == pytest.approx(
            j_target, rel=1e-6
        )

    @settings(max_examples=40)
    @given(c_ox=concentrations, c_red=concentrations, k_m=st.floats(1e-7, 1e-4),
           fraction=st.floats(0.05, 0.9))
    def test_total_loss_exceeds_activation_only(self, c_ox, c_red, k_m, fraction):
        """Mass transport can only add loss, never subtract."""
        half = FilmHalfCell(make_couple(0.5), c_ox, c_red, k_m)
        j = fraction * half.anodic_limit_a_m2
        assert half.overpotential(j) >= half.activation_only_overpotential(j) - 1e-12
