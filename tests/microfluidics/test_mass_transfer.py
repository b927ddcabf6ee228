"""Tests for mass-transfer models (Leveque and porous)."""


import pytest

from repro.constants import FARADAY
from repro.errors import ConfigurationError
from repro.microfluidics.mass_transfer import (
    LEVEQUE_CONSTANT,
    average_mass_transfer_coefficient,
    leveque_local_mass_transfer_coefficient,
    porous_mass_transfer_coefficient,
)


class TestLeveque:
    def test_constant_value(self):
        # 1/(Gamma(4/3) * 9^(1/3)) = 0.5384.
        assert LEVEQUE_CONSTANT == pytest.approx(0.5384, rel=1e-3)

    def test_local_coefficient_scalings(self):
        base = leveque_local_mass_transfer_coefficient(1e-10, 100.0, 0.01)
        # k_m ~ D^(2/3).
        assert leveque_local_mass_transfer_coefficient(8e-10, 100.0, 0.01) == pytest.approx(
            4.0 * base
        )
        # k_m ~ gamma^(1/3).
        assert leveque_local_mass_transfer_coefficient(1e-10, 800.0, 0.01) == pytest.approx(
            2.0 * base
        )
        # k_m ~ x^(-1/3).
        assert leveque_local_mass_transfer_coefficient(1e-10, 100.0, 0.08) == pytest.approx(
            base / 2.0
        )

    def test_average_is_1p5x_trailing(self):
        local_end = leveque_local_mass_transfer_coefficient(1e-10, 100.0, 0.033)
        average = average_mass_transfer_coefficient(1e-10, 100.0, 0.033)
        assert average == pytest.approx(1.5 * local_end)

    def test_validation_cell_magnitude(self):
        """Reproduce the hand calculation anchoring Fig. 3.

        60 uL/min in the 2 mm x 150 um cell: v = 3.33 mm/s, shear
        6v/h = 133 /s; k_m over 33 mm with D = 1.3e-10 is ~3.3e-6 m/s,
        giving j_lim = F*k_m*992 ~ 316 A/m2 ~ 32 mA/cm2.
        """
        k_m = average_mass_transfer_coefficient(1.3e-10, 133.3, 0.033)
        assert k_m == pytest.approx(3.3e-6, rel=0.05)
        j_lim = FARADAY * k_m * 992.0
        assert j_lim == pytest.approx(316.0, rel=0.06)

    def test_cube_root_flow_scaling_of_limiting_current(self):
        """The Fig. 3 signature: I_lim grows as Q^(1/3)."""
        k_low = average_mass_transfer_coefficient(1.3e-10, 10.0, 0.033)
        k_high = average_mass_transfer_coefficient(1.3e-10, 1200.0, 0.033)
        assert k_high / k_low == pytest.approx(120.0 ** (1.0 / 3.0), rel=1e-6)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            leveque_local_mass_transfer_coefficient(0.0, 100.0, 0.01)
        with pytest.raises(ConfigurationError):
            leveque_local_mass_transfer_coefficient(1e-10, 100.0, 0.0)


class TestPorous:
    def test_zero_velocity_gives_zero(self):
        assert porous_mass_transfer_coefficient(1e-10, 0.0) == 0.0

    def test_power_law_velocity_scaling(self):
        k1 = porous_mass_transfer_coefficient(1e-10, 1.0)
        k2 = porous_mass_transfer_coefficient(1e-10, 2.0)
        assert k2 / k1 == pytest.approx(2.0**0.4)

    def test_magnitude_is_pin_fin_scale(self):
        """Default sits ~3x above the felt correlation k_m = 1.6e-4*v^0.4
        (ref [24]) — the micro-structured electrode calibration."""
        k_m = porous_mass_transfer_coefficient(4.13e-10, 1.0)
        felt = 1.6e-4
        assert felt < k_m < 5.0 * felt

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            porous_mass_transfer_coefficient(-1e-10, 1.0)
        with pytest.raises(ConfigurationError):
            porous_mass_transfer_coefficient(1e-10, 1.0, fibre_diameter_m=0.0)
