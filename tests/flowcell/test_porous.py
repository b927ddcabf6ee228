"""Tests for the flow-through porous-electrode cell."""

import numpy as np
import pytest

from repro.casestudy.power7plus import build_array_cell
from repro.constants import FARADAY
from repro.errors import ConfigurationError
from repro.flowcell.porous import PorousElectrodeSpec


class TestElectrodeSpec:
    def test_defaults_valid(self):
        spec = PorousElectrodeSpec()
        assert spec.porosity == pytest.approx(0.75)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"specific_surface_area_m2_m3": 0.0},
            {"permeability_m2": -1.0},
            {"porosity": 1.0},
            {"porosity": 0.0},
            {"fibre_diameter_m": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            PorousElectrodeSpec(**kwargs)


class TestCellBasics:
    @pytest.mark.parametrize("temperature_k", [0.0, float("nan"), float("inf")])
    def test_rejects_bad_temperature(self, temperature_k):
        with pytest.raises(ConfigurationError, match="temperature"):
            build_array_cell(temperature_k=temperature_k)

    def test_superficial_velocity(self, array_cell):
        # Q/(w*h) for the Table II channel at 676 ml/min total: ~1.6 m/s.
        assert array_cell.superficial_velocity_m_s == pytest.approx(1.6, rel=0.01)

    def test_faradaic_limit(self, array_cell):
        q_stream = array_cell.spec.stream_flow_m3_s
        expected = FARADAY * 2000.0 * q_stream
        assert array_cell.faradaic_limit_a == pytest.approx(expected, rel=1e-6)

    def test_ocv(self, array_cell):
        assert array_cell.open_circuit_voltage_v == pytest.approx(1.648, abs=0.005)

    def test_resistance_includes_bruggeman(self, array_cell):
        """Porous-filled channels have higher ionic resistance than open."""
        from repro.electrochem.losses import ohmic_resistance_colaminar

        open_r = ohmic_resistance_colaminar(
            array_cell.spec.channel, array_cell.spec.anolyte, array_cell.spec.catholyte
        )
        assert array_cell.resistance_ohm > open_r


class TestElectrodeCurrent:
    def test_zero_at_equilibrium(self, array_cell):
        from repro.electrochem.nernst import equilibrium_potential

        anolyte = array_cell.spec.anolyte
        e_eq = equilibrium_potential(
            anolyte.couple, anolyte.conc_ox, anolyte.conc_red, 300.0
        )
        current = array_cell.electrode_current(anolyte, e_eq, anodic=True)
        assert current == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_potential(self, array_cell):
        anolyte = array_cell.spec.anolyte
        currents = [
            array_cell.electrode_current(anolyte, e, anodic=True)
            for e in (-0.2, 0.0, 0.2, 0.5)
        ]
        assert all(a < b for a, b in zip(currents, currents[1:]))

    def test_bounded_by_faradaic_limit(self, array_cell):
        """Even at absurd overpotential, plug flow caps the conversion."""
        anolyte = array_cell.spec.anolyte
        current = array_cell.electrode_current(anolyte, 3.0, anodic=True)
        assert current < array_cell.faradaic_limit_a

    def test_characteristic_monotone(self, array_cell):
        char = array_cell.electrode_characteristic(anodic=True, n_samples=16)
        assert np.all(np.diff(char.current_a) >= 0.0)
        assert char.min_current_a == pytest.approx(0.0, abs=1e-9)


class TestPolarization:
    def test_fig7_anchor_at_1v(self, array_88):
        """The headline Fig. 7 anchor: 6 A at 1.0 V from 88 channels."""
        assert array_88.current_at_voltage(1.0) == pytest.approx(6.0, abs=0.5)

    def test_fig7_ocv(self, array_88):
        assert array_88.open_circuit_voltage_v == pytest.approx(1.648, abs=0.01)

    def test_fig7_current_reach(self, array_88):
        """The curve extends toward the paper's 50 A axis."""
        assert array_88.max_current_a > 42.0

    def test_curve_monotone(self, array_88):
        assert np.all(np.diff(array_88.curve.voltage_v) <= 1e-12)

    def test_more_segments_converges(self):
        coarse = build_array_cell(n_segments=10).polarization_curve(n_points=20)
        fine = build_array_cell(n_segments=80).polarization_curve(n_points=20)
        i_probe = 0.04  # A per channel (~3.5 A array), kinetic region
        v_coarse = coarse.voltage_at_current(i_probe)
        v_fine = fine.voltage_at_current(i_probe)
        assert v_coarse == pytest.approx(v_fine, abs=0.01)

    def test_lower_flow_lower_ceiling(self):
        """Reduced flow cuts the transport ceiling (k_m ~ v^0.4)."""
        nominal = build_array_cell(676.0).polarization_curve(n_points=25)
        starved = build_array_cell(48.0).polarization_curve(n_points=25)
        assert starved.max_current_a < nominal.max_current_a

    def test_temperature_raises_current(self):
        """Warm operation boosts the fixed-voltage current (Section III-B)."""
        cold = build_array_cell(temperature_k=300.0, temperature_dependent=True)
        warm = build_array_cell(temperature_k=320.0, temperature_dependent=True)
        i_cold = cold.polarization_curve(n_points=30).current_at_voltage(1.0)
        i_warm = warm.polarization_curve(n_points=30).current_at_voltage(1.0)
        assert i_warm > i_cold * 1.05
