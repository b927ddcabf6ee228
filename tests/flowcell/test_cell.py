"""Tests for shared flow-cell definitions and polarization assembly."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.flowcell.cell import ElectrodeCharacteristic, assemble_polarization


class TestColaminarCellSpec:
    def test_stream_flow_is_half(self, validation_spec_60):
        assert validation_spec_60.stream_flow_m3_s == pytest.approx(
            validation_spec_60.volumetric_flow_m3_s / 2.0
        )

    def test_rejects_zero_flow(self, validation_spec_60):
        with pytest.raises(ConfigurationError):
            replace(validation_spec_60, volumetric_flow_m3_s=0.0)


class TestElectrodeCharacteristic:
    def test_interpolation(self):
        char = ElectrodeCharacteristic([0.0, 0.1, 0.2], [0.0, 1.0, 2.0])
        assert char.potential_at_current(0.5) == pytest.approx(0.05)

    def test_rejects_non_monotone_potential(self):
        with pytest.raises(ConfigurationError):
            ElectrodeCharacteristic([0.0, 0.0, 0.2], [0.0, 1.0, 2.0])

    def test_rejects_decreasing_current(self):
        with pytest.raises(ConfigurationError):
            ElectrodeCharacteristic([0.0, 0.1, 0.2], [0.0, 2.0, 1.0])

    def test_out_of_range_raises(self):
        char = ElectrodeCharacteristic([0.0, 0.1], [0.0, 1.0])
        with pytest.raises(ConfigurationError):
            char.potential_at_current(2.0)

    def test_array_query_matches_scalar_queries(self):
        char = ElectrodeCharacteristic([0.0, 0.1, 0.2], [0.0, 1.0, 2.0])
        currents = np.array([0.0, 0.25, 1.5, 2.0])
        potentials = char.potential_at_current(currents)
        assert potentials.shape == currents.shape
        assert list(potentials) == [
            char.potential_at_current(float(c)) for c in currents
        ]

    def test_array_out_of_range_names_first_offender(self):
        char = ElectrodeCharacteristic([0.0, 0.1], [0.0, 1.0])
        with pytest.raises(ConfigurationError, match="current 2 A outside"):
            char.potential_at_current(np.array([0.5, 2.0, 3.0]))


class TestAssemblePolarization:
    @staticmethod
    def _linear_electrodes(e_neg_eq=-0.3, e_pos_eq=1.2, g=10.0, i_max=5.0):
        """Two linear electrode characteristics with conductance g [A/V]."""
        negative = ElectrodeCharacteristic(
            [e_neg_eq - 1.0, e_neg_eq, e_neg_eq + 1.0], [-g, 0.0, +g]
        )
        positive = ElectrodeCharacteristic(
            [e_pos_eq - 1.0, e_pos_eq, e_pos_eq + 1.0], [-g, 0.0, +g]
        )
        return negative, positive

    def test_linear_cell_matches_analytic(self):
        """For linear electrodes the curve is V = U0 - I*(2/g + R)."""
        negative, positive = self._linear_electrodes()
        curve = assemble_polarization(negative, positive, resistance_ohm=0.05)
        u0 = 1.5
        slope = 2.0 / 10.0 + 0.05
        for i in (0.0, 1.0, 3.0):
            assert curve.voltage_at_current(i) == pytest.approx(u0 - slope * i, abs=1e-9)

    def test_ocv_adjustment_shifts_curve(self):
        negative, positive = self._linear_electrodes()
        base = assemble_polarization(negative, positive, 0.05)
        shifted = assemble_polarization(negative, positive, 0.05, ocv_adjustment_v=-0.1)
        assert shifted.open_circuit_voltage_v == pytest.approx(
            base.open_circuit_voltage_v - 0.1
        )

    def test_current_range_respects_weaker_electrode(self):
        negative = ElectrodeCharacteristic([-1.3, -0.3, 0.7], [-3.0, 0.0, 3.0])
        positive = ElectrodeCharacteristic([0.2, 1.2, 2.2], [-10.0, 0.0, 10.0])
        curve = assemble_polarization(negative, positive, 0.0, max_utilization=0.9)
        assert curve.max_current_a == pytest.approx(0.9 * 3.0)

    def test_negative_voltage_points_dropped(self):
        negative, positive = self._linear_electrodes(g=2.0)
        # Steep slope: voltage crosses zero inside the sampled range.
        curve = assemble_polarization(negative, positive, 0.5)
        assert np.all(curve.voltage_v > 0.0)

    def test_rejects_negative_resistance(self):
        negative, positive = self._linear_electrodes()
        with pytest.raises(ConfigurationError):
            assemble_polarization(negative, positive, -0.1)
