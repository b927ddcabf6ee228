"""Batched plug-flow polarization vs the scalar march (the oracle)."""

import numpy as np
import pytest

from repro.casestudy.power7plus import build_array_cell
from repro.errors import ConfigurationError
from repro.flowcell.batch import batched_polarization_curves
from repro.flowcell.cell import assemble_polarization
from repro.sweep.evaluators import geometry_cell
from repro.sweep.spec import ScenarioSpec


def scalar_reference(cell, n_points, max_overpotential_v=1.4):
    """The cell's curve from the scalar per-potential march.

    ``cell.polarization_curve`` is itself a batch of one, so the
    independent reference is assembled here from the scalar electrode
    characteristics.
    """
    negative, positive = (
        cell.electrode_characteristic(
            anodic=anodic, max_overpotential_v=max_overpotential_v
        )
        for anodic in (True, False)
    )
    return assemble_polarization(
        negative,
        positive,
        cell.resistance_ohm,
        ocv_adjustment_v=cell.spec.ocv_adjustment_v,
        n_points=n_points,
    )


class TestParity:
    def test_matches_scalar_across_flows(self):
        """Same curves as the scalar march, to round-off."""
        flows = [48.0, 169.0, 676.0, 1352.0]
        cells = [build_array_cell(flow) for flow in flows]
        batched = batched_polarization_curves(
            cells, n_points=40, max_overpotential_v=1.4
        )
        for cell, curve in zip(cells, batched):
            reference = scalar_reference(cell, n_points=40)
            np.testing.assert_allclose(
                curve.current_a, reference.current_a, rtol=1e-9, atol=1e-12
            )
            np.testing.assert_allclose(
                curve.voltage_v, reference.voltage_v, rtol=1e-9, atol=1e-12
            )

    def test_matches_scalar_across_geometries(self):
        """Geometry-evaluator cells (varying width and per-channel flow)."""
        specs = [
            ScenarioSpec(evaluator="geometry", channel_width_um=width)
            for width in (100.0, 250.0, 400.0)
        ]
        cells = [geometry_cell(spec)[1] for spec in specs]
        batched = batched_polarization_curves(
            cells, n_points=30, max_overpotential_v=1.4
        )
        for cell, curve in zip(cells, batched):
            reference = scalar_reference(cell, n_points=30)
            np.testing.assert_allclose(
                curve.current_a, reference.current_a, rtol=1e-9, atol=1e-12
            )
            np.testing.assert_allclose(
                curve.voltage_v, reference.voltage_v, rtol=1e-9, atol=1e-12
            )

    def test_matches_scalar_across_temperatures(self):
        """Temperature may vary within a batch (co-sim style cells)."""
        cells = [
            build_array_cell(676.0, temperature_k=t, temperature_dependent=True)
            for t in (300.0, 320.0, 350.0)
        ]
        batched = batched_polarization_curves(
            cells, n_points=40, max_overpotential_v=1.4
        )
        for cell, curve in zip(cells, batched):
            reference = scalar_reference(cell, n_points=40)
            np.testing.assert_allclose(
                curve.current_a, reference.current_a, rtol=1e-9, atol=1e-12
            )
            assert curve.open_circuit_voltage_v == pytest.approx(
                reference.open_circuit_voltage_v, rel=1e-12
            )

    def test_single_cell_batch(self):
        cell = build_array_cell(338.0)
        (curve,) = batched_polarization_curves(
            [cell], n_points=40, max_overpotential_v=1.4
        )
        np.testing.assert_allclose(
            curve.current_a, scalar_reference(cell, n_points=40).current_a,
            rtol=1e-9,
        )

    def test_polarization_curve_is_a_batch_of_one(self):
        """The cell method and any batch give the very same curve."""
        cells = [build_array_cell(flow) for flow in (169.0, 338.0, 676.0)]
        batched = batched_polarization_curves(
            cells, n_points=40, max_overpotential_v=1.4
        )
        for cell, curve in zip(cells, batched):
            single = cell.polarization_curve(
                n_points=40, max_overpotential_v=1.4
            )
            assert np.array_equal(single.current_a, curve.current_a)
            assert np.array_equal(single.voltage_v, curve.voltage_v)


class TestValidation:
    def test_empty_batch_is_empty(self):
        assert batched_polarization_curves([]) == []

    def test_mixed_segment_counts_rejected(self):
        cells = [
            build_array_cell(676.0, n_segments=40),
            build_array_cell(676.0, n_segments=25),
        ]
        with pytest.raises(ConfigurationError, match="segment count"):
            batched_polarization_curves(cells)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ConfigurationError, match="n_samples"):
            batched_polarization_curves(
                [build_array_cell(676.0)], n_potential_samples=3
            )
