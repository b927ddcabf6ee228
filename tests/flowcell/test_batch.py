"""Batched plug-flow polarization vs the scalar march (the oracle)."""

import dataclasses

import numpy as np
import pytest

from repro.casestudy.power7plus import build_array_cell
from repro.errors import ConfigurationError
from repro.flowcell import batch
from repro.flowcell.batch import batched_polarization_curves
from repro.flowcell.cell import ElectrodeCharacteristic, assemble_polarization
from repro.flowcell.porous import FlowThroughPorousCell
from repro.materials.electrolyte import Electrolyte
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


def depleted_cell(temperature_k=300.0):
    """An array cell whose anolyte carries no oxidised species at the inlet.

    Its anodic exchange current is zero in every segment, so the march
    divides by a zero ``n F k_m C_ox`` film term: the zero branch of
    ``_masked_ratio``. Its negative electrode passes no current, so it
    has characteristics but no polarization curve.
    """
    cell = build_array_cell(
        338.0, temperature_k=temperature_k, temperature_dependent=True
    )
    anolyte = cell.spec.anolyte
    spec = dataclasses.replace(cell.spec, anolyte=Electrolyte(
        anolyte.fluid, anolyte.couple, 0.0, anolyte.conc_red,
        anolyte.ionic_conductivity,
    ))
    return FlowThroughPorousCell(
        spec, electrode=cell.electrode, temperature_k=temperature_k,
        n_segments=cell.n_segments,
    )


class TestMarchComposition:
    """One ``(2B, S)`` march: a row's bits do not depend on its batch."""

    PROBE_FLOWS = (48.0, 676.0, 1352.0)

    @staticmethod
    def _cells(flows, temperatures):
        return [
            build_array_cell(flow, temperature_k=t, temperature_dependent=True)
            for flow, t in zip(flows, temperatures)
        ]

    @pytest.fixture(scope="class")
    def batches(self):
        """Batches holding the probe cells: a mixed-flow batch, a batch of
        64 and one long enough to be marched in several slices.

        Each batch holds the depleted cell too, at a different position.
        """
        probes = self._cells(self.PROBE_FLOWS, (301.0, 322.5, 348.0))
        depleted = depleted_cell(315.0)
        mixed = [probes[2], depleted, *self._cells(
            (169.0, 338.0), (300.0, 360.0)
        ), probes[0], probes[1]]
        rng = np.random.default_rng(7)
        fillers = self._cells(
            rng.choice((48.0, 169.0, 338.0, 676.0, 1352.0), 60),
            rng.uniform(290.0, 370.0, 60),
        )
        large = [*fillers[:20], probes[0], *fillers[20:40], depleted,
                 probes[1], *fillers[40:], probes[2]]
        assert len(large) == 64
        sliced = [*large, *mixed, *large]
        assert len(sliced) > 2 * batch._MARCH_CELLS
        return probes, depleted, (mixed, large, sliced)

    @staticmethod
    def _characteristics(cells):
        negatives, positives = batch._electrode_characteristics(cells, 48, 1.4)
        return {
            id(cell): (negative, positive)
            for cell, negative, positive in zip(cells, negatives, positives)
        }

    def test_characteristics_are_batch_independent(self, batches, monkeypatch):
        probes, depleted, compositions = batches
        zero_branches = []
        real_masked_ratio = batch._masked_ratio

        def spy(numerator, denominator):
            zero_branches.append(bool(np.any(denominator <= 0.0)))
            return real_masked_ratio(numerator, denominator)

        monkeypatch.setattr(batch, "_masked_ratio", spy)
        batched = [self._characteristics(cells) for cells in compositions]
        for cell in (*probes, depleted):
            alone = self._characteristics([cell])[id(cell)]
            for in_batch in batched:
                for single, other in zip(alone, in_batch[id(cell)]):
                    assert np.array_equal(single.potential_v, other.potential_v)
                    assert np.array_equal(single.current_a, other.current_a)
        assert any(zero_branches)
        # The depleted electrode matches its scalar oracle: no current.
        negative, _ = batched[1][id(depleted)]
        oracle = depleted.electrode_characteristic(
            anodic=True, max_overpotential_v=1.4
        )
        assert np.all(negative.current_a == 0.0)
        assert np.array_equal(negative.current_a, oracle.current_a)

    def test_curves_are_batch_independent(self, batches):
        probes, depleted, compositions = batches
        curves = {}
        for composition in compositions:
            cells = [cell for cell in composition if cell is not depleted]
            for cell, curve in zip(cells, batched_polarization_curves(
                cells, n_points=40, max_overpotential_v=1.4
            )):
                curves.setdefault(id(cell), []).append(curve)
        for cell in probes:
            (alone,) = batched_polarization_curves(
                [cell], n_points=40, max_overpotential_v=1.4
            )
            for batched in curves[id(cell)]:
                assert np.array_equal(alone.current_a, batched.current_a)
                assert np.array_equal(alone.voltage_v, batched.voltage_v)

    def test_depleted_cell_has_no_curve(self):
        with pytest.raises(ConfigurationError, match="do not overlap"):
            batched_polarization_curves([depleted_cell()])


class TestAssembly:
    def test_vectorized_assembly_matches_per_point_loop(self):
        """One interpolation per electrode gives the per-point loop's bits."""
        cell = build_array_cell(676.0, temperature_k=330.0,
                                temperature_dependent=True)
        negatives, positives = batch._electrode_characteristics([cell], 48, 1.4)
        negative, positive = negatives[0], positives[0]
        curve = assemble_polarization(
            negative, positive, cell.resistance_ohm,
            ocv_adjustment_v=cell.spec.ocv_adjustment_v, n_points=40,
        )
        per_point = np.array([
            positive.potential_at_current(-float(current))
            - negative.potential_at_current(+float(current))
            - float(current) * cell.resistance_ohm
            + cell.spec.ocv_adjustment_v
            for current in curve.current_a
        ])
        assert np.array_equal(
            curve.voltage_v, np.minimum.accumulate(per_point)
        )

    def test_out_of_range_error_names_the_current(self):
        """A negative electrode that cannot reach zero current fails the
        first grid point, and the error names that current."""
        negative = ElectrodeCharacteristic([-0.3, -0.2, -0.1], [1.0, 2.0, 3.0])
        positive = ElectrodeCharacteristic([0.9, 1.0, 1.1], [-5.0, -1.0, 0.0])
        with pytest.raises(
            ConfigurationError,
            match=r"current 0 A outside sampled electrode range \[1, 3\] A",
        ):
            assemble_polarization(negative, positive, 0.0)


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
