"""Anchored steady solver vs direct factorization."""

import numpy as np
import pytest

from repro.casestudy.power7plus import (
    build_thermal_model,
    build_thermal_stack,
    full_load_power_map,
)
from repro.geometry.power7 import build_power7_floorplan
from repro.thermal.batch import AnchoredSteadySolver
from repro.thermal.model import ThermalModel

FLOWS = (48.0, 169.0, 676.0, 1352.0)


class TestAnchoredSolves:
    def test_matches_direct_solve_across_flows(self):
        """One factorization + GMRES agrees with per-flow direct solves."""
        solver = AnchoredSteadySolver()
        for flow in FLOWS:
            model = build_thermal_model(
                nx=22, ny=11, total_flow_ml_min=flow
            )
            anchored = solver.solve(model)
            direct = build_thermal_model(
                nx=22, ny=11, total_flow_ml_min=flow
            ).solve_steady()
            np.testing.assert_allclose(
                anchored.temperatures_k, direct.temperatures_k,
                rtol=1e-9, atol=1e-7,
            )
            assert anchored.peak_celsius == pytest.approx(
                direct.peak_celsius, abs=1e-6
            )

    def test_shares_the_anchor(self):
        """Only the first solve factorizes; neighbours ride GMRES."""
        solver = AnchoredSteadySolver()
        for flow in (338.0, 450.0, 676.0):
            solver.solve(build_thermal_model(
                nx=22, ny=11, total_flow_ml_min=flow
            ))
        assert solver.factorizations == 1
        assert solver.anchored_solves == 2

    def test_stacked_columns_match_individual_solves(self):
        """Utilization variants as stacked RHS columns of one matrix."""
        floorplan = build_power7_floorplan()
        nx, ny = 22, 11
        model = ThermalModel(
            build_thermal_stack(676.0, 300.0),
            floorplan.width_m, floorplan.height_m, nx, ny,
        )
        utilizations = (0.25, 0.5, 1.0)
        columns = model.rhs_columns("active_si", [
            full_load_power_map(nx, ny, floorplan, utilization)
            for utilization in utilizations
        ])

        solver = AnchoredSteadySolver()
        stacked = solver.solve_columns(model, columns)
        assert solver.factorizations == 1  # one LU served all columns

        for k, utilization in enumerate(utilizations):
            direct = build_thermal_model(
                nx=nx, ny=ny, total_flow_ml_min=676.0,
                utilization=utilization,
            ).solve_steady()
            np.testing.assert_allclose(
                stacked[:, k], direct.temperatures_k, rtol=1e-9, atol=1e-7
            )

    def test_reanchors_on_distant_flow(self):
        """A flow far outside the anchor's reach still solves correctly
        (re-anchoring is transparent)."""
        solver = AnchoredSteadySolver()
        solver.solve(build_thermal_model(nx=22, ny=11, total_flow_ml_min=48.0))
        far = build_thermal_model(nx=22, ny=11, total_flow_ml_min=1352.0)
        anchored = solver.solve(far)
        direct = build_thermal_model(
            nx=22, ny=11, total_flow_ml_min=1352.0
        ).solve_steady()
        assert anchored.peak_celsius == pytest.approx(
            direct.peak_celsius, abs=1e-6
        )


class TestWarm:
    def test_warm_prefactorizes_idempotently(self):
        model = build_thermal_model(nx=22, ny=11)
        assert model.warm(dt_s=0.05) is model
        steady_lu = model._steady_lu
        transient_lu = model._transient_lus[0.05]
        assert steady_lu is not None
        model.warm(dt_s=0.05)  # idempotent: nothing recomputed
        assert model._steady_lu is steady_lu
        assert model._transient_lus[0.05] is transient_lu

    def test_warm_validates_dt(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            build_thermal_model(nx=22, ny=11).warm(dt_s=0.0)
