"""Anchored steady solver vs direct factorization."""

import numpy as np
import pytest

from repro.casestudy.power7plus import (
    build_thermal_model,
    build_thermal_stack,
    full_load_power_map,
)
from repro.geometry.power7 import build_power7_floorplan
from repro.sweep.vectorized import _middle_out
from repro.thermal import batch
from repro.thermal.batch import AnchoredSteadySolver, AnchoredTransientSolver
from repro.thermal.model import ThermalModel
from repro.units import celsius_from_kelvin

FLOWS = (48.0, 169.0, 676.0, 1352.0)

#: A flow family long enough for the snapshot basis to answer some flows
#: by projection alone, in the middle-out order the sweep kernels use.
FAMILY = _middle_out(sorted(np.geomspace(300.0, 900.0, 12).tolist()))

UTILIZATIONS = np.linspace(0.1, 1.0, 10).tolist()


def _family_solves(solver):
    return [
        solver.solve(build_thermal_model(
            nx=22, ny=11, total_flow_ml_min=flow
        )).temperatures_k
        for flow in FAMILY
    ]


def _utilization_columns(solver, flow):
    floorplan = build_power7_floorplan()
    nx, ny = 22, 11
    model = ThermalModel(
        build_thermal_stack(flow, 300.0),
        floorplan.width_m, floorplan.height_m, nx, ny,
    )
    columns = model.rhs_columns("active_si", [
        full_load_power_map(nx, ny, floorplan, utilization)
        for utilization in UTILIZATIONS
    ])
    return solver.solve_columns(model, columns)


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


class TestSnapshotBasis:
    @pytest.mark.parametrize("projection", ["cholesky", "householder"])
    def test_family_matches_direct_and_projects(self, projection, monkeypatch):
        """A middle-out family answers some flows by projection alone and
        still agrees with per-flow direct solves — also when the Gram
        matrix Cholesky rejects and the Householder QR takes over."""
        if projection == "householder":

            def reject(_gram):
                raise batch.LinAlgError("not positive definite")

            monkeypatch.setattr(batch, "cho_factor", reject)
        solver = AnchoredSteadySolver()
        for flow, anchored in zip(FAMILY, _family_solves(solver)):
            direct = build_thermal_model(
                nx=22, ny=11, total_flow_ml_min=flow
            ).solve_steady()
            np.testing.assert_allclose(
                anchored, direct.temperatures_k, rtol=1e-9, atol=1e-7
            )
            assert celsius_from_kelvin(anchored.max()) == pytest.approx(
                direct.peak_celsius, abs=1e-6
            )
        assert solver.factorizations == 1
        assert solver.projected_solves > 0
        assert solver.anchored_solves == len(FAMILY) - 1

    def test_utilization_columns_mostly_project(self):
        """Utilization columns are affine in utilization: once a flow's
        first two columns joined the basis, the rest project."""
        solver = AnchoredSteadySolver()
        flows = _middle_out(sorted(np.geomspace(200.0, 1200.0, 6).tolist()))
        for position, flow in enumerate(flows):
            anchored, projected = solver.anchored_solves, solver.projected_solves
            stacked = _utilization_columns(solver, flow)
            polished = (
                (solver.anchored_solves - anchored)
                - (solver.projected_solves - projected)
            )
            if position:
                assert polished <= 2
            for k, utilization in enumerate(UTILIZATIONS):
                direct = build_thermal_model(
                    nx=22, ny=11, total_flow_ml_min=flow,
                    utilization=utilization,
                ).solve_steady()
                np.testing.assert_allclose(
                    stacked[:, k], direct.temperatures_k,
                    rtol=1e-9, atol=1e-7,
                )
        assert solver.factorizations == 1

    def test_fresh_solvers_are_bit_identical(self):
        """The basis belongs to the solver: the same batch through two
        fresh solvers gives the very same floats."""
        first = _family_solves(AnchoredSteadySolver())
        second = _family_solves(AnchoredSteadySolver())
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestStepOnly:
    def test_step_columns_factorizes_only_the_step_matrix(self):
        """A model that only steps never pays for the steady LU; a later
        steady solve factorizes it then, bit-identical to a fresh model."""
        model = build_thermal_model(nx=22, ny=11)
        states = np.full((model.n_dof, 2), 300.0)
        rhs = model.rhs_columns("active_si", [
            np.full((11, 22), 0.01), np.full((11, 22), 0.02),
        ])
        AnchoredTransientSolver(model).step_columns(states, rhs, 0.05)
        assert model._steady_lu is None
        assert list(model._transient_lus) == [0.05]
        later = model.solve_steady()
        assert model._steady_lu is not None
        fresh = build_thermal_model(nx=22, ny=11).solve_steady()
        assert np.array_equal(later.temperatures_k, fresh.temperatures_k)

    def test_transient_lu_is_the_cached_step_factorization(self):
        model = build_thermal_model(nx=22, ny=11)
        lu = model.transient_lu(0.05)
        assert model.transient_lu(0.05) is lu
        assert model._transient_lus == {0.05: lu}
        assert model._steady_lu is None


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
