"""Anchored steady solver vs direct factorization."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.casestudy.power7plus import (
    build_thermal_model,
    build_thermal_stack,
    full_load_power_map,
)
from repro.errors import ConfigurationError
from repro.geometry.power7 import build_power7_floorplan
from repro.thermal import batch
from repro.thermal.batch import AnchoredSteadySolver, AnchoredTransientSolver
from repro.thermal.model import ThermalModel
from repro.thermal.stack import LayerStack
from repro.units import celsius_from_kelvin, m3s_from_ml_per_min

FLOWS = (48.0, 169.0, 676.0, 1352.0)

#: The training set the sweep's steady families use: 8 log-spaced flows
#: over the flow presets' range, at full load.
TRAINING = np.geomspace(48.0, 1352.0, 8).tolist()

#: A flow family between the training flows.
FAMILY = np.geomspace(300.0, 900.0, 12).tolist()

UTILIZATIONS = np.linspace(0.1, 1.0, 10).tolist()

FLOORPLAN = build_power7_floorplan()


def _family(inlet=300.0, nx=22, ny=11):
    """The flow-free case-study model a solver is built from, as in
    :class:`repro.casestudy.power7plus.ThermalFamily`."""
    return ThermalModel(
        build_thermal_stack(inlet_temperature_k=inlet),
        FLOORPLAN.width_m, FLOORPLAN.height_m, nx, ny,
    )


def _at_flow(family, flow, utilization=1.0):
    """The family's model at ``flow`` [ml/min] under full-load power."""
    model = family.at_flow(m3s_from_ml_per_min(flow))
    model.set_power_map("active_si", full_load_power_map(
        family.nx, family.ny, FLOORPLAN, utilization
    ))
    return model


def _solver(family, training=TRAINING):
    """A solver trained at full load on ``training`` flows [ml/min]."""
    return AnchoredSteadySolver(
        family, [_at_flow(family, flow) for flow in training]
    )


def _direct(flow, utilization=1.0):
    return build_thermal_model(
        nx=22, ny=11, total_flow_ml_min=flow, utilization=utilization,
    ).solve_steady()


def _counts(solver):
    return (
        solver.factorizations, solver.krylov_steps,
        solver.anchored_solves, solver.projected_solves,
    )


def _utilization_columns(solver, family, flow):
    model = family.at_flow(m3s_from_ml_per_min(flow))
    columns = model.rhs_columns("active_si", [
        full_load_power_map(family.nx, family.ny, FLOORPLAN, utilization)
        for utilization in UTILIZATIONS
    ])
    return solver.solve_columns(model, columns)


class TestAnchoredSolves:
    def test_matches_direct_solve_across_flows(self):
        """One factorization + Krylov space agrees with per-flow direct
        solves."""
        family = _family()
        solver = _solver(family)
        for flow in FLOWS:
            anchored = solver.solve(_at_flow(family, flow))
            direct = _direct(flow)
            np.testing.assert_allclose(
                anchored.temperatures_k, direct.temperatures_k,
                rtol=1e-9, atol=1e-7,
            )
            assert anchored.peak_celsius == pytest.approx(
                direct.peak_celsius, abs=1e-6
            )

    def test_shares_the_anchor(self):
        """Only training factorizes; every column rides the space."""
        family = _family()
        solver = _solver(family)
        for flow in (338.0, 450.0, 676.0):
            solver.solve(_at_flow(family, flow))
        assert solver.factorizations == 1
        assert solver.anchored_solves == 3

    def test_stacked_columns_match_individual_solves(self):
        """Utilization variants as stacked RHS columns of one matrix."""
        family = _family()
        model = family.at_flow(m3s_from_ml_per_min(676.0))
        utilizations = (0.25, 0.5, 1.0)
        columns = model.rhs_columns("active_si", [
            full_load_power_map(22, 11, FLOORPLAN, utilization)
            for utilization in utilizations
        ])

        solver = _solver(family)
        stacked = solver.solve_columns(model, columns)
        assert solver.factorizations == 1  # one LU served all columns

        for k, utilization in enumerate(utilizations):
            np.testing.assert_allclose(
                stacked[:, k], _direct(676.0, utilization).temperatures_k,
                rtol=1e-9, atol=1e-7,
            )

    def test_distant_flow_is_answered_by_krylov_steps(self):
        """A space trained at 48 ml/min alone answers 1352 ml/min with
        Krylov steps along the column, on the same anchor."""
        obs.start()
        try:
            family = _family()
            solver = _solver(family, training=[48.0])
            trained = solver.krylov_steps
            anchored = solver.solve(_at_flow(family, 1352.0))
            counters = obs.snapshot()["counters"]
        finally:
            obs.stop()
        assert anchored.peak_celsius == pytest.approx(
            _direct(1352.0).peak_celsius, abs=1e-6
        )
        assert solver.krylov_steps - trained == 20
        assert solver.anchored_solves == 1
        assert solver.projected_solves == 0
        assert solver.factorizations == 1
        assert counters["thermal.steady.reanchors"] == 0
        assert counters["thermal.steady.fallbacks"] == 0

    def test_rejects_a_stack_without_coolant(self):
        """No channel layer, no heat sink: the steady system is singular,
        and the solver says so instead of returning temperatures."""
        stack = build_thermal_stack()
        model = ThermalModel(
            LayerStack([stack.layers[0], stack.layers[1], stack.layers[3]]),
            0.01, 0.01, 6, 4,
        )
        model.set_power_map("active_si", np.full((4, 6), 0.01))
        with pytest.raises(ConfigurationError, match="microchannel"):
            AnchoredSteadySolver(model, [model])


class TestKrylovSpace:
    def test_family_matches_direct_with_one_factorization(self):
        """The canonical space of the 8 training flows answers a 12-flow
        family with no further step, in agreement with per-flow direct
        solves."""
        family = _family()
        solver = _solver(family)
        trained = solver.krylov_steps
        for flow in FAMILY:
            anchored = solver.solve(_at_flow(family, flow)).temperatures_k
            direct = _direct(flow)
            np.testing.assert_allclose(
                anchored, direct.temperatures_k, rtol=1e-9, atol=1e-7
            )
            assert celsius_from_kelvin(anchored.max()) == pytest.approx(
                direct.peak_celsius, abs=1e-6
            )
        assert solver.factorizations == 1
        assert 0 < trained <= 20
        assert solver.krylov_steps == trained
        assert solver.anchored_solves == len(FAMILY)
        assert solver.projected_solves == len(FAMILY)

    def test_utilization_columns_take_no_new_steps(self):
        """Utilization maps are multiples of the full-load source: the
        canonical space answers every utilization column of any flow."""
        family = _family()
        solver = _solver(family)
        trained = solver.krylov_steps
        for flow in np.geomspace(200.0, 1200.0, 4).tolist():
            stacked = _utilization_columns(solver, family, flow)
            for k, utilization in enumerate(UTILIZATIONS):
                np.testing.assert_allclose(
                    stacked[:, k], _direct(flow, utilization).temperatures_k,
                    rtol=1e-9, atol=1e-7,
                )
        assert solver.krylov_steps == trained
        assert solver.projected_solves == 4 * len(UTILIZATIONS)
        assert solver.factorizations == 1

    def test_full_space_reanchors(self, monkeypatch):
        """A column the capped space cannot answer makes its own matrix
        the anchor and is answered directly (48 -> 1352 ml/min takes 20
        Krylov steps under the real cap)."""
        monkeypatch.setattr(batch, "_SPACE_CAP", 8)
        obs.start()
        try:
            family = _family()
            solver = _solver(family, training=[48.0])
            anchored = solver.solve(_at_flow(family, 1352.0))
            counters = obs.snapshot()["counters"]
        finally:
            obs.stop()
        np.testing.assert_allclose(
            anchored.temperatures_k, _direct(1352.0).temperatures_k,
            rtol=1e-9, atol=1e-7,
        )
        assert counters["thermal.steady.reanchors"] == 1
        assert counters["thermal.steady.fallbacks"] == 0
        assert solver.factorizations == 2

    def test_a_column_does_not_depend_on_earlier_solves(self):
        """Each column is solved on its own view of the canonical space:
        the same flows in any order, or each through a fresh solver, give
        the very same floats."""
        family = _family()
        forward = _solver(family)
        backward = _solver(family)
        solves = {
            flow: forward.solve(_at_flow(family, flow)).temperatures_k
            for flow in FAMILY
        }
        for flow in reversed(FAMILY):
            again = backward.solve(_at_flow(family, flow)).temperatures_k
            assert np.array_equal(again, solves[flow])
        for flow in FAMILY[::5]:
            other = _family()
            cold = _solver(other).solve(_at_flow(other, flow))
            assert np.array_equal(cold.temperatures_k, solves[flow])

    @pytest.mark.parametrize(
        "detour", ["steps", "new-source", "reanchor", "fallback"]
    )
    def test_a_column_leaks_nothing_into_the_space(self, detour, monkeypatch):
        """A column's own Krylov steps (after a new source direction, for
        a map that is no multiple of the training map), its space-full
        re-anchor or its direct fallback die with it: the next column's
        counts and bits match a cold solver's."""
        if detour == "reanchor":
            monkeypatch.setattr(batch, "_SPACE_CAP", 8)
        family = _family()
        solver = _solver(family, training=[48.0])
        model = _at_flow(family, 1352.0)
        if detour == "new-source":
            skew = np.linspace(0.5, 1.5, family.nx)
            model.set_power_map("active_si", skew * full_load_power_map(
                family.nx, family.ny, FLOORPLAN
            ))
        if detour == "fallback":
            residual_ok = batch._residual_ok
            monkeypatch.setattr(batch, "_residual_ok", lambda *args: False)
        solver.solve(model)
        if detour == "fallback":
            monkeypatch.setattr(batch, "_residual_ok", residual_ok)
            assert solver.factorizations == 2
        warm = _counts(solver)
        after = solver.solve(_at_flow(family, 200.0)).temperatures_k

        other = _family()
        cold = _solver(other, training=[48.0])
        fresh = _counts(cold)
        reference = cold.solve(_at_flow(other, 200.0)).temperatures_k
        assert np.array_equal(after, reference)
        assert np.subtract(_counts(solver), warm).tolist() == np.subtract(
            _counts(cold), fresh
        ).tolist()
        assert cold.krylov_steps > fresh[1]  # the next column steps too


class TestSharedSolver:
    def test_threads_solving_at_once_get_the_single_thread_bits(self):
        """One solver serves many threads: concurrent columns, some taking
        Krylov steps on their views, give the bits of a lone thread."""
        family = _family()
        solver = _solver(family, training=[48.0])
        flows = (1352.0, 60.0, 676.0, 100.0)
        reference = {
            flow: solver.solve(_at_flow(family, flow)).temperatures_k
            for flow in flows
        }
        mismatches = []

        def solve_all(order):
            for flow in order:
                got = solver.solve(_at_flow(family, flow)).temperatures_k
                if not np.array_equal(got, reference[flow]):
                    mismatches.append(flow)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=solve_all, args=(flows[k:] + flows[:k],))
                for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert solver.anchored_solves == 5 * len(flows)


def _system(flow, inlet=300.0, nx=22, ny=11):
    model = ThermalModel(
        build_thermal_stack(flow, inlet),
        FLOORPLAN.width_m, FLOORPLAN.height_m, nx, ny,
    )
    matrix, base_rhs = model._system_structure()
    return model, matrix, base_rhs


class TestFamilyProperties:
    """The two properties the anchored Krylov space relies on. If
    conduction or convection ever starts to depend on flow, these fail
    first: the solver takes ``D`` from the family's advection stamp and
    would then no longer be fast (its residual check would still hand
    the misses to a direct LU)."""

    @pytest.mark.parametrize("inlet", [300.0, 310.15])
    @pytest.mark.parametrize("nx, ny", [(22, 11), (88, 44)])
    def test_matrix_is_affine_in_flow(self, inlet, nx, ny):
        """``A(q) - A(q0) == (q - q0) D`` with ``D`` on the fluid rows,
        and ``D`` is the family's advection stamp at unit flow (the one
        the solver uses)."""
        model0, a0, _ = _system(48.0, inlet, nx, ny)
        model1, a1, _ = _system(170.0, inlet, nx, ny)
        q0 = model0.coolant_flow_m3_s
        drift = (a1 - a0) / (model1.coolant_flow_m3_s - q0)
        drift.eliminate_zeros()
        fluid = model0._field("channels", "fluid")
        assert np.array_equal(
            np.flatnonzero(np.diff(drift.indptr)),
            fluid.offset + np.arange(nx * ny),
        )
        stamp = _family(inlet, nx, ny).at_flow(1.0)._advection()[0]
        assert abs(stamp - drift).max() <= 1e-14 * abs(drift).max()
        for flow in (20.0, 300.0, 676.0, 1352.0):
            model, a, _ = _system(flow, inlet, nx, ny)
            gap = a - a0 - (model.coolant_flow_m3_s - q0) * drift
            assert abs(gap).max() <= 1e-14 * abs(a).max()

    @pytest.mark.parametrize("inlet", [300.0, 310.15])
    @pytest.mark.parametrize("flow", [20.0, 676.0, 1352.0])
    def test_inlet_start_leaves_the_sources(self, flow, inlet):
        """``A(q) @ full(T_inlet) == base_rhs``: from the inlet temperature
        the residual is the power sources alone, for every flow."""
        model, a, base_rhs = _system(flow, inlet)
        start = np.full(model.n_dof, model.inlet_temperature_k)
        np.testing.assert_allclose(
            a @ start, base_rhs, rtol=0.0, atol=1e-14 * abs(base_rhs).max()
        )


def _weighted_model(flow):
    """Case-study model whose channel allocation skews with flow: the
    matrix is then not affine in the model's flow."""
    stack = build_thermal_stack(flow, 300.0)
    channels = stack.layers[2]
    weights = tuple(1.0 + k * flow / 500.0 for k in range(22))
    stack = LayerStack([
        *stack.layers[:2],
        replace(channels, flow_weights=weights),
        *stack.layers[3:],
    ])
    model = ThermalModel(stack, FLOORPLAN.width_m, FLOORPLAN.height_m, 22, 11)
    model.set_power_map("active_si", full_load_power_map(22, 11, FLOORPLAN))
    return model


class TestOffTheLine:
    """A model off the family's line never reaches the Krylov space: it
    is rejected at the boundary. A wrong anchor is replaced in training,
    and the counters say how."""

    @pytest.mark.parametrize("outsider", [
        pytest.param(
            lambda: build_thermal_model(nx=22, ny=11, total_flow_ml_min=400),
            id="fresh-model",
        ),
        pytest.param(lambda: _weighted_model(400), id="flow-weighted"),
        pytest.param(
            lambda: _at_flow(_family(inlet=310.15), 400), id="other-inlet",
        ),
    ])
    def test_rejects_a_model_outside_the_family(self, outsider):
        """A fresh build, a flow-dependent channel allocation and another
        inlet's family all carry their own conduction matrix: rejected in
        training and in solves."""
        family = _family()
        with pytest.raises(ConfigurationError, match="at_flow"):
            AnchoredSteadySolver(family, [outsider()])
        solver = _solver(family)
        with pytest.raises(ConfigurationError, match="at_flow"):
            solver.solve(outsider())
        solver.solve(_at_flow(family, 400))
        model = outsider()
        with pytest.raises(ConfigurationError, match="at_flow"):
            solver.solve_columns(model, model.rhs_columns("active_si", [
                full_load_power_map(22, 11, FLOORPLAN),
            ]))
        assert solver.factorizations == 1

    def test_inaccurate_anchor_falls_back(self, monkeypatch):
        """An anchor LU of the wrong matrix fails the true residual check
        in training: the fully pivoted factorization becomes the anchor,
        and every column is then answered by the space."""
        fast_splu = batch._fast_splu
        monkeypatch.setattr(
            batch, "_fast_splu", lambda matrix: fast_splu(matrix * 1.001)
        )
        obs.start()
        try:
            family = _family()
            solver = _solver(family)
            for flow in (400, 300, 500):
                anchored = solver.solve(_at_flow(family, flow))
                np.testing.assert_allclose(
                    anchored.temperatures_k, _direct(flow).temperatures_k,
                    rtol=1e-9, atol=1e-7,
                )
            counters = obs.snapshot()["counters"]
        finally:
            obs.stop()
        assert counters["thermal.steady.fallbacks"] == 1
        assert counters["thermal.steady.reanchors"] == 0
        assert solver.factorizations == 2
        assert solver.anchored_solves == 3


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


class TestBatchInvariance:
    """A stepped or steady column is the same bits at any batch width:
    each column takes its own triangular solve (a multi-column SuperLU
    solve rounds differently at different widths)."""

    WIDTH = 17

    @pytest.fixture(scope="class")
    def columns(self):
        model = build_thermal_model(nx=22, ny=11)
        rng = np.random.default_rng(17)
        rhs = model.rhs_columns("active_si", [
            rng.uniform(0.0, 0.05, (11, 22)) for _ in range(self.WIDTH)
        ])
        return AnchoredTransientSolver(model), rhs

    def test_steady_columns_together_and_alone(self, columns):
        solver, rhs = columns
        together = solver.solve_steady_columns(rhs)
        alone = np.column_stack([
            solver.solve_steady_columns(rhs[:, [k]])[:, 0]
            for k in range(self.WIDTH)
        ])
        assert np.array_equal(together, alone)

    def test_step_columns_together_and_alone(self, columns):
        solver, rhs = columns
        states = solver.solve_steady_columns(rhs)
        after = rhs[:, ::-1]
        together = solver.step_columns(states, after, 0.05)
        alone = np.column_stack([
            solver.step_columns(states[:, [k]], after[:, [k]], 0.05)[:, 0]
            for k in range(self.WIDTH)
        ])
        assert np.array_equal(together, alone)
        # And each column is the scalar stepper's step.
        model = solver.model
        lu = model.transient_lu(0.05)
        scalar = lu.solve(
            after[:, 3] + (model._capacitance / 0.05) * states[:, 3]
        )
        assert np.array_equal(together[:, 3], scalar)

    def test_steady_solves_share_one_checked_solve(self):
        """Steady columns and ``solve_steady`` run the one checked solve:
        a residual above 1e-6 relative is rejected as ill-posed, and
        non-finite temperatures as a convergence failure."""
        from repro.errors import ConvergenceError
        from repro.thermal.solver import checked_steady_solve

        model = build_thermal_model(nx=22, ny=11)
        matrix, rhs = model._build_system()
        assert np.array_equal(
            checked_steady_solve(matrix, model.steady_lu(), rhs),
            model.solve_steady().temperatures_k,
        )
        assert np.array_equal(
            AnchoredTransientSolver(model).solve_steady_columns(
                rhs[:, None]
            )[:, 0],
            model.solve_steady().temperatures_k,
        )
        other = build_thermal_model(nx=22, ny=11, total_flow_ml_min=100.0)
        with pytest.raises(ConfigurationError, match="ill-posed"):
            checked_steady_solve(matrix, other.steady_lu(), rhs)

        class NanLU:
            def solve(self, rhs):
                return np.full_like(rhs, np.nan)

        with pytest.raises(ConvergenceError, match="non-finite"):
            checked_steady_solve(matrix, NanLU(), rhs)
