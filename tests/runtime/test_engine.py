"""Tests for the closed-loop runtime engine.

All engine runs here use the reduced 22 x 11 raster (trajectory KPIs are
raster-insensitive, as in the transient co-sim tests) and short traces,
so the whole module stays in test-suite time budgets. Single scenarios
run as one-lane :class:`BatchedRuntimeEngine` calls, exactly as the CLI,
the serve job and the serial sweep evaluator run them. Every lane runs
the hysteresis governor and a fresh case-study reservoir; tests reach
throttling and depletion by patching the governor's and the reservoir's
module constants.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime import (
    BatchedRuntimeEngine,
    FixedFlow,
    PIDFlowController,
    RuntimeConfig,
    RuntimeResult,
    TraceSegment,
    WorkloadTrace,
    controllers,
    state,
    step_trace,
)

from tests.runtime.electrolyte_oracle import ElectrolyteState


def config(**overrides) -> RuntimeConfig:
    base = dict(nx=22, ny=11)
    base.update(overrides)
    return RuntimeConfig(**base)


def short_step() -> WorkloadTrace:
    return step_trace(0.1, 1.0, hold_before_s=0.2, hold_after_s=0.4)


def engine_for(controller, **overrides):
    """A one-lane engine: the single-scenario form of the runtime."""
    return BatchedRuntimeEngine([controller], config(**overrides))


def run_one(controller, trace=None, **overrides) -> RuntimeResult:
    engine = engine_for(controller, **overrides)
    return engine.run(trace if trace is not None else short_step())[0]


def tight_governor(monkeypatch):
    """Trip/release inside the reduced raster's swing, so the hysteresis
    engages mid-trace without a huge model."""
    monkeypatch.setattr(controllers, "TEMPERATURE_LIMIT_C", 36.0)
    monkeypatch.setattr(controllers, "RELEASE_PEAK_C", 34.0)
    monkeypatch.setattr(controllers, "THROTTLE_SCALE", 0.5)


class TestRuntimeConfig:
    @pytest.mark.parametrize("kwargs", [
        {"pump_efficiency": 0.0},
        {"pump_efficiency": 1.1},
        {"nx": 23},  # not a multiple of the 11 channel groups
        # A -1 V config used to run the step trace to -113.8 J net.
        {"operating_voltage_v": -1.0},
        {"operating_voltage_v": 0.0},
        {"inlet_temperature_k": -1.0},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            config(**kwargs)


    @pytest.mark.parametrize("inlet_k", [240.0, 460.0])
    def test_rejects_inlet_outside_surface_window(self, inlet_k):
        """An inlet the polarization surface cannot cover fails with the
        config, by name, not after the first steady solve and step."""
        with pytest.raises(ConfigurationError, match="inlet_temperature_k"):
            config(inlet_temperature_k=inlet_k)

    def test_runtime_spec_names_an_inlet_outside_the_window(self):
        from repro.sweep import ScenarioSpec
        from repro.sweep.evaluators import evaluate_spec

        spec = ScenarioSpec(evaluator="runtime", nx=22, ny=11,
                            inlet_temperature_k=460.0)
        with pytest.raises(ConfigurationError, match="inlet_temperature_k"):
            evaluate_spec(spec)


class TestEngineTrajectory:
    @pytest.fixture(scope="class")
    def fixed_result(self) -> RuntimeResult:
        return run_one(FixedFlow(676.0))

    def test_covers_the_trace_exactly(self, fixed_result):
        trace = short_step()
        assert fixed_result.trace_name == "step"
        assert fixed_result.duration_s == pytest.approx(trace.duration_s)
        assert len(fixed_result.samples) == len(
            list(trace.iter_steps(0.05))
        )
        assert fixed_result.samples[-1].time_s == pytest.approx(
            trace.duration_s
        )

    def test_fixed_flow_is_represented_exactly(self, fixed_result):
        # The quantization grid is anchored at the controller's initial
        # flow, so the fixed nominal command is never snapped away.
        flows = {s.flow_ml_min for s in fixed_result.samples}
        assert flows == {676.0}

    def test_quantization_grid_is_anchored_at_the_initial_flow(self):
        engine = engine_for(FixedFlow(676.0))

        def quantize(flow):
            return float(engine._quantize_flows(np.array([flow]))[0])

        assert quantize(676.0) == 676.0
        assert quantize(670.0) == 676.0   # nearest grid point
        assert quantize(655.0) == 660.0   # 676 - 16
        assert quantize(100.0) == 100.0   # 676 - 36*16
        # Commands can never quantize to zero or below.
        assert quantize(1.0) >= 16.0

    def test_step_heats_the_chip(self, fixed_result):
        samples = fixed_result.samples
        before = samples[3].peak_temperature_c   # end of the 0.1 phase
        after = samples[-1].peak_temperature_c
        assert after > before + 5.0
        # Generated current follows the warming coolant.
        assert samples[-1].array_current_a > samples[0].array_current_a

    def test_energy_kpis_are_consistent(self, fixed_result):
        k = fixed_result.kpis()
        assert k["net_energy_j"] == pytest.approx(
            k["harvested_energy_j"] - k["pumping_energy_j"]
        )
        assert k["mean_net_w"] == pytest.approx(
            k["net_energy_j"] / fixed_result.duration_s
        )
        assert k["n_samples"] == len(fixed_result.samples)
        assert k["violation_time_fraction"] == 0.0

    def test_records_export_one_row_per_sample(self, fixed_result, tmp_path):
        records = fixed_result.records()
        assert len(records) == len(fixed_result.samples)
        assert records[0]["workload"] == "full load"
        path = fixed_result.save_csv(tmp_path / "trajectory.csv")
        from repro.io import load_csv

        loaded = load_csv(path)
        assert len(loaded) == len(records)
        assert loaded[0]["flow_ml_min"] == 676.0

    def test_deterministic_across_engines(self, fixed_result):
        again = run_one(FixedFlow(676.0))
        assert again.kpis() == pytest.approx(
            fixed_result.kpis(), nan_ok=True
        )

    def test_engine_is_reusable_across_runs(self):
        engine = engine_for(PIDFlowController(initial_flow_ml_min=300.0))
        [first] = engine.run(short_step())
        [second] = engine.run(short_step())
        assert second.kpis() == first.kpis()


class TestClosedLoop:
    def test_pid_sheds_flow_on_a_cool_chip(self):
        result = run_one(PIDFlowController(initial_flow_ml_min=676.0))
        # The 22 x 11 raster runs far below the 78 C setpoint, so the
        # controller walks the flow down toward its minimum.
        assert result.samples[-1].flow_ml_min < 200.0
        assert result.mean_flow_ml_min < 676.0
        assert result.net_energy_j > 0.0

    def test_only_initial_flow_models_factorize_the_steady_matrix(self):
        """The steady LU serves only the initial state; every flow the
        PID visits afterwards only steps, so its kept model holds step
        factorizations alone."""
        from repro.casestudy.power7plus import (
            clear_thermal_families,
            thermal_family,
        )

        clear_thermal_families()
        run_one(
            PIDFlowController(initial_flow_ml_min=676.0),
            step_trace(0.1, 1.0, hold_before_s=0.2, hold_after_s=1.0),
        )
        cfg = config()
        store = thermal_family(cfg.inlet_temperature_k, cfg.nx, cfg.ny)._kept
        assert len(store) > 2
        for flow, model in store.items():
            assert (model._steady_lu is not None) == (flow == 676.0), flow
            assert model._transient_lus or flow == 676.0

    def test_governor_throttles_and_recovers(self, monkeypatch):
        tight_governor(monkeypatch)
        result = run_one(
            FixedFlow(676.0),
            step_trace(0.1, 1.0, hold_before_s=0.2, hold_after_s=1.0),
        )
        assert 0.0 < result.throttled_time_fraction < 1.0
        throttled = [s for s in result.samples if s.throttled]
        assert all(s.activity_scale == 0.5 for s in throttled)
        # Throttling sheds real power: the hottest throttled sample stays
        # below the hottest unthrottled one.
        unthrottled_peak = max(
            s.peak_temperature_c for s in result.samples if not s.throttled
        )
        assert result.peak_temperature_c == pytest.approx(
            unthrottled_peak, abs=2.0
        )

    def test_runtime_specs_read_the_governor_limits_at_call_time(
        self, monkeypatch
    ):
        """Every production lane runs the one governor, whose limits a
        probe moves by patching the module; a 22 x 11 ``runtime`` spec
        then throttles."""
        from repro.sweep import ScenarioSpec
        from repro.sweep.evaluators import run_runtime_scenarios

        spec = ScenarioSpec(evaluator="runtime", nx=22, ny=11)
        monkeypatch.setattr(controllers, "TEMPERATURE_LIMIT_C", 36.0)
        monkeypatch.setattr(controllers, "RELEASE_PEAK_C", 34.0)
        [(_, result)] = run_runtime_scenarios([spec])
        throttled = [s for s in result.samples if s.throttled]
        assert throttled
        assert all(
            s.activity_scale == controllers.THROTTLE_SCALE for s in throttled
        )

    def test_violation_accounting(self, monkeypatch):
        from repro.runtime import engine

        monkeypatch.setattr(engine, "TEMPERATURE_LIMIT_C", 35.0)
        result = run_one(FixedFlow(676.0))
        assert result.n_violations > 0
        assert 0.0 < result.violation_time_fraction <= 1.0
        assert result.peak_temperature_c > 35.0

    def test_boost_utilization_runs_hotter_than_full_load(self):
        def run(utilization):
            trace = WorkloadTrace("boost", (
                TraceSegment(0.3, utilization),
            ))
            return run_one(FixedFlow(676.0), trace)

        assert (
            run(1.5).peak_temperature_c > run(1.0).peak_temperature_c
        )


class TestReservoirCoupling:
    def test_default_tanks_barely_dent_the_soc(self):
        result = run_one(FixedFlow(676.0))
        socs = [s.state_of_charge for s in result.samples]
        assert socs[-1] < socs[0]
        assert socs[0] - socs[-1] < 1e-3
        assert not math.isnan(result.final_state_of_charge)

    def test_soc_declines_along_the_trace(self, monkeypatch):
        monkeypatch.setattr(state, "TANK_VOLUME_M3", 1e-5)
        result = run_one(FixedFlow(676.0))
        socs = [s.state_of_charge for s in result.samples]
        assert socs[-1] < socs[0]
        assert all(s.generated_w > 0.0 for s in result.samples)

    def test_depletion_stops_generation(self, monkeypatch):
        monkeypatch.setattr(state, "TANK_VOLUME_M3", 1e-8)
        result = run_one(FixedFlow(676.0))
        assert result.samples[-1].generated_w == 0.0
        assert result.final_state_of_charge == pytest.approx(
            state.MIN_SOC, abs=1e-6
        )
        # Pumping continues regardless: net goes negative once the
        # reservoirs are spent.
        assert result.samples[-1].net_w < 0.0

    def test_each_run_starts_from_fresh_tanks(self, monkeypatch):
        monkeypatch.setattr(state, "TANK_VOLUME_M3", 1e-5)
        engine = engine_for(FixedFlow(676.0))
        [first] = engine.run(short_step())
        [second] = engine.run(short_step())
        assert second.samples == first.samples


class TestLaneIndependence:
    @staticmethod
    def lanes():
        """Fresh controllers of a mixed batch: fixed and PID, different
        gains and initial flows."""
        return [
            FixedFlow(676.0),
            PIDFlowController(initial_flow_ml_min=300.0),
            PIDFlowController(initial_flow_ml_min=1352.0, kp=200.0),
            FixedFlow(400.0),
            PIDFlowController(kp=80.0, ki=10.0, initial_flow_ml_min=676.0),
        ]

    @pytest.mark.parametrize("volume_m3", [1e-5, 1e-8])
    def test_each_lane_matches_its_one_lane_run(self, monkeypatch, volume_m3):
        tight_governor(monkeypatch)
        monkeypatch.setattr(state, "TANK_VOLUME_M3", volume_m3)
        trace = step_trace(0.1, 1.0, hold_before_s=0.2, hold_after_s=1.0)
        batched = BatchedRuntimeEngine(self.lanes(), config()).run(trace)
        # The batch really exercises what it claims to.
        assert len({s.flow_ml_min for r in batched for s in r.samples}) > 3
        assert any(s.throttled for r in batched for s in r.samples)
        assert any(not s.throttled for r in batched for s in r.samples)
        depleted = [r.samples[-1].generated_w == 0.0 for r in batched]
        assert all(depleted) == (volume_m3 == 1e-8)
        assert any(depleted) == (volume_m3 == 1e-8)

        for lane, controller in enumerate(self.lanes()):
            alone = run_one(controller, trace)
            assert len(alone.samples) == len(batched[lane].samples)
            for a, b in zip(alone.samples, batched[lane].samples):
                # Bit-identical in every field.
                assert repr(a) == repr(b), lane


class TestScalarOracle:
    """The engine against an independent per-step march built from the
    scalar pieces: ``ThermalModel.solve_transient`` for the thermal step
    and the oracle's :meth:`ElectrolyteState.step` for the tanks."""

    @staticmethod
    def scalar_march(trace, flow_ml_min, cfg, reservoir):
        from repro.casestudy.power7plus import (
            array_pumping_power_w,
            build_thermal_model,
        )
        from repro.casestudy.workloads import standard_workloads
        from repro.cosim.coupling import coolant_columns
        from repro.cosim.surface import PolarizationSurface
        from repro.runtime.engine import CONTROL_DT_S

        workloads = {w.name: w for w in standard_workloads()}

        def power(segment):
            base = workloads[segment.workload].power_map(cfg.nx, cfg.ny)
            return base * segment.utilization

        model = build_thermal_model(
            nx=cfg.nx, ny=cfg.ny, total_flow_ml_min=flow_ml_min,
            inlet_temperature_k=cfg.inlet_temperature_k,
        )
        surface = PolarizationSurface.shared(flow_ml_min)
        pumping = array_pumping_power_w(
            flow_ml_min, pump_efficiency=cfg.pump_efficiency
        )
        model.set_power_map("active_si", power(trace.segments[0]))
        state = model.solve_steady()
        rows = []
        for _, step_dt, segment in trace.iter_steps(CONTROL_DT_S):
            model.set_power_map("active_si", power(segment))
            state = model.solve_transient(
                duration_s=step_dt, dt_s=step_dt, initial=state
            )
            temps = coolant_columns(
                state.model, state.temperatures_k[:, None]
            )[0][0]
            current = float(
                surface.currents_at(temps, cfg.operating_voltage_v).sum()
            )
            current = reservoir.step(current, step_dt)
            rows.append({
                "peak_temperature_c": state.peak_celsius,
                "mean_coolant_c":
                    float(state.field("channels", "fluid").mean()) - 273.15,
                "pumping_w": pumping,
                "array_current_a": current,
                "net_w": current * cfg.operating_voltage_v - pumping,
                "state_of_charge": reservoir.state_of_charge,
            })
        return rows

    def test_fixed_flow_lane_matches_the_scalar_march(self, monkeypatch):
        from repro.sweep.vectorized import EQUIVALENCE_RTOL

        monkeypatch.setattr(state, "TANK_VOLUME_M3", 1e-5)
        trace = short_step()
        cfg = config()
        result = run_one(FixedFlow(676.0), trace)
        # The default governor never trips on the reduced raster, so the
        # scalar march runs unthrottled.
        assert result.throttled_time_fraction == 0.0
        expected = self.scalar_march(trace, 676.0, cfg, ElectrolyteState())
        assert len(result.samples) == len(expected)
        for sample, row in zip(result.samples, expected):
            got = dataclasses.asdict(sample)
            for name in ("peak_temperature_c", "mean_coolant_c", "pumping_w"):
                assert got[name] == row[name], name
            for name in ("array_current_a", "net_w", "state_of_charge"):
                assert got[name] == pytest.approx(
                    row[name], rel=EQUIVALENCE_RTOL
                ), name


class TestEngineInputs:
    def test_rejects_an_empty_batch(self):
        with pytest.raises(ConfigurationError):
            BatchedRuntimeEngine([], config())

    def test_rejects_an_unsupported_controller_by_name(self):
        class Custom:
            initial_flow_ml_min = 676.0

        with pytest.raises(ConfigurationError, match="Custom"):
            BatchedRuntimeEngine([FixedFlow(676.0), Custom()], config())
