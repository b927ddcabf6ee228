"""One kept thermal family per (inlet, raster), shared by every caller.

The steady evaluators, the step responses and the closed-loop runtime
all solve the case-study chip at different flows; they draw their flows
from the one :class:`~repro.casestudy.power7plus.ThermalFamily` a process
keeps per ``(inlet, nx, ny)``.
"""

import pytest

from repro import obs
from repro.casestudy import power7plus
from repro.casestudy.power7plus import (
    ThermalFamily,
    clear_thermal_families,
    thermal_family,
)
from repro.io import csv_dumps
from repro.runtime import (
    BatchedRuntimeEngine,
    PIDFlowController,
    RuntimeConfig,
    step_trace,
)
from repro.sweep import ScenarioSpec
from repro.sweep.evaluators import get_evaluator
from repro.thermal.model import ThermalModel

INLET = 300.0
CONFIG = RuntimeConfig(nx=22, ny=11, inlet_temperature_k=INLET)


@pytest.fixture(autouse=True)
def cold_families():
    clear_thermal_families()
    yield
    clear_thermal_families()


def steady_sweep() -> None:
    """An ``operating_point`` batch on the runtime's family."""
    get_evaluator("operating_point")([
        ScenarioSpec(
            evaluator="operating_point", total_flow_ml_min=flow,
            inlet_temperature_k=INLET, nx=22, ny=11,
        )
        for flow in (150.0, 676.0)
    ])


def runtime_engine() -> BatchedRuntimeEngine:
    return BatchedRuntimeEngine(
        [PIDFlowController(initial_flow_ml_min=676.0)], CONFIG
    )


def runtime_export(engine=None) -> str:
    """A PID run that visits many flows, as its CSV export."""
    engine = engine if engine is not None else runtime_engine()
    [result] = engine.run(
        step_trace(0.1, 1.0, hold_before_s=0.2, hold_after_s=1.0)
    )
    return csv_dumps(result.records())


class TestSharing:
    def test_steady_sweep_and_runtime_share_one_conduction_matrix(self):
        steady_sweep()
        engine = runtime_engine()
        runtime_export(engine)
        family = thermal_family(INLET, 22, 11)
        conduction = family.model._conduction
        assert conduction is not None
        assert family.steady_solver._conduction is conduction
        assert engine._solvers
        for solver in engine._solvers.values():
            assert solver.model._conduction is conduction

    def test_runtime_export_is_the_same_cold_warm_and_evicted(
        self, monkeypatch
    ):
        """A runtime export does not depend on what the process kept: a
        cold family, one warmed by a steady sweep, and families evicted
        while the engine runs give the same bytes."""
        cold = runtime_export()

        clear_thermal_families()
        steady_sweep()
        assert runtime_export() == cold

        built = []
        init = ThermalFamily.__init__

        def counting_init(family, *args):
            built.append(family)
            init(family, *args)

        solver = BatchedRuntimeEngine._solver

        def evicting_solver(engine, flow_ml_min):
            clear_thermal_families()
            return solver(engine, flow_ml_min)

        clear_thermal_families()
        monkeypatch.setattr(ThermalFamily, "__init__", counting_init)
        monkeypatch.setattr(BatchedRuntimeEngine, "_solver", evicting_solver)
        assert runtime_export() == cold
        assert len(built) > 2

    def test_a_runtime_only_process_never_trains_the_steady_solver(self):
        runtime_export()
        family = thermal_family(INLET, 22, 11)
        assert family._kept
        assert family._solver is None

    def test_step_responses_derive_their_models_and_keep_none(
        self, monkeypatch
    ):
        """Step responses at two flows stamp the family's conduction
        once, and leave no model in the family's kept set."""
        from repro.cosim import CosimConfig
        from repro.cosim.batch import StepResponseCase, batched_step_responses

        stamps = []
        assemble = ThermalModel._assemble

        def counting_assemble(model):
            stamps.append(model)
            return assemble(model)

        monkeypatch.setattr(ThermalModel, "_assemble", counting_assemble)
        batched_step_responses([
            StepResponseCase(
                config=CosimConfig(
                    total_flow_ml_min=flow, inlet_temperature_k=INLET,
                    nx=22, ny=11,
                ),
                utilization_before=0.1, utilization_after=1.0,
                duration_s=0.1, dt_s=0.05,
            )
            for flow in (169.0, 676.0)
        ])
        family = thermal_family(INLET, 22, 11)
        assert stamps == [family.model]
        assert not family._kept


class TestFamily:
    def test_kept_models_are_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(ThermalFamily, "KEPT_MODELS_MAX", 2)
        family = thermal_family(INLET, 22, 11)
        obs.start()
        try:
            first = family.kept_model(100.0)
            second = family.kept_model(200.0)
            assert family.kept_model(100.0) is first  # now most recent
            family.kept_model(300.0)  # drops 200, the oldest
            warm = obs.snapshot()["warm"]["counters"]
        finally:
            obs.stop()
        assert list(family._kept) == [100.0, 300.0]
        assert family.kept_model(100.0) is first
        assert family.kept_model(200.0) is not second
        assert warm["runtime.model_builds"] == 3

    def test_the_process_keeps_a_bounded_set_of_families(self, monkeypatch):
        monkeypatch.setattr(power7plus, "_FAMILIES_MAX", 2)
        first = thermal_family(INLET, 22, 11)
        assert thermal_family(INLET, 22, 11) is first
        thermal_family(310.15, 22, 11)
        thermal_family(INLET, 44, 22)  # drops the oldest family
        assert list(power7plus._FAMILIES) == [
            (310.15, 22, 11), (INLET, 44, 22),
        ]
        assert thermal_family(INLET, 22, 11) is not first
