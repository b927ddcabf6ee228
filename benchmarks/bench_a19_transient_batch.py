"""Ablation A19 — batched transient + runtime kernels on the sweep path.

PR 5 vectorized the *steady* sweep hot path (bench A17); this bench
races the dynamic half. The ``transient`` evaluator marches whole
step-response sweeps in lockstep through
:func:`repro.cosim.batch.batched_step_responses` (one thermal model per
flow/inlet family, scenario states stacked as multi-RHS columns of the
exact backward-Euler factorizations), and the ``runtime`` evaluator
mounts every scenario of a trace group as a lane of
:class:`~repro.runtime.engine.BatchedRuntimeEngine` (vector PID/governor
state, array SOC, one multi-column thermal step per distinct flow per
control interval). The race asserts:

- the :class:`~repro.sweep.backends.VectorizedBackend` agrees with
  :class:`~repro.sweep.backends.SerialBackend` scenario by scenario
  *exactly* on both presets: both backends run the one evaluator of
  each kind (serial in one-case / one-lane batches) on the one
  polarization-curve construction;
- and the batched engine stays reachable from the CLI
  (``repro runtime``).

Neither preset carries a speed floor: with one stepper behind both
backends there is no second implementation left to outrun. The
wall times are reported and kept as artifacts; dynamic speed is gated
in absolute terms by the repository benchmark's ``dynamic-sweep``
workload instead.

Every timed run starts cold: the array-curve cache, the shared thermal-model store and the
polarization-surface store are all cleared per measurement, so the race
measures the backends, not cache luck.

``REPRO_BENCH_SMOKE=1`` shrinks the grids so CI can exercise the whole
matrix on every push.
"""

import os
import time

import pytest

from benchmarks.conftest import artifact, emit, obs_artifacts
from repro.core.report import format_table
from repro.cosim import PolarizationSurface
from repro.runtime.engine import clear_model_store
from repro.sweep import (
    SerialBackend,
    SweepRunner,
    VectorizedBackend,
    get_preset,
)
from repro.sweep.evaluators import clear_array_curves

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Grid densities per preset: the presets' default densities in smoke
#: mode (CI), denser grids otherwise so the per-scenario physics
#: dominates fixed overheads.
POINTS = {"transient": 8 if SMOKE else 16, "runtime": 4 if SMOKE else 8}


def _cold_run(backend, specs) -> "tuple[float, object]":
    """Time one backend over the specs with every shared cache cold."""
    clear_array_curves()
    clear_model_store()
    PolarizationSurface.clear_shared()
    runner = SweepRunner(backend=backend)
    start = time.perf_counter()
    results = runner.run(specs)
    return time.perf_counter() - start, results


def _worst_relative_deviation(reference, other) -> float:
    worst = 0.0
    for a, b in zip(reference, other):
        assert a.spec == b.spec
        for name in a.metrics:
            if a.metrics[name] != a.metrics[name]:  # nan KPI (no reservoir)
                assert b.metrics[name] != b.metrics[name]
                continue
            scale = max(abs(a.metrics[name]), 1.0)
            worst = max(worst, abs(a.metrics[name] - b.metrics[name]) / scale)
    return worst


@pytest.mark.parametrize("preset_name", ["transient", "runtime"])
def test_a19_dynamic_batch_speedup(benchmark, preset_name):
    specs = get_preset(preset_name).expand(POINTS[preset_name])

    serial_s, serial = _cold_run(SerialBackend(), specs)

    def vectorized_run():
        return _cold_run(VectorizedBackend(), specs)

    vectorized_s, vectorized = benchmark.pedantic(
        vectorized_run, rounds=1, iterations=1
    )

    deviation = _worst_relative_deviation(serial, vectorized)
    emit(
        f"A19 — dynamic backend race on the '{preset_name}' preset "
        f"({len(specs)} scenarios)",
        format_table(
            ["backend", "wall [s]", "vs serial", "worst rel dev"],
            [
                ["serial", serial_s, 1.0, 0.0],
                ["vectorized", vectorized_s, serial_s / vectorized_s,
                 deviation],
            ],
        ),
    )

    artifact("A19", {
        f"{preset_name}_serial_s": serial_s,
        f"{preset_name}_vectorized_s": vectorized_s,
        f"{preset_name}_speedup": serial_s / vectorized_s,
        f"{preset_name}_worst_rel_dev": deviation,
    })
    obs_artifacts(f"A19_{preset_name}")
    # With one stepper behind both backends, batching changes nothing.
    assert deviation == 0.0


def test_a19_batched_engine_reachable_from_cli():
    """`repro runtime` drives the batched engine."""
    from repro.cli import main

    assert main(["runtime", "--trace", "step"]) == 0
