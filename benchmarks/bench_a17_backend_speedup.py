"""Ablation A17 — pluggable evaluation backends on the sweep hot path.

The design-space studies (flow optimum, geometry Pareto fronts) funnel
every scenario through one of two
:class:`~repro.sweep.backends.EvaluationBackend` strategies. This bench
races them on the two presets the paper's design questions densify most —
``flow`` and ``geometry`` — and asserts:

- the :class:`~repro.sweep.backends.VectorizedBackend` (one
  polarization march per batch, anchored thermal factorizations,
  stacked RHS columns) beats the
  :class:`~repro.sweep.backends.SerialBackend` (the same evaluators in
  batches of one) by >= 1.5x on both presets, so the race is over
  thermal sharing and batching,
- while agreeing with the batches of one scenario by scenario within
  the documented :data:`~repro.sweep.vectorized.EQUIVALENCE_RTOL`,
- and both backends stay selectable from the Python API and the
  ``--backend`` CLI flag.

Every timed run starts cold: the array-curve cache and the sweep cache
are cleared per measurement,
so the race measures the backends, not cache luck.

``REPRO_BENCH_SMOKE=1`` shrinks the grids so CI can exercise the whole
matrix on every push.
"""

import os
import time

import pytest

from benchmarks.conftest import artifact, emit, obs_artifacts
from repro.core.report import format_table
from repro.sweep import (
    SerialBackend,
    SweepRunner,
    VectorizedBackend,
    get_preset,
)
from repro.sweep.evaluators import clear_array_curves
from repro.sweep.vectorized import EQUIVALENCE_RTOL

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Grid densities per preset: dense enough that per-scenario physics
#: dominates fixed overheads, small enough for CI smoke runs.
POINTS = {"flow": 8 if SMOKE else 16, "geometry": 8 if SMOKE else 16}

#: Acceptance floor for vectorized vs serial. Both march the same
#: polarization curves (serial in batches of one), so the race
#: measures shared thermal factorizations and one march per batch
#: against per-scenario work. On a 2-vCPU box, cold, at 8 and 16 points
#: the ratio read 2.0-3.9x on both presets.
MIN_SPEEDUP = 1.5


def _cold_run(backend, specs) -> "tuple[float, object]":
    """Time one backend over the specs with every cache cold."""
    clear_array_curves()
    runner = SweepRunner(backend=backend)
    start = time.perf_counter()
    results = runner.run(specs)
    return time.perf_counter() - start, results


def _worst_relative_deviation(reference, other) -> float:
    worst = 0.0
    for a, b in zip(reference, other):
        assert a.spec == b.spec
        for name in a.metrics:
            scale = max(abs(a.metrics[name]), 1.0)
            worst = max(worst, abs(a.metrics[name] - b.metrics[name]) / scale)
    return worst


@pytest.mark.parametrize("preset_name", ["flow", "geometry"])
def test_a17_backend_speedup(benchmark, preset_name):
    specs = get_preset(preset_name).expand(POINTS[preset_name])

    serial_s, serial = _cold_run(SerialBackend(), specs)

    def vectorized_run():
        return _cold_run(VectorizedBackend(), specs)

    vectorized_s, vectorized = benchmark.pedantic(
        vectorized_run, rounds=1, iterations=1
    )

    deviation = _worst_relative_deviation(serial, vectorized)
    emit(
        f"A17 — backend race on the '{preset_name}' preset "
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

    artifact("A17", {
        f"{preset_name}_serial_s": serial_s,
        f"{preset_name}_vectorized_s": vectorized_s,
        f"{preset_name}_speedup": serial_s / vectorized_s,
        f"{preset_name}_worst_rel_dev": deviation,
    })
    obs_artifacts(f"A17_{preset_name}")
    # Equivalence first: a fast wrong answer is not a speedup.
    assert deviation <= EQUIVALENCE_RTOL
    # The headline: batched evaluation beats batches of one on the
    # presets the optimizer's refinement rounds hammer.
    assert serial_s / vectorized_s >= MIN_SPEEDUP


def test_a17_backends_selectable_everywhere():
    """Both backends resolve by name from the API and the CLI."""
    from repro.cli import main
    from repro.sweep import get_backend

    for name in ("serial", "vectorized"):
        assert SweepRunner(backend=name).backend.name == name
        assert get_backend(name).name == name
    # The CLI threads --backend through to the runner (tiny grid: the
    # point is the plumbing, not the physics).
    assert main([
        "sweep", "flow", "--points", "2", "--backend", "vectorized",
    ]) == 0
    assert main([
        "optimize", "vrm-tradeoff", "--backend", "vectorized",
    ]) == 0
