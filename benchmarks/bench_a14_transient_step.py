"""Ablation A14 — transient utilization step and the co-sim hot path.

Two measurements of the electro-thermal machinery the DVFS-style studies
lean on:

- the step response itself (idle -> full load through the transient
  co-simulation): trajectory shape, settling time and generated-current
  swing, the scenario family behind the ``transient`` sweep preset;
- the steady co-simulation against a faithful pre-refactor baseline that
  rebuilds every group polarization curve in every fixed-point iteration,
  asserting the shared :class:`~repro.cosim.surface.PolarizationSurface`
  path reproduces its currents within 0.5 % while running >= 5x faster.

``REPRO_BENCH_SMOKE=1`` shrinks the raster and horizon so CI can exercise
the hot path on every push without paying the full-size timings.
"""

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import artifact, emit
from repro.casestudy.power7plus import build_array_cell, build_thermal_model
from repro.core.report import format_table
from repro.cosim import CosimConfig, ElectroThermalCosim, TransientCosim
from repro.cosim.coupling import MAX_ITERATIONS, TOLERANCE_K
from repro.cosim.surface import (
    CHANNELS_PER_GROUP,
    MAX_OVERPOTENTIAL_V,
    N_CHANNEL_GROUPS,
    N_CURVE_POINTS,
)
from repro.flowcell.array import FlowCellArray

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Steady co-sim configuration under test: the default CosimConfig (the
#: acceptance point), or a reduced raster in smoke mode.
STEADY_CONFIG = (
    CosimConfig(nx=22, ny=11) if SMOKE else CosimConfig()
)

TRANSIENT_CONFIG = CosimConfig(nx=22, ny=11)
STEP_DURATION_S = 0.2 if SMOKE else 0.5
STEP_DT_S = 0.05


def _legacy_run(config: CosimConfig):
    """The pre-refactor coupling loop: direct curve construction per
    iteration, fresh thermal model — the measurement baseline the
    surface-backed :meth:`ElectroThermalCosim.run` is judged against.
    """
    groups = N_CHANNEL_GROUPS
    voltage = config.operating_voltage_v

    def group_curve(temperature_k):
        cell = build_array_cell(
            total_flow_ml_min=config.total_flow_ml_min,
            temperature_k=temperature_k,
            temperature_dependent=True,
        )
        return cell.polarization_curve(
            n_points=N_CURVE_POINTS,
            max_overpotential_v=MAX_OVERPOTENTIAL_V,
        ).scaled(CHANNELS_PER_GROUP)

    def group_current(curve):
        return FlowCellArray.combine_at_voltage([curve], voltage)

    isothermal = groups * group_current(group_curve(config.inlet_temperature_k))
    model = build_thermal_model(
        nx=config.nx, ny=config.ny,
        total_flow_ml_min=config.total_flow_ml_min,
        inlet_temperature_k=config.inlet_temperature_k,
    )
    columns = config.nx // groups
    temperatures = np.full(groups, config.inlet_temperature_k)
    group_currents = np.zeros(groups)
    for iteration in range(1, MAX_ITERATIONS + 1):
        thermal = model.solve_steady()
        fluid = thermal.field("channels", "fluid")
        new_temperatures = np.array([
            float(fluid[:, g * columns:(g + 1) * columns].mean())
            for g in range(groups)
        ])
        shift = float(np.max(np.abs(new_temperatures - temperatures)))
        temperatures = new_temperatures
        curves = [group_curve(t) for t in temperatures]
        group_currents = np.array([group_current(c) for c in curves])
        ocvs = np.array([c.open_circuit_voltage_v for c in curves])
        heat = np.zeros((config.ny, config.nx))
        for g in range(groups):
            loss = max(0.0, ocvs[g] - voltage) * group_currents[g]
            cells = columns * config.ny
            heat[:, g * columns:(g + 1) * columns] = loss / cells
        model.set_power_map("channels", heat, kind="fluid")
        if shift < TOLERANCE_K and iteration > 1:
            break
    return group_currents, float(group_currents.sum()), isothermal


def test_a14_hot_path_speedup():
    """Surface-backed co-sim vs per-iteration curve rebuilds."""
    t0 = time.perf_counter()
    legacy_groups, legacy_total, legacy_iso = _legacy_run(STEADY_CONFIG)
    legacy_s = time.perf_counter() - t0

    cosim = ElectroThermalCosim(STEADY_CONFIG)
    cosim.run()  # cold: populates the shared surface + factorization
    # Best-of-3 for the warm side: its window is milliseconds, so a single
    # scheduler preemption on a loaded CI runner could fake a slowdown.
    warm_s = float("inf")
    for _ in range(3):
        t1 = time.perf_counter()
        result = cosim.run()
        warm_s = min(warm_s, time.perf_counter() - t1)

    speedup = legacy_s / warm_s
    emit(
        "A14 — co-sim hot path: shared surface vs per-iteration rebuild",
        format_table(
            ["path", "wall [s]", "I_array [A]", "I_isothermal [A]"],
            [
                ["per-iteration rebuild", legacy_s, legacy_total, legacy_iso],
                ["shared surface (warm)", warm_s, result.array_current_a,
                 result.isothermal_current_a],
                ["speedup", speedup, "", ""],
            ],
        ),
    )
    artifact("A14", {
        "legacy_s": legacy_s,
        "warm_s": warm_s,
        "hot_path_speedup": speedup,
        "array_current_a": result.array_current_a,
    })
    # Acceptance: currents within 0.5 % of the direct-curve results...
    assert result.array_current_a == pytest.approx(legacy_total, rel=5e-3)
    assert result.isothermal_current_a == pytest.approx(legacy_iso, rel=5e-3)
    np.testing.assert_allclose(
        result.group_currents_a, legacy_groups, rtol=5e-3
    )
    # ...at >= 5x the speed (typically far more; the warm path is a few
    # triangular solves plus interpolation).
    assert speedup >= 5.0


def test_a14_transient_step(benchmark):
    cosim = TransientCosim(TRANSIENT_CONFIG)

    def run():
        return cosim.run_step_response(
            0.1, 1.0, duration_s=STEP_DURATION_S, dt_s=STEP_DT_S
        )

    samples = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "A14 — idle -> full-load step response",
        format_table(
            ["t [s]", "peak [C]", "coolant [C]", "I [A]"],
            [
                [s.time_s, s.peak_temperature_c, s.mean_coolant_c,
                 s.array_current_a]
                for s in samples
            ],
        ),
    )
    # The horizon is covered exactly: last sample at duration_s.
    assert samples[-1].time_s == pytest.approx(STEP_DURATION_S)
    # Step up: the peak rises monotonically toward the full-load steady
    # state and the generated current follows the warming coolant.
    peaks = [s.peak_temperature_c for s in samples]
    assert all(a <= b + 1e-6 for a, b in zip(peaks, peaks[1:]))
    assert samples[-1].array_current_a > samples[0].array_current_a
    # Settling (95 % band) happens within the simulated horizon.
    settle = TransientCosim.settling_time_s(samples)
    artifact("A14", {
        "settling_time_s": settle,
        "final_peak_c": peaks[-1],
    })
    assert 0.0 < settle <= STEP_DURATION_S
