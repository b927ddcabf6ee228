"""Step responses of the transient co-simulation, marched together.

This is the one stepper behind
:meth:`~repro.cosim.transient.TransientCosim.run_step_response` (a batch
of one) and the ``transient`` sweep evaluator. A transient *sweep* runs
dozens of trajectories whose thermal systems are nearly identical — the
``transient`` preset varies utilization pairs and step sizes far more
often than it varies the matrix-defining knobs (flow, inlet, raster).

:func:`batched_step_responses` exploits that structure:

- scenarios sharing ``(flow, inlet, nx, ny)`` share one
  :class:`~repro.thermal.model.ThermalModel` — one sparse assembly, one
  steady LU for the initial conditions, one backward-Euler LU per distinct
  half step size;
- scenarios additionally sharing ``(duration, dt)`` march in *lockstep*:
  their states ride as stacked columns through
  :class:`~repro.thermal.batch.AnchoredTransientSolver`, so each time step
  costs one multi-RHS triangular solve instead of one solve per scenario;
- sampling takes every column sharing a configuration as one array
  (:func:`~repro.cosim.coupling.coolant_columns`, the steady loop's group
  partition, then one query of the shared
  :class:`~repro.cosim.surface.PolarizationSurface`) — after *prefilling*
  the surfaces: the group temperatures of all columns at each sample
  time go through one :func:`~repro.cosim.surface.warm_surfaces` call,
  so missing node curves are marched as one batch rather than one by
  one.

Equivalence: a case's trajectory is *bit-identical* whichever batch it
rides in, and to a direct march of
:meth:`~repro.thermal.model.ThermalModel.solve_steady` /
:meth:`~repro.thermal.model.ThermalModel.solve_transient` sampled on the
surface (``tests/cosim/test_transient.py`` holds that oracle). SuperLU solves
a multi-column right-hand side column by column, the stacked step formula
mirrors the scalar one elementwise, every sampling reduction sums one
contiguous run of a single column's values, and every surface node comes
from the one curve construction whoever builds it.
That matters because the temperatures feed discontinuous decisions
downstream (settling-band exits here, control branches in the runtime
layer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cosim.coupling import CosimConfig, coolant_columns
from repro.cosim.surface import surface_for, warm_surfaces
from repro.cosim.transient import TransientSample
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class StepResponseCase:
    """One utilization-step scenario of a batched transient run."""

    config: CosimConfig
    utilization_before: float
    utilization_after: float
    duration_s: float
    dt_s: float


def batched_step_responses(
    cases: "Sequence[StepResponseCase]",
) -> "list[list[TransientSample]]":
    """Step-response trajectories for every case, batch-marched.

    Returns one sample list per case, in input order. Each trajectory
    starts at the steady state of ``utilization_before``, switches the
    power map to ``utilization_after`` and samples every ``dt_s`` for
    ``duration_s``; full steps are two backward-Euler half steps of
    exactly ``dt_s / 2`` (one cached factorization), and a final partial
    step lands the last sample exactly at ``duration_s``.
    """
    from repro.casestudy.power7plus import (
        build_thermal_model,
        full_load_power_map,
    )
    from repro.thermal.batch import AnchoredTransientSolver

    for case in cases:
        # Written as ``not 0 < x < inf`` so NaN and inf fail the checks too.
        if not 0.0 < case.duration_s < math.inf:
            raise ConfigurationError(
                f"duration_s must be finite and > 0, got {case.duration_s}"
            )
        if not 0.0 < case.dt_s <= case.duration_s:
            raise ConfigurationError(
                f"need 0 < dt_s <= duration_s, got dt_s={case.dt_s}, "
                f"duration_s={case.duration_s}"
            )

    # Model families: cases sharing the matrix-defining knobs. Within a
    # family, (duration, dt) sub-groups march in lockstep.
    families: "dict[tuple, dict[tuple, list[int]]]" = {}
    for index, case in enumerate(cases):
        config = case.config
        family = families.setdefault(
            (
                config.total_flow_ml_min,
                config.inlet_temperature_k,
                config.nx,
                config.ny,
            ),
            {},
        )
        family.setdefault((case.duration_s, case.dt_s), []).append(index)

    results: "list[list[TransientSample] | None]" = [None] * len(cases)
    for (flow, inlet, nx, ny), marches in sorted(families.items()):
        # One model for the whole family — utilization only scales the
        # right-hand side, so assembly and factorizations are shared.
        model = build_thermal_model(
            nx=nx, ny=ny,
            total_flow_ml_min=flow,
            inlet_temperature_k=inlet,
        )
        solver = AnchoredTransientSolver(model)
        for (duration_s, dt_s), indices in sorted(marches.items()):
            family_cases = [cases[index] for index in indices]
            columns_before = model.rhs_columns("active_si", [
                full_load_power_map(nx, ny, utilization=case.utilization_before)
                for case in family_cases
            ])
            columns_after = model.rhs_columns("active_si", [
                full_load_power_map(nx, ny, utilization=case.utilization_after)
                for case in family_cases
            ])
            configs = [case.config for case in family_cases]
            states = solver.solve_steady_columns(columns_before)

            trajectories: "list[list[TransientSample]]" = [
                [] for _ in configs
            ]
            _sample_columns(configs, model, states, 0.0, trajectories)
            # Full dt steps as two half steps each, then one partial step
            # landing exactly at duration_s. The float guard keeps an
            # exact multiple (e.g. 0.5 / 0.05) at exactly duration/dt
            # full steps rather than growing a sliver step.
            n_full = int(duration_s / dt_s + 1e-9)
            remainder = duration_s - n_full * dt_s
            if remainder <= 1e-9 * dt_s:
                remainder = 0.0
            for i in range(1, n_full + 1):
                states = solver.step_columns(
                    states, columns_after, dt_s / 2.0
                )
                states = solver.step_columns(
                    states, columns_after, dt_s / 2.0
                )
                at_end = i == n_full and remainder == 0.0
                time_s = duration_s if at_end else dt_s * i
                _sample_columns(configs, model, states, time_s, trajectories)
            if remainder > 0.0:
                states = solver.step_columns(
                    states, columns_after, remainder / 2.0
                )
                states = solver.step_columns(
                    states, columns_after, remainder / 2.0
                )
                _sample_columns(
                    configs, model, states, duration_s, trajectories
                )
            for k, index in enumerate(indices):
                results[index] = trajectories[k]
    return [samples for samples in results if samples is not None]


def _sample_columns(
    configs: "list[CosimConfig]",
    model,
    states: np.ndarray,
    time_s: float,
    trajectories: "list[list[TransientSample]]",
) -> None:
    """Sample every column at one time, as one array per configuration.

    Columns sharing a configuration are sampled together
    (:func:`~repro.cosim.coupling.coolant_columns`, one surface query),
    after one ``warm_surfaces`` call has marched every configuration's
    missing node curves as one batch.
    """
    by_config: "dict[CosimConfig, list[int]]" = {}
    for k, config in enumerate(configs):
        by_config.setdefault(config, []).append(k)
    peaks_c = states.max(axis=0) - 273.15
    sampled = [
        (config, columns, *coolant_columns(model, states[:, columns], config))
        for config, columns in by_config.items()
    ]
    warm_surfaces(
        (surface_for(config), temps) for config, _, temps, _ in sampled
    )
    for config, columns, temps, mean_coolants_k in sampled:
        currents = surface_for(config).currents_at(
            temps, config.operating_voltage_v
        ).sum(axis=1)
        for k, current, mean_coolant_k in zip(columns, currents, mean_coolants_k):
            trajectories[k].append(TransientSample(
                time_s=time_s,
                peak_temperature_c=float(peaks_c[k]),
                mean_coolant_c=float(mean_coolant_k - 273.15),
                array_current_a=float(current),
            ))
