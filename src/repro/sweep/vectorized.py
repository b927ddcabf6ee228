"""Batch evaluation kernels behind the vectorized sweep backend.

Each kernel maps a *batch* of :class:`~repro.sweep.spec.ScenarioSpec` of
one evaluator family to the same metrics the serial evaluator produces,
but shares the expensive physics across the batch:

- thermal: scenarios are grouped by mesh/inlet; within a group one
  :class:`~repro.thermal.batch.AnchoredSteadySolver` starts every solve
  from the projection onto its earlier solutions, polishes misses with
  GMRES preconditioned by a single shared LU factorization, and solves
  utilization/workload variants of one flow as stacked right-hand-side
  columns;
- electrochemistry: polarization curves for every distinct flow/geometry
  in the batch are marched together through
  :func:`repro.flowcell.batch.batched_polarization_curves` — the same
  construction the serial evaluators run as batches of one, and for
  ``operating_point``/``vrm`` the same cache
  (:func:`repro.sweep.evaluators.array_curves`);
- metric assembly: the *identical* formula helpers the serial evaluators
  use (``operating_point_metrics`` and friends in
  :mod:`repro.sweep.evaluators`), so the two paths cannot drift.

Kernels exist for the steady evaluator families whose cost is dominated
by those shared pieces (``operating_point``, ``geometry``, ``vrm``,
``workload``, ``fleet_chip``) and for the dynamic ones:

- ``transient`` marches whole step-response sweeps in lockstep through
  :func:`repro.cosim.batch.batched_step_responses` — one thermal model
  per (flow, inlet, mesh) family, scenario states stacked as multi-RHS
  columns of the family's exact backward-Euler factorizations;
- ``runtime`` mounts every scenario of a (trace, raster, inlet) group as
  a lane of :class:`~repro.runtime.engine.BatchedRuntimeEngine`:
  controller/governor state advances as lane vectors, reservoir SOC as
  arrays, and lanes commanding the same quantized flow share one
  multi-column thermal step per control interval.

Other evaluators fall back to the serial path inside
:class:`~repro.sweep.backends.VectorizedBackend`.

Equivalence contract: batched metrics match the serial evaluators within
``EQUIVALENCE_RTOL``, which is the anchored solver's residual bound of
the steady thermal kernels (orders of magnitude tighter in practice). Where a
kernel shares every piece with its serial evaluator the results are
bit-identical: ``vrm`` (same cached curves), and ``transient`` and
``runtime`` (the serial evaluators are one-case / one-lane calls of the
same steppers, whose floats feed discontinuous decisions — flow
quantization, governor hysteresis, settling-band exits).
``tests/sweep/test_backends.py`` pins it for every preset.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.sweep.evaluators import (
    array_curves,
    geometry_cell,
    geometry_metrics,
    operating_point_metrics,
    runtime_scenario_parts,
    transient_cosim_config,
    transient_metrics,
    vrm_metrics,
    workload_metrics,
    workload_thermal_model,
)
from repro.sweep.spec import ScenarioSpec

#: Documented relative agreement between batched and serial evaluation.
#: The dominant term is the anchored solver's residual (<= 1e-8 relative,
#: projected starts and GMRES polishes alike);
#: everything else is floating-point round-off.
EQUIVALENCE_RTOL = 1e-6

BatchKernel = Callable[[Sequence[ScenarioSpec]], "list[dict[str, float]]"]


# -- shared thermal batching ---------------------------------------------------------


def batch_peak_temperatures(
    specs: "Sequence[ScenarioSpec]",
) -> "dict[tuple, float]":
    """Full-load steady peak [degC] for every distinct coolant point.

    Returns ``{(flow, inlet, utilization, nx, ny): peak_c}`` covering the
    batch. Scenarios are grouped by mesh + inlet; within a group, flows
    are solved middle-out through one anchored solver (one factorization;
    neighbours start from the projection onto earlier solutions, and
    GMRES polishes the misses) and utilization variants of a flow become
    stacked RHS columns of a single solve.
    """
    from repro.casestudy.power7plus import (
        build_thermal_stack,
        full_load_power_map,
    )
    from repro.geometry.power7 import build_power7_floorplan
    from repro.thermal.batch import AnchoredSteadySolver
    from repro.thermal.model import ThermalModel
    from repro.units import celsius_from_kelvin

    points = {
        (
            spec.total_flow_ml_min,
            spec.inlet_temperature_k,
            spec.utilization,
            spec.nx,
            spec.ny,
        )
        for spec in specs
    }
    families: "dict[tuple, dict[float, list[float]]]" = {}
    for flow, inlet, utilization, nx, ny in sorted(points):
        flows = families.setdefault((inlet, nx, ny), {})
        flows.setdefault(flow, []).append(utilization)

    floorplan = build_power7_floorplan()
    peaks: "dict[tuple, float]" = {}
    for (inlet, nx, ny), flows in families.items():
        solver = AnchoredSteadySolver()
        for flow in _middle_out(sorted(flows)):
            model = ThermalModel(
                build_thermal_stack(flow, inlet),
                floorplan.width_m, floorplan.height_m, nx, ny,
            )
            utilizations = sorted(flows[flow])
            columns = model.rhs_columns("active_si", [
                full_load_power_map(nx, ny, floorplan, utilization)
                for utilization in utilizations
            ])
            temperatures = solver.solve_columns(model, columns)
            for k, utilization in enumerate(utilizations):
                peaks[(flow, inlet, utilization, nx, ny)] = celsius_from_kelvin(
                    float(temperatures[:, k].max())
                )
    return peaks


def _middle_out(values: "list[float]") -> "list[float]":
    """Middle element first, then the rest in order.

    The first solve becomes the anchored solver's factorization; starting
    from the middle of the (sorted) flow range keeps every other flow as
    close to the anchor as the batch allows.
    """
    if len(values) < 3:
        return values
    middle = len(values) // 2
    return [values[middle]] + values[:middle] + values[middle + 1:]


# -- kernels ---------------------------------------------------------------------------


def batch_operating_point(
    specs: "Sequence[ScenarioSpec]",
) -> "list[dict[str, float]]":
    """Batched ``operating_point``: shared thermal family + curve march."""
    peaks = batch_peak_temperatures(specs)
    curves = array_curves([spec.total_flow_ml_min for spec in specs])
    return [
        operating_point_metrics(
            spec,
            peaks[(
                spec.total_flow_ml_min, spec.inlet_temperature_k,
                spec.utilization, spec.nx, spec.ny,
            )],
            curves[spec.total_flow_ml_min],
        )
        for spec in specs
    ]


def batch_vrm(specs: "Sequence[ScenarioSpec]") -> "list[dict[str, float]]":
    """Batched ``vrm``: one curve march for all distinct flows."""
    curves = array_curves([spec.total_flow_ml_min for spec in specs])
    return [
        vrm_metrics(spec, curves[spec.total_flow_ml_min]) for spec in specs
    ]


def batch_geometry(
    specs: "Sequence[ScenarioSpec]",
) -> "list[dict[str, float]]":
    """Batched ``geometry``: design-point cells marched together."""
    from repro.flowcell.batch import batched_polarization_curves

    peaks = batch_peak_temperatures(specs)
    # One cell per distinct (width, wall, flow) design point; scenarios
    # differing only in electrical knobs share it.
    design_keys = [
        (spec.channel_width_um, spec.wall_width_um, spec.total_flow_ml_min)
        for spec in specs
    ]
    cells: "dict[tuple, tuple]" = {}
    for key, spec in zip(design_keys, specs):
        if key not in cells:
            cells[key] = geometry_cell(spec)
    order = list(cells)
    curves = batched_polarization_curves(
        [cells[key][1] for key in order], n_points=30, max_overpotential_v=1.4
    )
    curve_by_key = dict(zip(order, curves))
    results = []
    for key, spec in zip(design_keys, specs):
        count, cell = cells[key]
        results.append(geometry_metrics(
            spec, count, cell, curve_by_key[key],
            peaks[(
                spec.total_flow_ml_min, spec.inlet_temperature_k,
                spec.utilization, spec.nx, spec.ny,
            )],
        ))
    return results


def batch_workload(
    specs: "Sequence[ScenarioSpec]",
) -> "list[dict[str, float]]":
    """Batched ``workload``: stacked workload maps per coolant point.

    Every workload at one (flow, inlet, mesh) shares a single thermal
    factorization — its power maps become RHS columns — and distinct
    flows of one family share the anchor as a preconditioner and the
    solver's snapshot basis as starts, exactly the sharing the scalar
    evaluator cannot express (it rebuilds and refactorizes per
    scenario).
    """
    from repro.casestudy.workloads import standard_workloads
    from repro.thermal.batch import AnchoredSteadySolver
    from repro.thermal.solver import ThermalSolution

    workloads = {w.name: w for w in standard_workloads()}
    families: "dict[tuple, dict[float, list[str]]]" = {}
    for spec in specs:
        family = families.setdefault(
            (spec.inlet_temperature_k, spec.nx, spec.ny), {}
        )
        names = family.setdefault(spec.total_flow_ml_min, [])
        if spec.workload not in names:
            names.append(spec.workload)

    metrics: "dict[tuple, dict[str, float]]" = {}
    for (inlet, nx, ny), flows in families.items():
        solver = AnchoredSteadySolver()
        for flow in _middle_out(sorted(flows)):
            reference = next(
                spec for spec in specs
                if spec.total_flow_ml_min == flow
                and (spec.inlet_temperature_k, spec.nx, spec.ny)
                == (inlet, nx, ny)
            )
            model, floorplan = workload_thermal_model(reference)
            names = sorted(flows[flow])
            maps = {
                name: workloads[name].power_map(nx, ny, floorplan)
                for name in names
            }
            columns = model.rhs_columns(
                "active_si", [maps[name] for name in names]
            )
            temperatures = solver.solve_columns(model, columns)
            for k, name in enumerate(names):
                model.set_power_map("active_si", maps[name])
                solution = ThermalSolution(
                    temperatures_k=temperatures[:, k], model=model
                )
                metrics[(flow, inlet, nx, ny, name)] = workload_metrics(
                    model, solution
                )
    return [
        dict(metrics[(
            spec.total_flow_ml_min, spec.inlet_temperature_k,
            spec.nx, spec.ny, spec.workload,
        )])
        for spec in specs
    ]


def batch_transient(
    specs: "Sequence[ScenarioSpec]",
) -> "list[dict[str, float]]":
    """Batched ``transient``: step responses marched in lockstep.

    Scenarios map onto :class:`repro.cosim.batch.StepResponseCase` via
    the serial evaluator's own config helper, march together through
    :func:`repro.cosim.batch.batched_step_responses` (shared models,
    stacked state columns) — the stepper the serial evaluator runs as a
    batch of one — and reduce through the shared ``transient_metrics``,
    so the kernel's results are bit-identical to the serial path,
    settling times included.
    """
    from repro.cosim.batch import StepResponseCase, batched_step_responses

    cases = [
        StepResponseCase(
            config=transient_cosim_config(spec),
            utilization_before=spec.utilization_before,
            utilization_after=spec.utilization,
            duration_s=spec.step_duration_s,
            dt_s=spec.step_dt_s,
        )
        for spec in specs
    ]
    trajectories = batched_step_responses(cases)
    return [transient_metrics(samples) for samples in trajectories]


def batch_runtime(
    specs: "Sequence[ScenarioSpec]",
) -> "list[dict[str, float]]":
    """Batched ``runtime``: one lockstep engine per trace group.

    Scenarios sharing ``(trace, seed, inlet, raster, voltage, pump
    efficiency)`` advance through every control interval together as
    lanes of a :class:`~repro.runtime.engine.BatchedRuntimeEngine`: the
    loop is wired from the serial evaluator's own
    ``runtime_scenario_parts``, controller/governor/SOC state updates as
    lane arrays, and lanes at the same quantized flow share one
    multi-column backward-Euler solve per step — while each lane's KPI
    trajectory stays identical to the serial evaluator's one-lane run.
    """
    from repro.runtime.engine import BatchedRuntimeEngine

    groups: "dict[tuple, list[int]]" = {}
    for index, spec in enumerate(specs):
        key = (
            spec.trace,
            spec.trace_seed,
            spec.inlet_temperature_k,
            spec.nx,
            spec.ny,
            spec.operating_voltage_v,
            spec.pump_efficiency,
        )
        groups.setdefault(key, []).append(index)

    results: "list[dict[str, float] | None]" = [None] * len(specs)
    for key in sorted(groups):
        indices = groups[key]
        parts = [runtime_scenario_parts(specs[index]) for index in indices]
        trace, _, _, _, config = parts[0]
        engine = BatchedRuntimeEngine(
            controllers=[part[1] for part in parts],
            governors=[part[2] for part in parts],
            reservoirs=[part[3] for part in parts],
            config=config,
        )
        for index, result in zip(indices, engine.run(trace)):
            results[index] = result.kpis()
    return [metrics for metrics in results if metrics is not None]


def batch_fleet_chip(
    specs: "Sequence[ScenarioSpec]",
) -> "list[dict[str, float]]":
    """Batched ``fleet_chip``: stacked utilization columns per flow level.

    Delegates to :func:`repro.fleet.chip.batch_chip_states`, which draws
    one store-backed thermal model per quantized flow (shared with the
    runtime layer) and solves utilization variants as stacked RHS columns
    through one anchored factorization. The ``fleet`` evaluator itself
    deliberately has *no* kernel: it runs its chips through this one
    internally and must stay bit-identical across sweep backends.
    """
    from repro.fleet.chip import batch_chip_states

    return batch_chip_states(specs)


#: Evaluator families with a batch kernel. Everything else falls back to
#: the scalar path inside the vectorized backend.
BATCH_KERNELS: "Dict[str, BatchKernel]" = {
    "operating_point": batch_operating_point,
    "geometry": batch_geometry,
    "vrm": batch_vrm,
    "workload": batch_workload,
    "transient": batch_transient,
    "runtime": batch_runtime,
    "fleet_chip": batch_fleet_chip,
}
