"""Batch evaluation kernels behind the vectorized sweep backend.

Each kernel maps a *batch* of :class:`~repro.sweep.spec.ScenarioSpec` of
one evaluator family to the same metrics the serial evaluator produces,
but shares the expensive physics across the batch:

- thermal: every steady kernel solves its coolant points through the
  one family loop, :func:`steady_families`. Points are grouped by
  mesh/inlet; within a group one
  :class:`~repro.thermal.batch.AnchoredSteadySolver` factorizes a single
  anchor flow and answers every other flow from one Krylov space shared
  by the whole flow family (the matrix is affine in flow), and
  utilization/workload variants of one flow are stacked right-hand-side
  columns. A family stamps its conduction matrix once and derives each
  flow's model with :meth:`~repro.thermal.model.ThermalModel.at_flow`;
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
``workload``, and ``fleet_chip`` through
:func:`repro.fleet.chip.batch_chip_states`) and for the dynamic ones:

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

from typing import Callable, Dict, Iterable, Iterator, Sequence

from repro.fleet.chip import batch_chip_states
from repro.sweep.evaluators import (
    array_curves,
    cosim_config,
    geometry_cell,
    geometry_metrics,
    operating_point_metrics,
    runtime_scenario_parts,
    transient_metrics,
    vrm_metrics,
    workload_metrics,
)
from repro.sweep.spec import ScenarioSpec

#: Documented relative agreement between batched and serial evaluation.
#: The dominant term is the anchored solver's residual (<= 1e-8 relative,
#: checked on every column); everything else is floating-point round-off.
EQUIVALENCE_RTOL = 1e-6

BatchKernel = Callable[[Sequence[ScenarioSpec]], "list[dict[str, float]]"]


# -- the steady family loop ------------------------------------------------------------


def steady_families(
    points: "Iterable[tuple]", rasterize: Callable,
) -> "Iterator[tuple]":
    """Steady states of ``(flow, inlet, nx, ny, key)`` points, by family.

    ``key`` names a power map, drawn by ``rasterize(nx, ny, floorplan,
    key)`` (:func:`~repro.casestudy.power7plus.full_load_power_map` with
    a utilization key, or a workload's ``power_map``). Points are grouped
    into ``(inlet, nx, ny)`` families, each one case-study model that
    stamps conduction once; every flow's model is ``family.at_flow(q)``,
    bit-identical to a freshly built one. Each family rasterizes every
    key once and solves its flows middle-out through one
    :class:`~repro.thermal.batch.AnchoredSteadySolver` (one factorization
    and one Krylov space), a coolant point's keys as stacked RHS columns.

    Yields ``((flow, inlet, nx, ny), model, keys, maps, temperatures)``
    per coolant point: its sorted keys, their maps and the ``(n_dof,
    len(keys))`` steady states. The order depends only on the set of
    points, so permuted or duplicated batches solve identically.
    """
    from repro.casestudy.power7plus import build_thermal_stack
    from repro.geometry.power7 import build_power7_floorplan
    from repro.thermal.batch import AnchoredSteadySolver
    from repro.thermal.model import ThermalModel
    from repro.units import m3s_from_ml_per_min

    families: "dict[tuple, dict[float, list]]" = {}
    for flow, inlet, nx, ny, key in sorted(set(points)):
        flows = families.setdefault((inlet, nx, ny), {})
        flows.setdefault(flow, []).append(key)

    floorplan = build_power7_floorplan()
    for (inlet, nx, ny), flows in families.items():
        family = ThermalModel(
            build_thermal_stack(inlet_temperature_k=inlet),
            floorplan.width_m, floorplan.height_m, nx, ny,
        )
        solver = AnchoredSteadySolver()
        maps = {
            key: rasterize(nx, ny, floorplan, key)
            for key in sorted(set().union(*flows.values()))
        }
        for flow in _middle_out(list(flows)):
            model = family.at_flow(m3s_from_ml_per_min(flow))
            keys = flows[flow]
            key_maps = [maps[key] for key in keys]
            temperatures = solver.solve_columns(
                model, model.rhs_columns("active_si", key_maps)
            )
            yield (flow, inlet, nx, ny), model, keys, key_maps, temperatures


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


def coolant_point(spec: ScenarioSpec, key) -> tuple:
    """The ``(flow, inlet, nx, ny, key)`` point of a spec's steady state."""
    return (
        spec.total_flow_ml_min, spec.inlet_temperature_k, spec.nx, spec.ny,
        key,
    )


def batch_peak_temperatures(
    specs: "Sequence[ScenarioSpec]",
) -> "dict[tuple, float]":
    """Full-load steady peak [degC] for every distinct coolant point.

    Returns ``{(flow, inlet, nx, ny, utilization): peak_c}`` covering the
    batch, solved through :func:`steady_families` with utilization keys.
    """
    from repro.casestudy.power7plus import full_load_power_map
    from repro.units import celsius_from_kelvin

    peaks: "dict[tuple, float]" = {}
    for point, _, utilizations, _, temperatures in steady_families(
        [coolant_point(spec, spec.utilization) for spec in specs],
        full_load_power_map,
    ):
        for k, utilization in enumerate(utilizations):
            peaks[(*point, utilization)] = celsius_from_kelvin(
                float(temperatures[:, k].max())
            )
    return peaks


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
            peaks[coolant_point(spec, spec.utilization)],
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
            peaks[coolant_point(spec, spec.utilization)],
        ))
    return results


def batch_workload(
    specs: "Sequence[ScenarioSpec]",
) -> "list[dict[str, float]]":
    """Batched ``workload``: stacked workload maps per coolant point.

    Every workload at one (flow, inlet, mesh) becomes an RHS column of
    one :func:`steady_families` solve, and distinct flows of one family
    share the anchor and its Krylov space, exactly the sharing the scalar
    evaluator cannot express (it rebuilds and refactorizes per scenario).
    """
    from repro.casestudy.workloads import standard_workloads
    from repro.thermal.solver import ThermalSolution

    workloads = {w.name: w for w in standard_workloads()}

    def rasterize(nx: int, ny: int, floorplan, name: str):
        return workloads[name].power_map(nx, ny, floorplan)

    metrics: "dict[tuple, dict[str, float]]" = {}
    for point, model, names, maps, temperatures in steady_families(
        [coolant_point(spec, spec.workload) for spec in specs],
        rasterize,
    ):
        for k, (name, power) in enumerate(zip(names, maps)):
            model.set_power_map("active_si", power)
            solution = ThermalSolution(
                temperatures_k=temperatures[:, k], model=model
            )
            metrics[(*point, name)] = workload_metrics(model, solution)
    return [
        dict(metrics[coolant_point(spec, spec.workload)]) for spec in specs
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
            config=cosim_config(spec),
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


#: Evaluator families with a batch kernel. Everything else falls back to
#: the scalar path inside the vectorized backend.
BATCH_KERNELS: "Dict[str, BatchKernel]" = {
    "operating_point": batch_operating_point,
    "geometry": batch_geometry,
    "vrm": batch_vrm,
    "workload": batch_workload,
    "transient": batch_transient,
    "runtime": batch_runtime,
    "fleet_chip": batch_chip_states,
}
