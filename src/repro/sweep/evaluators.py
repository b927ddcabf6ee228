"""Evaluators: a batch of :class:`~repro.sweep.spec.ScenarioSpec` -> metrics.

Each evaluator is one registered function that maps a sequence of specs
of its family to one flat ``{metric_name: number}`` dict per spec, in
order. The sweep backends call it with one spec at a time (``serial``)
or with a whole group (``vectorized``); there is no second
implementation, so a batch of one is the scalar evaluation. The
functions wrap the same calibrated builders the benchmarks and examples
use, so sweep results match the hand-rolled loops they replaced:

- ``operating_point`` — thermal peak, generation at the terminal voltage,
  pumping cost and net energy (bench A2's loop body).
- ``geometry`` — channel-width/wall design point at fixed array footprint
  (bench A1 and the design-space example).
- ``vrm`` — regulator technology comparison at one array tap (bench A3).
- ``cosim`` — full electro-thermal fixed-point run (Section III-B).
- ``transient`` — utilization-step response through the transient co-sim
  (bench A14); settling time and current swing of the step.
- ``workload`` — named workload scenario thermal state (bench A8).
- ``runtime`` — closed-loop execution of a named workload trace through
  :class:`~repro.runtime.engine.BatchedRuntimeEngine` (bench A16); energy,
  thermal and throttling KPIs of the whole trajectory.
- ``fleet_chip`` — one fleet chip at one quantized (flow, utilization)
  point: the cell of the fleet layer's operating-state table (bench A18).
- ``fleet`` — a whole shared-supply fleet rolled through its traffic
  schedule via :class:`~repro.fleet.fleet.FleetEngine`; rack-level
  energy, thermal, throttling and fairness KPIs.

Work shared across a batch (thermal families, curve marches, lockstep
trajectories) is described in :mod:`repro.sweep.vectorized`. ``cosim``
and ``fleet`` share nothing yet: they loop over their specs.

Every evaluator declares an integer model version. It is part of each
spec's store key (:meth:`~repro.sweep.spec.ScenarioSpec.cache_key`), so
an evaluator whose numbers move bumps it and stored results of the
older model read as misses.

The ``cosim`` and ``transient`` evaluators share the process-wide
:class:`~repro.cosim.surface.PolarizationSurface` store, so sweeps that
revisit a flow rate never rebuild a polarization curve.

The electrochemical models in ``operating_point``, ``geometry`` and ``vrm``
are isothermal at the 300 K reference, as in the benches they mirror;
``inlet_temperature_k`` shifts only the thermal model there. Use the
``cosim`` evaluator when the temperature feedback on generation matters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Sequence

from repro.casestudy.tables import PAPER_ANCHORS, TABLE2
from repro.core.metrics import DEFAULT_TEMPERATURE_LIMIT_C
from repro.errors import ConfigurationError
from repro.sweep.spec import VRM_NAMES, ScenarioSpec
from repro.sweep.vectorized import (
    batch_peak_temperatures,
    coolant_point,
    steady_families,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.electrochem.polarization import PolarizationCurve

#: Die span reserved for the channel array in the geometry study
#: (88 nominal channels at 300 um pitch).
ARRAY_SPAN_UM = TABLE2["channel_count"] * TABLE2["channel_pitch_um"]

#: Junction temperature limit used for feasibility verdicts [C] — the
#: shared server-silicon limit of :mod:`repro.core.metrics`.
TEMPERATURE_LIMIT_C = DEFAULT_TEMPERATURE_LIMIT_C

#: Cache power demand the feasibility verdicts compare against [W]
#: (the paper's explicit 5 A at 1 V).
CACHE_DEMAND_W = (
    PAPER_ANCHORS["cache_current_requirement_a"]
    * PAPER_ANCHORS["cache_supply_voltage_v"]
)

Evaluator = Callable[[Sequence[ScenarioSpec]], "list[dict[str, float]]"]

_REGISTRY: "Dict[str, Evaluator]" = {}
_MODEL_VERSIONS: "Dict[str, int]" = {}
_BATCH_DEPENDENT: "set[str]" = set()


def register_evaluator(
    name: str, version: int = 1, batch_exact: bool = True
) -> "Callable[[Evaluator], Evaluator]":
    """Decorator registering a batch evaluator under ``name``.

    ``version`` is the evaluator's model version. Bump it whenever the
    metrics the evaluator returns for some spec change, so results stored
    by the older model are never replayed as this one's. ``batch_exact``
    is False for an evaluator whose floats depend on the batch a spec is
    solved in (within :data:`~repro.sweep.vectorized.EQUIVALENCE_RTOL`):
    a runner then solves such a result that the store evicted again in
    the batch it first solved it in.
    """

    def decorate(fn: Evaluator) -> Evaluator:
        if name in _REGISTRY:
            raise ConfigurationError(f"evaluator {name!r} already registered")
        _REGISTRY[name] = fn
        _MODEL_VERSIONS[name] = version
        if not batch_exact:
            _BATCH_DEPENDENT.add(name)
        return fn

    return decorate


def evaluator_names() -> "tuple[str, ...]":
    """Registered evaluator names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_evaluator(name: str) -> Evaluator:
    """Look up an evaluator; raises with the available names listed."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown evaluator {name!r}; available: {evaluator_names()}"
        ) from None


def model_version(name: str) -> int:
    """Model version of an evaluator (1 for a name nobody registered)."""
    return _MODEL_VERSIONS.get(name, 1)


def batch_exact(name: str) -> bool:
    """Whether an evaluator's metrics for a spec are the same bits in
    every batch (see :func:`register_evaluator`)."""
    return name not in _BATCH_DEPENDENT


def evaluate_spec(spec: ScenarioSpec) -> "dict[str, float]":
    """Evaluate one spec: its registered evaluator as a batch of one.

    Convenience for evaluating single scenarios directly; the sweep
    backends call the evaluators themselves.
    """
    return get_evaluator(spec.evaluator)([spec])[0]


# -- shared pieces ---------------------------------------------------------------


def _current_at(curve, voltage_v: float) -> float:
    """Current at a terminal voltage, 0 outside the sampled curve range."""
    if float(curve.voltage_v[0]) > voltage_v > float(curve.voltage_v[-1]):
        return float(curve.current_at_voltage(voltage_v))
    return 0.0


#: Full-array (88-channel) polarization curves by total flow: the one
#: array-curve cache behind ``operating_point`` and ``vrm``. Bounded; see
#: :func:`array_curves`.
_ARRAY_CURVE_CACHE: "dict[float, PolarizationCurve]" = {}
_ARRAY_CURVE_CACHE_MAX = 64


def array_curves(flows: "Sequence[float]") -> "dict[float, PolarizationCurve]":
    """Full-array polarization curves per total flow, batch-marched, cached.

    The curve depends only on the flow rate (40 curve points, 1.4 V
    overpotential sweep, 88-channel scaling), so grids varying
    voltage/VRM at fixed flow march it once per process, whatever the
    batch width. Returns ``{flow: curve}`` in sorted flow order; callers
    must treat the curves as read-only.
    """
    from repro.casestudy.power7plus import (
        ARRAY_CHANNEL_COUNT,
        build_array_cell,
    )
    from repro.flowcell.batch import batched_polarization_curves

    needed = set(flows)
    missing = [f for f in sorted(needed) if f not in _ARRAY_CURVE_CACHE]
    if missing:
        cells = [build_array_cell(flow) for flow in missing]
        curves = batched_polarization_curves(
            cells, n_points=40, max_overpotential_v=1.4
        )
        for flow, curve in zip(missing, curves):
            _ARRAY_CURVE_CACHE[flow] = curve.scaled(ARRAY_CHANNEL_COUNT)
        # Trim oldest entries the *current* call does not need; the cache
        # may exceed the bound transiently when one batch's working set
        # does, rather than ever evicting a curve about to be returned.
        for key in list(_ARRAY_CURVE_CACHE):
            if len(_ARRAY_CURVE_CACHE) <= _ARRAY_CURVE_CACHE_MAX:
                break
            if key not in needed:
                del _ARRAY_CURVE_CACHE[key]
    return {f: _ARRAY_CURVE_CACHE[f] for f in sorted(needed)}


def clear_array_curves() -> None:
    """Drop the array-curve cache (benches timing cold paths, tests)."""
    _ARRAY_CURVE_CACHE.clear()


def build_vrm(name: str, input_v: float):
    """Instantiate a regulator model by short name for a 1 V output rail."""
    from repro.pdn.vrm import BuckVRM, IdealVRM, SwitchedCapacitorVRM

    if name == "ideal":
        return IdealVRM(nominal_output_v=1.0)
    if name == "sc":
        return SwitchedCapacitorVRM(input_v=input_v, nominal_output_v=1.0)
    if name == "buck":
        return BuckVRM(input_v=input_v, nominal_output_v=1.0)
    raise ConfigurationError(
        f"unknown VRM {name!r}; expected one of {VRM_NAMES}"
    )


def cosim_config(spec: ScenarioSpec):
    """The co-simulation configuration of one spec.

    The single definition of how a scenario maps onto a
    :class:`~repro.cosim.coupling.CosimConfig`. The ``cosim``,
    ``transient`` and ``fleet_chip`` evaluators all build it here, so
    every path at one coolant point queries the same shared polarization
    surface and thermal family.
    """
    from repro.cosim import CosimConfig

    return CosimConfig(
        total_flow_ml_min=spec.total_flow_ml_min,
        inlet_temperature_k=spec.inlet_temperature_k,
        operating_voltage_v=spec.operating_voltage_v,
        nx=spec.nx,
        ny=spec.ny,
        n_channel_groups=11,
    )


# -- evaluators ---------------------------------------------------------------------


def operating_point_metrics(
    spec: ScenarioSpec, peak_temperature_c: float, array_curve
) -> "dict[str, float]":
    """Assemble one spec's ``operating_point`` metrics from its physics
    inputs. The array curve is isothermal (300 K) and keyed by flow alone:
    inlet temperature moves only ``peak_temperature_c``."""
    from repro.casestudy.power7plus import array_pumping_power_w

    current = _current_at(array_curve, spec.operating_voltage_v)
    generated = current * spec.operating_voltage_v

    vrm = build_vrm(spec.vrm, spec.operating_voltage_v)
    efficiency = float(vrm.efficiency)
    delivered = generated * efficiency
    pumping = array_pumping_power_w(
        spec.total_flow_ml_min, pump_efficiency=spec.pump_efficiency
    )
    return {
        "peak_temperature_c": peak_temperature_c,
        "array_current_a": current,
        "generated_w": generated,
        "vrm_efficiency": efficiency,
        "delivered_w": delivered,
        "pumping_w": pumping,
        "net_w": delivered - pumping,
        "demand_met": float(delivered >= CACHE_DEMAND_W),
    }


@register_evaluator("operating_point", version=2, batch_exact=False)
def batch_operating_point(
    specs: "Sequence[ScenarioSpec]",
) -> "list[dict[str, float]]":
    """Cooling vs generation vs pumping at coolant operating points.

    Peaks come from one thermal family solve per (inlet, raster), curves
    from one array-curve march over the distinct flows. Inlet temperature
    moves only ``peak_temperature_c`` (the electrical metrics come from
    an isothermal array curve keyed by flow).
    """
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


def geometry_cell(spec: ScenarioSpec):
    """(channel count, porous cell) of a geometry design point.

    The channel count follows from the footprint: narrower channels (at
    the given wall width) mean more of them and more electrode volume, but
    a quadratically growing Darcy pumping cost.
    """
    from repro.casestudy.power7plus import (
        build_array_spec,
        build_porous_electrode,
    )
    from repro.flowcell.cell import ColaminarCellSpec
    from repro.flowcell.porous import FlowThroughPorousCell
    from repro.geometry.channel import RectangularChannel
    from repro.units import (
        m3s_from_ml_per_min,
        meters_from_mm,
        meters_from_um,
    )

    base = build_array_spec()
    electrode = build_porous_electrode()
    pitch_um = spec.channel_width_um + spec.wall_width_um
    count = int(ARRAY_SPAN_UM / pitch_um)
    if count < 1:
        raise ConfigurationError(
            f"pitch {pitch_um:g} um leaves no channel in the "
            f"{ARRAY_SPAN_UM:g} um footprint"
        )
    channel = RectangularChannel(
        meters_from_um(spec.channel_width_um),
        meters_from_um(TABLE2["channel_height_um"]),
        meters_from_mm(TABLE2["channel_length_mm"]),
    )
    total_flow = m3s_from_ml_per_min(spec.total_flow_ml_min)
    cell_spec = ColaminarCellSpec(
        channel=channel,
        anolyte=base.anolyte,
        catholyte=base.catholyte,
        volumetric_flow_m3_s=total_flow / count,
    )
    return count, FlowThroughPorousCell(cell_spec, electrode, n_segments=25)


def geometry_metrics(
    spec: ScenarioSpec, count: int, cell, curve, peak_temperature_c: float
) -> "dict[str, float]":
    """Assemble one spec's ``geometry`` metrics from its physics inputs.

    ``curve`` is the *single-channel* polarization curve of ``cell``;
    hydraulics are priced here.
    """
    from repro.microfluidics.hydraulics import darcy_pressure_drop, pumping_power
    from repro.units import m3s_from_ml_per_min

    total_flow = m3s_from_ml_per_min(spec.total_flow_ml_min)
    current = count * _current_at(curve, spec.operating_voltage_v)
    generated = current * spec.operating_voltage_v

    pressure = darcy_pressure_drop(
        cell.spec.channel, cell.spec.anolyte.fluid, total_flow / count,
        cell.electrode.permeability_m2,
    )
    pumping = pumping_power(
        pressure, total_flow, pump_efficiency=spec.pump_efficiency
    )
    feasible = (
        generated >= CACHE_DEMAND_W
        and peak_temperature_c <= TEMPERATURE_LIMIT_C
        and generated - pumping > 0.0
    )
    return {
        "channel_count": float(count),
        "array_current_a": current,
        "generated_w": generated,
        "pressure_drop_pa": pressure,
        "pumping_w": pumping,
        "net_w": generated - pumping,
        "peak_temperature_c": peak_temperature_c,
        "feasible": float(feasible),
    }


@register_evaluator("geometry", version=2, batch_exact=False)
def batch_geometry(
    specs: "Sequence[ScenarioSpec]",
) -> "list[dict[str, float]]":
    """Channel-width design points at fixed array footprint and total flow.

    Every distinct (width, wall, flow) design point's cell is marched in
    one batch; scenarios differing only in electrical knobs share it.
    """
    from repro.flowcell.batch import batched_polarization_curves

    peaks = batch_peak_temperatures(specs)
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


def vrm_metrics(spec: ScenarioSpec, array_curve) -> "dict[str, float]":
    """Assemble one spec's ``vrm`` metrics from the array curve."""
    current = _current_at(array_curve, spec.operating_voltage_v)
    array_power = current * spec.operating_voltage_v

    vrm = build_vrm(spec.vrm, spec.operating_voltage_v)
    efficiency = float(vrm.efficiency)
    delivered = array_power * efficiency
    return {
        "array_current_a": current,
        "array_power_w": array_power,
        "vrm_efficiency": efficiency,
        "delivered_w": delivered,
        "converter_area_mm2": vrm.required_area_m2(delivered) * 1e6,
        "demand_met": float(delivered >= CACHE_DEMAND_W),
    }


@register_evaluator("vrm")
def batch_vrm(specs: "Sequence[ScenarioSpec]") -> "list[dict[str, float]]":
    """Regulator technology comparison at array tap voltages: one curve
    march for all distinct flows."""
    curves = array_curves([spec.total_flow_ml_min for spec in specs])
    return [
        vrm_metrics(spec, curves[spec.total_flow_ml_min]) for spec in specs
    ]


def cosim_metrics(spec: ScenarioSpec) -> "dict[str, float]":
    """One spec's electro-thermal fixed-point run (Section III-B)."""
    from repro.cosim import ElectroThermalCosim

    result = ElectroThermalCosim(cosim_config(spec)).run()
    return {
        "array_current_a": result.array_current_a,
        "array_power_w": result.array_power_w,
        "peak_temperature_c": result.peak_temperature_c,
        "current_gain": result.current_gain,
        "iterations": float(result.iterations),
        "converged": float(result.converged),
    }


@register_evaluator("cosim")
def batch_cosim(specs: "Sequence[ScenarioSpec]") -> "list[dict[str, float]]":
    """Full electro-thermal fixed-point runs, one per spec.

    Scenarios sharing a flow rate draw from one polarization surface per
    process, so only the first point at each flow pays for curve
    construction; nothing else is shared across the batch yet.
    """
    return [cosim_metrics(spec) for spec in specs]


def transient_metrics(samples) -> "dict[str, float]":
    """Reduce one step-response trajectory to the ``transient`` metrics
    (swings, settling detection)."""
    from repro.cosim import TransientCosim

    first, last = samples[0], samples[-1]
    return {
        "initial_peak_c": first.peak_temperature_c,
        "final_peak_c": last.peak_temperature_c,
        "peak_swing_c": last.peak_temperature_c - first.peak_temperature_c,
        "initial_current_a": first.array_current_a,
        "final_current_a": last.array_current_a,
        "current_swing_a": last.array_current_a - first.array_current_a,
        "settling_time_s": TransientCosim.settling_time_s(samples),
        "n_samples": float(len(samples)),
    }


@register_evaluator("transient")
def batch_transient(
    specs: "Sequence[ScenarioSpec]",
) -> "list[dict[str, float]]":
    """Utilization-step responses, marched in lockstep.

    Cases march together through
    :func:`repro.cosim.batch.batched_step_responses` (shared models per
    coolant point, stacked state columns). A case's trajectory is
    bit-identical whichever batch it rides in, settling times included.
    The group curves come from the shared polarization surface, so a
    sweep across inlet temperatures or step sizes at one flow rate builds
    each curve only once per process.
    """
    from repro.cosim.batch import StepResponseCase, batched_step_responses

    trajectories = batched_step_responses([
        StepResponseCase(
            config=cosim_config(spec),
            utilization_before=spec.utilization_before,
            utilization_after=spec.utilization,
            duration_s=spec.step_duration_s,
            dt_s=spec.step_dt_s,
        )
        for spec in specs
    ])
    return [transient_metrics(samples) for samples in trajectories]


def runtime_scenario_parts(spec: ScenarioSpec):
    """``(trace, controller, governor, reservoir, config)`` of one
    runtime scenario: the single definition of how a spec wires up the
    closed loop (gains, governor, reservoir)."""
    from repro.runtime import (
        ElectrolyteState,
        FixedFlow,
        PIDFlowController,
        RuntimeConfig,
        ThrottleGovernor,
        standard_trace,
    )

    trace = standard_trace(spec.trace, seed=spec.trace_seed)
    if spec.controller == "fixed":
        controller = FixedFlow(spec.total_flow_ml_min)
    else:
        controller = PIDFlowController(
            kp=spec.pid_kp,
            ki=spec.pid_ki,
            initial_flow_ml_min=spec.total_flow_ml_min,
        )
    config = RuntimeConfig(
        inlet_temperature_k=spec.inlet_temperature_k,
        operating_voltage_v=spec.operating_voltage_v,
        nx=spec.nx,
        ny=spec.ny,
        pump_efficiency=spec.pump_efficiency,
    )
    return trace, controller, ThrottleGovernor(), ElectrolyteState(), config


def run_runtime_scenarios(specs: "Sequence[ScenarioSpec]") -> list:
    """``(trace, result)`` per runtime scenario, in order.

    Scenarios sharing ``(trace, seed, inlet, raster, voltage, pump
    efficiency)`` advance through every control interval together as
    lanes of one :class:`~repro.runtime.engine.BatchedRuntimeEngine`;
    each lane's trajectory is identical to its one-lane run. The
    ``runtime`` evaluator, ``repro runtime`` and the served ``runtime``
    job all run their loop here, so a bad knob fails by its spec field
    name on every surface.
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

    results: list = [None] * len(specs)
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
            results[index] = (trace, result)
    return results


@register_evaluator("runtime")
def batch_runtime(
    specs: "Sequence[ScenarioSpec]",
) -> "list[dict[str, float]]":
    """Closed-loop runtime execution of named workload traces.

    ``spec.trace`` / ``spec.trace_seed`` pick the schedule
    (:func:`repro.runtime.trace.standard_trace`, deterministic per seed,
    so runtime scenarios memoize like any other). ``spec.controller``
    picks the flow policy: ``fixed`` holds ``total_flow_ml_min`` open
    loop; ``pid`` closes the loop on peak junction temperature with
    gains ``pid_kp`` / ``pid_ki``, starting from ``total_flow_ml_min``.
    Both run under the default hysteresis throttle governor and the
    case-study electrolyte reservoirs, so the KPIs include throttling
    and state-of-charge alongside the energy balance. See
    :func:`run_runtime_scenarios` for the lane grouping.
    """
    return [result.kpis() for _, result in run_runtime_scenarios(specs)]


@register_evaluator("fleet_chip", version=2, batch_exact=False)
def batch_fleet_chip(
    specs: "Sequence[ScenarioSpec]",
) -> "list[dict[str, float]]":
    """Fleet chips at quantized (flow, utilization) points.

    The per-chip cells of the fleet layer's operating-state table: steady
    peak temperature, temperature-dependent array generation through the
    shared polarization surface (the coolant runs hotter at high load, so
    generation tracks utilization), pumping cost and net power. See
    :func:`repro.fleet.chip.batch_chip_states`.
    """
    from repro.fleet.chip import batch_chip_states

    return batch_chip_states(specs)


def fleet_metrics(spec: ScenarioSpec) -> "dict[str, float]":
    """One shared-supply fleet rolled through its traffic schedule."""
    from repro.fleet import FleetEngine, FleetSpec
    from repro.fleet.fleet import shared_fleet_runner

    fleet_spec = FleetSpec(
        n_chips=spec.n_chips,
        policy=spec.fleet_policy,
        supply_per_chip_ml_min=spec.supply_per_chip_ml_min,
        trace=spec.trace,
        trace_seed=spec.trace_seed,
        skew=spec.fleet_skew,
        inlet_temperature_k=spec.inlet_temperature_k,
        operating_voltage_v=spec.operating_voltage_v,
        pump_efficiency=spec.pump_efficiency,
        nx=spec.nx,
        ny=spec.ny,
    )
    engine = FleetEngine(fleet_spec, runner=shared_fleet_runner())
    return engine.run().kpis()


@register_evaluator("fleet")
def batch_fleet(specs: "Sequence[ScenarioSpec]") -> "list[dict[str, float]]":
    """Whole shared-supply fleets rolled through their traffic schedules.

    ``n_chips`` / ``fleet_policy`` / ``supply_per_chip_ml_min`` /
    ``fleet_skew`` configure the rack; ``trace`` / ``trace_seed`` pick
    the aggregate demand. Each fleet builds its chip table through the
    process-wide :func:`repro.fleet.fleet.shared_fleet_runner`, so the
    ``fleet`` metrics do not depend on the outer sweep backend and
    scenarios sharing a supply grid build the table once per process.
    """
    return [fleet_metrics(spec) for spec in specs]


def workload_metrics(model, solution) -> "dict[str, float]":
    """Assemble the ``workload`` metrics from a solved thermal state.

    ``model`` must carry the workload's power map (it feeds both the
    total power and the lumped junction-to-inlet resistance).
    """
    from repro.thermal.resistance import junction_to_inlet_resistance_k_w

    return {
        "total_power_w": model.total_power_w(),
        "peak_temperature_c": solution.peak_celsius,
        "r_junction_inlet_k_w": junction_to_inlet_resistance_k_w(
            solution, model
        ),
    }


@register_evaluator("workload", version=2, batch_exact=False)
def batch_workload(
    specs: "Sequence[ScenarioSpec]",
) -> "list[dict[str, float]]":
    """Thermal state of named workloads at coolant operating points.

    Every workload at one (flow, inlet, mesh) becomes an RHS column of
    one :func:`~repro.sweep.vectorized.steady_families` solve, and
    distinct flows of one family share the anchor and its Krylov space.
    """
    from repro.casestudy.workloads import standard_workloads
    from repro.thermal.solver import ThermalSolution

    # Spec validation already pinned the names to WORKLOAD_NAMES, and
    # standard_workloads() self-checks against the same tuple.
    workloads = {w.name: w for w in standard_workloads()}

    def rasterize(nx: int, ny: int, floorplan, name: str):
        return workloads[name].power_map(nx, ny, floorplan)

    metrics: "dict[tuple, dict[str, float]]" = {}
    points = [coolant_point(spec, spec.workload) for spec in specs]
    for point, model, names, maps, temperatures in steady_families(
        points, rasterize,
    ):
        for k, (name, power) in enumerate(zip(names, maps)):
            model.set_power_map("active_si", power)
            solution = ThermalSolution(
                temperatures_k=temperatures[:, k], model=model
            )
            metrics[(*point, name)] = workload_metrics(model, solution)
    return [dict(metrics[point]) for point in points]
