"""Evaluators: one :class:`~repro.sweep.spec.ScenarioSpec` -> metrics dict.

Each evaluator is a module-level function that maps a spec to a flat
``{metric_name: number}`` dict. They wrap the same calibrated builders the
benchmarks and examples use, so sweep results match the hand-rolled loops
they replaced:

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

The ``cosim`` and ``transient`` evaluators share the process-wide
:class:`~repro.cosim.surface.PolarizationSurface` store, so sweeps that
revisit a flow rate never rebuild a polarization curve.

The electrochemical models in ``operating_point``, ``geometry`` and ``vrm``
are isothermal at the 300 K reference, as in the benches they mirror;
``inlet_temperature_k`` shifts only the thermal model there. Use the
``cosim`` evaluator when the temperature feedback on generation matters.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Dict, Sequence

from repro.casestudy.tables import PAPER_ANCHORS, TABLE2
from repro.core.metrics import DEFAULT_TEMPERATURE_LIMIT_C
from repro.errors import ConfigurationError
from repro.sweep.spec import VRM_NAMES, ScenarioSpec

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

Evaluator = Callable[[ScenarioSpec], "dict[str, float]"]

_REGISTRY: "Dict[str, Evaluator]" = {}


def register_evaluator(name: str) -> "Callable[[Evaluator], Evaluator]":
    """Decorator registering an evaluator under ``name``."""

    def decorate(fn: Evaluator) -> Evaluator:
        if name in _REGISTRY:
            raise ConfigurationError(f"evaluator {name!r} already registered")
        _REGISTRY[name] = fn
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


def evaluate_spec(spec: ScenarioSpec) -> "dict[str, float]":
    """Dispatch a spec to its registered evaluator.

    Convenience for evaluating single scenarios directly; the runner
    resolves evaluator callables itself and does not go through this
    function.
    """
    return get_evaluator(spec.evaluator)(spec)


# -- shared pieces ---------------------------------------------------------------


def _current_at(curve, voltage_v: float) -> float:
    """Current at a terminal voltage, 0 outside the sampled curve range."""
    if float(curve.voltage_v[0]) > voltage_v > float(curve.voltage_v[-1]):
        return float(curve.current_at_voltage(voltage_v))
    return 0.0


@lru_cache(maxsize=64)
def _peak_temperature_c(
    total_flow_ml_min: float,
    inlet_temperature_k: float,
    utilization: float,
    nx: int,
    ny: int,
) -> float:
    """Memoized full-load steady peak: the thermal state is independent of
    the electrical knobs, so grids that vary only geometry/voltage/VRM
    solve each coolant point once per process."""
    from repro.casestudy.power7plus import build_thermal_model

    model = build_thermal_model(
        nx=nx,
        ny=ny,
        total_flow_ml_min=total_flow_ml_min,
        inlet_temperature_k=inlet_temperature_k,
        utilization=utilization,
    )
    return model.solve_steady().peak_celsius


#: Full-array (88-channel) polarization curves by total flow: the one
#: array-curve cache behind the serial evaluators and the vectorized
#: kernels of ``operating_point`` and ``vrm``. Bounded; see
#: :func:`array_curves`.
_ARRAY_CURVE_CACHE: "dict[float, PolarizationCurve]" = {}
_ARRAY_CURVE_CACHE_MAX = 64


def array_curves(flows: "Sequence[float]") -> "dict[float, PolarizationCurve]":
    """Full-array polarization curves per total flow, batch-marched, cached.

    The curve depends only on the flow rate (40 curve points, 1.4 V
    overpotential sweep, 88-channel scaling), so grids varying
    voltage/VRM at fixed flow march it once per process, and the serial
    and vectorized paths read the very same curves. Returns
    ``{flow: curve}`` in sorted flow order; callers must treat the curves
    as read-only.
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


# -- evaluators ---------------------------------------------------------------------


def operating_point_metrics(
    spec: ScenarioSpec, peak_temperature_c: float, array_curve
) -> "dict[str, float]":
    """Assemble the ``operating_point`` metrics from their physics inputs.

    Shared between :func:`evaluate_operating_point` (which computes the
    inputs scenario by scenario) and the vectorized backend's batch
    kernel (which computes them for whole scenario groups at once), so
    both paths apply the identical energy-balance formulas. The array
    curve is isothermal (300 K) and keyed by flow alone: inlet
    temperature moves only ``peak_temperature_c``.
    """
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


@register_evaluator("operating_point")
def evaluate_operating_point(spec: ScenarioSpec) -> "dict[str, float]":
    """Cooling vs generation vs pumping at one coolant operating point.

    Inlet temperature moves only ``peak_temperature_c`` (the electrical
    metrics come from an isothermal array curve keyed by flow).
    """
    peak_c = _peak_temperature_c(
        spec.total_flow_ml_min, spec.inlet_temperature_k,
        spec.utilization, spec.nx, spec.ny,
    )
    curve = array_curves([spec.total_flow_ml_min])[spec.total_flow_ml_min]
    return operating_point_metrics(spec, peak_c, curve)


def geometry_cell(spec: ScenarioSpec):
    """(channel count, porous cell) of a geometry design point.

    The channel count follows from the footprint: narrower channels (at
    the given wall width) mean more of them and more electrode volume, but
    a quadratically growing Darcy pumping cost. Shared between the serial
    evaluator and the vectorized batch kernel so both solve the same cell.
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
    """Assemble the ``geometry`` metrics from their physics inputs.

    ``curve`` is the *single-channel* polarization curve of ``cell``;
    hydraulics are priced here so the serial and vectorized paths share
    one energy-balance formula.
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


@register_evaluator("geometry")
def evaluate_geometry(spec: ScenarioSpec) -> "dict[str, float]":
    """Channel-width design point at fixed array footprint and total flow."""
    count, cell = geometry_cell(spec)
    curve = cell.polarization_curve(n_points=30, max_overpotential_v=1.4)
    peak_c = _peak_temperature_c(
        spec.total_flow_ml_min, spec.inlet_temperature_k,
        spec.utilization, spec.nx, spec.ny,
    )
    return geometry_metrics(spec, count, cell, curve, peak_c)


def vrm_metrics(spec: ScenarioSpec, array_curve) -> "dict[str, float]":
    """Assemble the ``vrm`` metrics from the array polarization curve.

    Shared between :func:`evaluate_vrm` and the vectorized batch kernel.
    """
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
def evaluate_vrm(spec: ScenarioSpec) -> "dict[str, float]":
    """Regulator technology comparison at one array tap voltage."""
    curve = array_curves([spec.total_flow_ml_min])[spec.total_flow_ml_min]
    return vrm_metrics(spec, curve)


def cosim_config(spec: ScenarioSpec):
    """The co-simulation configuration of one spec.

    The single definition of how a scenario maps onto a
    :class:`~repro.cosim.coupling.CosimConfig`. The ``cosim``,
    ``transient`` and ``fleet_chip`` evaluators and their batch kernels
    all build it here, so every path at one coolant point queries the
    same shared polarization surface and thermal family.
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


@register_evaluator("cosim")
def evaluate_cosim(spec: ScenarioSpec) -> "dict[str, float]":
    """Full electro-thermal fixed-point run (Section III-B).

    Scenarios sharing a flow rate draw from one polarization surface per
    process, so only the first point at each flow pays for curve
    construction.
    """
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


def transient_metrics(samples) -> "dict[str, float]":
    """Reduce one step-response trajectory to the ``transient`` metrics.

    Shared between :func:`evaluate_transient` and the vectorized batch
    kernel, so the two paths apply the identical trajectory reduction
    (swings, settling detection) to whatever samples they produced.
    """
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
def evaluate_transient(spec: ScenarioSpec) -> "dict[str, float]":
    """Utilization-step response: ``utilization_before`` -> ``utilization``.

    Runs the transient co-simulation over ``step_duration_s`` sampled at
    ``step_dt_s`` and reduces the trajectory to scalar metrics. The group
    curves come from the shared polarization surface, so a sweep across
    inlet temperatures or step sizes at one flow rate builds each curve
    only once per process.
    """
    from repro.cosim import TransientCosim

    cosim = TransientCosim(cosim_config(spec))
    samples = cosim.run_step_response(
        spec.utilization_before,
        spec.utilization,
        duration_s=spec.step_duration_s,
        dt_s=spec.step_dt_s,
    )
    return transient_metrics(samples)


def runtime_scenario_parts(spec: ScenarioSpec):
    """``(trace, controller, governor, reservoir, config)`` of one
    runtime scenario.

    The single definition of how a spec wires up the closed loop, shared
    between :func:`evaluate_runtime` (a one-lane
    :class:`~repro.runtime.engine.BatchedRuntimeEngine`) and the
    vectorized backend's batch kernel (which mounts many specs' parts as
    lanes of one engine), so the two paths cannot disagree about gains,
    governors or reservoirs.
    """
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


def run_runtime_scenario(spec: ScenarioSpec):
    """``(trace, result)`` of one runtime scenario run as a one-lane
    :class:`~repro.runtime.engine.BatchedRuntimeEngine`.

    The runtime evaluator, ``repro runtime`` and the served ``runtime``
    job all run their loop here, so a bad knob fails by its spec field
    name on every surface.
    """
    from repro.runtime import BatchedRuntimeEngine

    trace, controller, governor, reservoir, config = runtime_scenario_parts(
        spec
    )
    engine = BatchedRuntimeEngine(
        [controller], governors=[governor], reservoirs=[reservoir],
        config=config,
    )
    return trace, engine.run(trace)[0]


@register_evaluator("runtime")
def evaluate_runtime(spec: ScenarioSpec) -> "dict[str, float]":
    """Closed-loop runtime execution of a named workload trace.

    ``spec.trace`` / ``spec.trace_seed`` pick the schedule
    (:func:`repro.runtime.trace.standard_trace`, deterministic per seed,
    so runtime scenarios memoize like any other). ``spec.controller``
    picks the flow policy: ``fixed`` holds ``total_flow_ml_min`` open
    loop; ``pid`` closes the loop on peak junction temperature with
    gains ``pid_kp`` / ``pid_ki``, starting from ``total_flow_ml_min``.
    Both run under the default hysteresis throttle governor and the
    case-study electrolyte reservoirs, so the KPIs include throttling
    and state-of-charge alongside the energy balance.
    """
    return run_runtime_scenario(spec)[1].kpis()


@register_evaluator("fleet_chip")
def evaluate_fleet_chip(spec: ScenarioSpec) -> "dict[str, float]":
    """One fleet chip at one quantized (flow, utilization) point.

    The per-chip cell of the fleet layer's operating-state table: steady
    peak temperature, temperature-dependent array generation through the
    shared polarization surface (the coolant runs hotter at high load, so
    generation tracks utilization), pumping cost and net power. See
    :mod:`repro.fleet.chip`.
    """
    from repro.fleet.chip import chip_state_metrics

    return chip_state_metrics(spec)


@register_evaluator("fleet")
def evaluate_fleet(spec: ScenarioSpec) -> "dict[str, float]":
    """A whole shared-supply fleet rolled through its traffic schedule.

    ``n_chips`` / ``fleet_policy`` / ``supply_per_chip_ml_min`` /
    ``fleet_skew`` configure the rack; ``trace`` / ``trace_seed`` pick
    the aggregate demand. The engine builds its chip table through the
    process-wide :func:`repro.fleet.fleet.shared_fleet_runner` (always
    the vectorized backend), so the ``fleet`` evaluator itself stays
    bit-identical across sweep backends and scenarios sharing a supply
    grid build the table once per process.
    """
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


@register_evaluator("workload")
def evaluate_workload(spec: ScenarioSpec) -> "dict[str, float]":
    """Thermal state of one named workload at the coolant operating point."""
    from repro.casestudy.power7plus import build_thermal_stack
    from repro.casestudy.workloads import standard_workloads
    from repro.geometry.power7 import build_power7_floorplan
    from repro.thermal.model import ThermalModel

    # Spec validation already pinned the name to WORKLOAD_NAMES, and
    # standard_workloads() self-checks against the same tuple.
    workload = {w.name: w for w in standard_workloads()}[spec.workload]

    floorplan = build_power7_floorplan()
    model = ThermalModel(
        build_thermal_stack(spec.total_flow_ml_min, spec.inlet_temperature_k),
        floorplan.width_m, floorplan.height_m, spec.nx, spec.ny,
    )
    model.set_power_map(
        "active_si", workload.power_map(spec.nx, spec.ny, floorplan)
    )
    solution = model.solve_steady()
    return workload_metrics(model, solution)
