"""Trace-driven closed-loop runtime engine.

This is the dynamic counterpart of :class:`~repro.cosim.coupling.
ElectroThermalCosim` (one operating point, run to a fixed point on the
same kept thermal models) and
:class:`~repro.cosim.transient.TransientCosim` (one open-loop step): a
:class:`BatchedRuntimeEngine` executes a whole :class:`~repro.runtime.
trace.WorkloadTrace` while flow controllers and the throttle governor
close the loop around the thermal state — the paper's "one coolant stream
modulated at runtime" claim as an executable scenario. The engine runs
one or many scenario lanes in lockstep; a single scenario is a one-lane
call::

    BatchedRuntimeEngine([controller], config).run(trace)[0]

Per control step the engine

1. reads the trace (workload + utilization for the step interval),
2. asks the governors for activity scales and the controllers for flow
   commands (both see only the *previous* step's outcome),
3. advances every lane's thermal state by one backward-Euler step on the
   kept :class:`~repro.thermal.model.ThermalModel` of its commanded flow
   (lanes at the same flow share its step factorization),
4. samples each flow group's lanes as one array — coolant group
   temperatures, peaks, and group currents on the shared
   :class:`~repro.cosim.surface.PolarizationSurface` — and prices the
   pumping power, and
5. draws the generated charge from the lanes' electrolyte reservoirs.

Flow commands are quantized to :data:`FLOW_RESOLUTION_ML_MIN` so the caches
stay bounded: each distinct quantized flow costs one thermal model (the
kept :meth:`~repro.casestudy.power7plus.ThermalFamily.kept_model` of the
family the steady sweeps solve on; its backward-Euler LU per step size
is then reused for every later step at that flow, and only the lanes'
initial flows and the fixed point also factorize the steady matrix) and
one polarization surface (shared process-wide). A PID sweeping smoothly
through flows therefore pays for a handful of models, not one per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import obs
from repro.casestudy.tables import PAPER_ANCHORS, TABLE2
from repro.cosim.coupling import check_config, coolant_columns
from repro.cosim.surface import PolarizationSurface, warm_surfaces
from repro.core.metrics import DEFAULT_TEMPERATURE_LIMIT_C
from repro.errors import ConfigurationError
from repro.runtime.controllers import (
    FixedFlow,
    PIDFlowController,
    VectorFlowControllers,
    VectorThrottleGovernors,
)
from repro.runtime.state import ElectrolyteStateArray
from repro.runtime.trace import WorkloadTrace

#: Junction-temperature limit used for violation accounting [degC] — the
#: shared server-silicon limit of :mod:`repro.core.metrics`.
TEMPERATURE_LIMIT_C = DEFAULT_TEMPERATURE_LIMIT_C

#: Control/integration step [s]: the thermal state advances one
#: backward-Euler step and the controllers act once per interval.
CONTROL_DT_S = 0.05

#: Flow commands quantize to this grid [ml/min] (see module docstring).
FLOW_RESOLUTION_ML_MIN = 16.0


@dataclass
class RuntimeConfig:
    """Configuration of one closed-loop runtime run.

    Parameters
    ----------
    inlet_temperature_k / operating_voltage_v:
        Coolant inlet and the terminal voltage held by the VRMs.
    nx / ny:
        Thermal raster (nx must be a multiple of the channel-group count,
        as in :class:`~repro.cosim.coupling.CosimConfig`).
    pump_efficiency:
        Pump efficiency in (0, 1] used to price the hydraulic power
        (the paper assumes 0.5).
    """

    inlet_temperature_k: float = TABLE2["inlet_temperature_k"]
    operating_voltage_v: float = 1.0
    nx: int = 44
    ny: int = 22
    pump_efficiency: float = PAPER_ANCHORS["pump_efficiency"]

    def __post_init__(self) -> None:
        check_config(self, "inlet_temperature_k", "operating_voltage_v")
        if not 0.0 < self.pump_efficiency <= 1.0:
            raise ConfigurationError(
                f"pump_efficiency must be in (0, 1], got {self.pump_efficiency}"
            )


@dataclass(frozen=True)
class RuntimeSample:
    """One control step's outcome on the closed-loop trajectory."""

    time_s: float
    step_dt_s: float
    workload: str
    utilization: float
    activity_scale: float
    flow_ml_min: float
    peak_temperature_c: float
    mean_coolant_c: float
    array_current_a: float
    generated_w: float
    pumping_w: float
    net_w: float
    state_of_charge: float
    throttled: bool
    violation: bool

    def record(self) -> "dict[str, object]":
        """Flat export row (CSV/JSON via :mod:`repro.io`)."""
        return {
            "time_s": self.time_s,
            "workload": self.workload,
            "utilization": self.utilization,
            "activity_scale": self.activity_scale,
            "flow_ml_min": self.flow_ml_min,
            "peak_temperature_c": self.peak_temperature_c,
            "mean_coolant_c": self.mean_coolant_c,
            "array_current_a": self.array_current_a,
            "generated_w": self.generated_w,
            "pumping_w": self.pumping_w,
            "net_w": self.net_w,
            "state_of_charge": self.state_of_charge,
            "throttled": float(self.throttled),
            "violation": float(self.violation),
        }


@dataclass(frozen=True)
class RuntimeResult:
    """Closed-loop trajectory plus its scalar KPIs.

    Energies integrate each sample's power over its own step length, so
    KPIs are exact for the piecewise-constant trajectory the engine
    actually computed — no resampling error.
    """

    trace_name: str
    samples: "tuple[RuntimeSample, ...]" = field(repr=False)

    def __post_init__(self) -> None:
        if not self.samples:
            raise ConfigurationError("a runtime result needs samples")
        object.__setattr__(self, "samples", tuple(self.samples))

    @property
    def duration_s(self) -> float:
        """Simulated span [s]."""
        return sum(s.step_dt_s for s in self.samples)

    def _integrate(self, power_of) -> float:
        return sum(power_of(s) * s.step_dt_s for s in self.samples)

    @property
    def harvested_energy_j(self) -> float:
        """Electrical energy generated by the array [J]."""
        return self._integrate(lambda s: s.generated_w)

    @property
    def pumping_energy_j(self) -> float:
        """Hydraulic energy spent moving the coolant [J]."""
        return self._integrate(lambda s: s.pumping_w)

    @property
    def net_energy_j(self) -> float:
        """Harvested minus pumping energy [J] — the headline KPI."""
        return self._integrate(lambda s: s.net_w)

    @property
    def peak_temperature_c(self) -> float:
        """Hottest junction temperature seen anywhere on the trace."""
        return max(s.peak_temperature_c for s in self.samples)

    @property
    def throttled_time_fraction(self) -> float:
        """Fraction of simulated time spent under governor throttling."""
        throttled = sum(s.step_dt_s for s in self.samples if s.throttled)
        return throttled / self.duration_s

    @property
    def violation_time_fraction(self) -> float:
        """Fraction of simulated time above the junction limit."""
        violating = sum(s.step_dt_s for s in self.samples if s.violation)
        return violating / self.duration_s

    @property
    def n_violations(self) -> int:
        """Number of samples above the junction limit."""
        return sum(1 for s in self.samples if s.violation)

    @property
    def mean_flow_ml_min(self) -> float:
        """Time-weighted mean commanded flow [ml/min]."""
        return self._integrate(lambda s: s.flow_ml_min) / self.duration_s

    @property
    def final_state_of_charge(self) -> float:
        """Reservoir SOC at the end of the trace."""
        return self.samples[-1].state_of_charge

    def kpis(self) -> "dict[str, float]":
        """All scalar KPIs as one flat dict (the sweep evaluator's output)."""
        return {
            "harvested_energy_j": self.harvested_energy_j,
            "pumping_energy_j": self.pumping_energy_j,
            "net_energy_j": self.net_energy_j,
            "mean_net_w": self.net_energy_j / self.duration_s,
            "peak_temperature_c": self.peak_temperature_c,
            "throttled_time_fraction": self.throttled_time_fraction,
            "violation_time_fraction": self.violation_time_fraction,
            "n_violations": float(self.n_violations),
            "mean_flow_ml_min": self.mean_flow_ml_min,
            "final_state_of_charge": self.final_state_of_charge,
            "n_samples": float(len(self.samples)),
        }

    def records(self) -> "list[dict[str, object]]":
        """Flat per-sample export rows (CSV/JSON via :mod:`repro.io`)."""
        return [s.record() for s in self.samples]

    def save_csv(self, path) -> "object":
        """Write the trajectory as CSV; returns the path written."""
        from repro.io import save_csv

        return save_csv(self.records(), path)

    def save_json(self, path) -> "object":
        """Write the trajectory as JSON; returns the path written."""
        from repro.io import save_json

        return save_json(self.records(), path)


class BatchedRuntimeEngine:
    """Runs one or many closed-loop scenarios through one trace in lockstep.

    A runtime *sweep* runs dozens of scenarios whose control intervals
    line up (same trace, raster, inlet) while only the control policies
    differ; a single scenario is simply a one-lane batch. The engine
    advances every lane together, one control interval at a time:

    - controller and governor state live in
      :class:`~repro.runtime.controllers.VectorFlowControllers` /
      :class:`~repro.runtime.controllers.VectorThrottleGovernors` lane
      arrays, updated with one vectorized pass per step; every lane runs
      the hysteresis governor;
    - every lane draws on its own fresh case-study reservoir, an
      :class:`~repro.runtime.state.ElectrolyteStateArray` lane;
    - lanes commanding the *same quantized flow* share one kept thermal
      model of the family and its backward-Euler factorization, and
      advance as stacked state columns
      (:class:`~repro.thermal.batch.AnchoredTransientSolver`), so a step
      costs one factorization per distinct flow and one triangular solve
      per lane.

    Lanes never mix: each lane's trajectory — and with it every control
    decision — is bit-identical to running that lane alone, not merely
    close, because flow quantization, governor hysteresis and the PID all
    branch on the floats. Every state column takes its own triangular
    solve (a wider SuperLU solve rounds differently), every
    lane-array sample (:func:`~repro.cosim.coupling.coolant_columns`, the
    column maxima, one surface query per flow group) reduces each lane's
    values on their own, and every polarization-surface node comes from
    the one curve construction whichever run reaches it first (each step
    prefills every lane group's missing nodes in one
    :func:`~repro.cosim.surface.warm_surfaces` call).

    The engine is reusable: :meth:`run` resets the controllers and
    governors, fills fresh reservoirs and starts from the trace's initial
    steady state, so every run is an independent trial, while the
    per-flow steppers, which pin their kept models against eviction (and
    the process-wide polarization surfaces), persist across runs.

    Parameters
    ----------
    controllers:
        One :class:`~repro.runtime.controllers.FixedFlow` or
        :class:`~repro.runtime.controllers.PIDFlowController` per lane.
    config:
        Shared engine configuration; every lane runs the same coolant
        inlet, voltage, raster and pricing.
    """

    def __init__(
        self,
        controllers: "Sequence[FixedFlow | PIDFlowController]",
        config: "RuntimeConfig | None" = None,
    ) -> None:
        if not controllers:
            raise ConfigurationError("need at least one scenario lane")
        self.config = config if config is not None else RuntimeConfig()
        self._controllers = VectorFlowControllers(controllers)
        self._governors = VectorThrottleGovernors(len(controllers))
        self._anchors = self._controllers.initial_flows_ml_min
        self._solvers: "dict[float, object]" = {}
        self._power_maps: "dict[str, np.ndarray]" = {}
        self._pumping: "dict[float, float]" = {}

    def __len__(self) -> int:
        return len(self._controllers)

    # -- cached building blocks ---------------------------------------------------

    def _quantize_flows(self, flows_ml_min: np.ndarray) -> np.ndarray:
        """Snap per-lane flow commands to the resolution grid (never to
        zero).

        Each lane's grid is anchored at its controller's initial flow, so
        the initial (and any fixed) command is represented *exactly* — a
        ``FixedFlow(676)`` baseline really runs at the paper's nominal
        676 ml/min — while continuously varying commands still collapse
        onto a bounded set of flows.
        """
        resolution = FLOW_RESOLUTION_ML_MIN
        quantized = self._anchors + np.round(
            (flows_ml_min - self._anchors) / resolution
        ) * resolution
        return np.maximum(resolution, quantized)

    def _solver(self, flow_ml_min: float):
        """The column stepper, pinning the family's kept model, of one
        quantized flow."""
        solver = self._solvers.get(flow_ml_min)
        if solver is None:
            from repro.casestudy.power7plus import thermal_family
            from repro.thermal.batch import AnchoredTransientSolver

            family = thermal_family(
                self.config.inlet_temperature_k, self.config.nx, self.config.ny
            )
            solver = AnchoredTransientSolver(family.kept_model(flow_ml_min))
            self._solvers[flow_ml_min] = solver
        return solver

    def _workload_map(self, workload_name: str) -> np.ndarray:
        base = self._power_maps.get(workload_name)
        if base is None:
            from repro.casestudy.workloads import standard_workloads

            workload = {w.name: w for w in standard_workloads()}[workload_name]
            base = workload.power_map(self.config.nx, self.config.ny)
            self._power_maps[workload_name] = base
        return base

    def _pumping_w(self, flow_ml_min: float) -> float:
        pumping = self._pumping.get(flow_ml_min)
        if pumping is None:
            from repro.casestudy.power7plus import array_pumping_power_w

            pumping = array_pumping_power_w(
                flow_ml_min, pump_efficiency=self.config.pump_efficiency
            )
            self._pumping[flow_ml_min] = pumping
        return pumping

    def _flow_groups(self, flows: np.ndarray) -> "list[tuple[float, list[int]]]":
        """Lanes grouped by quantized flow, in sorted flow order."""
        groups: "dict[float, list[int]]" = {}
        for lane, flow in enumerate(flows):
            groups.setdefault(float(flow), []).append(lane)
        return sorted(groups.items())

    # -- main loop -----------------------------------------------------------------

    def run(self, trace: WorkloadTrace) -> "list[RuntimeResult]":
        """Execute one trace for every lane; results in lane order."""
        if not obs.enabled():
            return self._run(trace)
        obs.gauge("runtime.lanes", len(self))
        with obs.span("runtime.run", trace=trace.name, lanes=len(self)):
            results = self._run(trace)
        obs.inc(
            "runtime.steps", sum(len(r.samples) for r in results)
        )
        obs.inc(
            "runtime.throttled_steps",
            sum(1 for r in results for s in r.samples if s.throttled),
        )
        obs.inc(
            "runtime.violation_steps",
            sum(1 for r in results for s in r.samples if s.violation),
        )
        return results

    def _run(self, trace: WorkloadTrace) -> "list[RuntimeResult]":
        voltage = self.config.operating_voltage_v
        n_lanes = len(self)
        self._controllers.reset()
        self._governors.reset()
        reservoirs = ElectrolyteStateArray(n_lanes)

        # Initial condition per lane: the steady state of the trace's
        # first operating point at the lane's initial flow. Lanes at the
        # same flow share the solve — the right-hand side is identical
        # before any controller has acted.
        first = trace.segments[0]
        first_map = self._workload_map(first.workload) * first.utilization
        flows = self._quantize_flows(self._controllers.initial_flows_ml_min)
        scales = np.ones(n_lanes)
        states: "np.ndarray | None" = None
        for flow, lanes in self._flow_groups(flows):
            solver = self._solver(flow)
            steady = solver.solve_steady_columns(
                solver.model.rhs_columns("active_si", [first_map])
            )
            if states is None:
                states = np.empty((steady.shape[0], n_lanes))
            states[:, lanes] = steady
        assert states is not None

        lane_samples: "list[list[RuntimeSample]]" = [[] for _ in range(n_lanes)]
        throttled = np.zeros(n_lanes, dtype=bool)
        peaks = np.zeros(n_lanes)
        have_observation = False
        for t_start, step_dt, segment in trace.iter_steps(CONTROL_DT_S):
            if have_observation:
                scales = self._governors.scale_commands(peaks)
                throttled = self._governors.throttled
                flows = self._quantize_flows(
                    self._controllers.flow_commands(peaks, step_dt)
                )

            base_map = self._workload_map(segment.workload)
            time_s = t_start + step_dt
            currents = np.zeros(n_lanes)
            mean_coolants_c = np.zeros(n_lanes)
            pumpings = np.zeros(n_lanes)
            # One span per control step covering the physics (lockstep
            # thermal advance + electrochemical lookups); the sample
            # bookkeeping below is negligible next to the solves.
            with obs.span("runtime.step", lanes=n_lanes):
                # Step every flow group, then march all groups' missing
                # surface nodes as one batch, then sample each group's
                # lanes as one array.
                stepped = []
                for flow, lanes in self._flow_groups(flows):
                    obs.observe("runtime.lane_group.size", len(lanes))
                    solver = self._solver(flow)
                    model = solver.model
                    rhs_columns = model.rhs_columns("active_si", [
                        base_map * (segment.utilization * scales[lane])
                        for lane in lanes
                    ])
                    advanced = solver.step_columns(
                        states[:, lanes], rhs_columns, step_dt
                    )
                    states[:, lanes] = advanced

                    group_temps, mean_coolants_k = coolant_columns(
                        model, advanced
                    )
                    peaks[lanes] = advanced.max(axis=0) - 273.15
                    mean_coolants_c[lanes] = mean_coolants_k - 273.15
                    pumpings[lanes] = self._pumping_w(flow)
                    surface = PolarizationSurface.shared(flow)
                    stepped.append((lanes, surface, group_temps))
                warm_surfaces(
                    (surface, temps) for _, surface, temps in stepped
                )
                for lanes, surface, temps in stepped:
                    currents[lanes] = surface.currents_at(temps, voltage).sum(
                        axis=1
                    )

            currents = reservoirs.step(currents, step_dt)
            socs = reservoirs.state_of_charge
            for lane in range(n_lanes):
                current = float(currents[lane])
                generated = current * voltage
                pumping = float(pumpings[lane])
                net = generated - pumping
                peak_c = float(peaks[lane])
                lane_samples[lane].append(RuntimeSample(
                    time_s=time_s,
                    step_dt_s=step_dt,
                    workload=segment.workload,
                    utilization=segment.utilization,
                    activity_scale=float(scales[lane]),
                    flow_ml_min=float(flows[lane]),
                    peak_temperature_c=peak_c,
                    mean_coolant_c=float(mean_coolants_c[lane]),
                    array_current_a=current,
                    generated_w=generated,
                    pumping_w=pumping,
                    net_w=net,
                    state_of_charge=float(socs[lane]),
                    throttled=bool(throttled[lane]),
                    violation=peak_c > TEMPERATURE_LIMIT_C,
                ))
            have_observation = True

        results = []
        for lane in range(n_lanes):
            if not math.isfinite(lane_samples[lane][-1].peak_temperature_c):
                raise ConfigurationError(
                    "runtime trajectory diverged (non-finite peak temperature)"
                )
            results.append(RuntimeResult(
                trace_name=trace.name, samples=tuple(lane_samples[lane])
            ))
        return results

