"""Named sweep presets: the design-space studies the paper implies.

Each preset pairs a base :class:`~repro.sweep.spec.ScenarioSpec` with a
grid builder that scales to a requested point count, so
``python -m repro sweep flow --points 100`` densifies the same study the
benchmarks run at a handful of points:

- ``flow``      — total flow from the 48 ml/min stress case to 2x nominal
  (cooling vs generation vs pumping, bench A2 densified).
- ``geometry``  — channel width x total flow at fixed footprint
  (bench A1 / design-space example).
- ``vrm``       — regulator technology x array tap voltage (bench A3).
- ``workloads`` — named workload x total flow (bench A8 across coolant
  points).
- ``cosim``     — coolant operating points through the full
  electro-thermal fixed point (slow; Section III-B).
- ``transient`` — utilization-step responses over flow, inlet
  temperature and step size (the bench A14 scenario family; settling
  time and current swing per point).
- ``runtime``   — closed-loop trace execution: controller policy x
  workload trace x starting flow through the runtime engine (the bench
  A16 scenario family; net energy, throttling and peak-T KPIs per
  trajectory).
- ``fleet``     — rack-scale shared-supply fleets: allocation policy x
  per-chip pump budget through the fleet engine (the bench A18 scenario
  family; fleet net energy, worst-chip peak, throttle and fairness KPIs
  per fleet).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError, check_count
from repro.sweep.spec import ScenarioSpec, SweepGrid

#: Flow range swept by the flow-centric presets [ml/min]: the paper's
#: low-flow stress case up to twice the Table II nominal.
FLOW_RANGE_ML_MIN = (48.0, 1352.0)


def _geomspace(lo: float, hi: float, n: int) -> "list[float]":
    return [float(v) for v in np.geomspace(lo, hi, n)]


def _linspace(lo: float, hi: float, n: int) -> "list[float]":
    return [float(v) for v in np.linspace(lo, hi, n)]


@dataclass(frozen=True)
class SweepPreset:
    """A named, point-count-scalable sweep definition."""

    name: str
    description: str
    base: ScenarioSpec
    grid_builder: "Callable[[int], SweepGrid]"
    default_points: int

    def grid(self, points: "int | None" = None) -> SweepGrid:
        """The grid at the requested density (>= ``points`` scenarios)."""
        points = self.default_points if points is None else points
        return self.grid_builder(check_count("points", points))

    def expand(self, points: "int | None" = None) -> "list[ScenarioSpec]":
        """Concrete scenario list at the requested density."""
        return self.grid(points).expand(self.base)


def _flow_grid(points: int) -> SweepGrid:
    return SweepGrid.from_dict({
        "total_flow_ml_min": _geomspace(*FLOW_RANGE_ML_MIN, points),
    })


def _geometry_grid(points: int) -> SweepGrid:
    flows = (169.0, 338.0, 676.0, 1352.0)
    n_widths = max(3, math.ceil(points / len(flows)))
    return SweepGrid.from_dict({
        "channel_width_um": _linspace(100.0, 400.0, n_widths),
        "total_flow_ml_min": flows,
    })


def _vrm_grid(points: int) -> SweepGrid:
    vrms = ("ideal", "sc", "buck")
    n_voltages = max(3, math.ceil(points / len(vrms)))
    return SweepGrid.from_dict({
        "vrm": vrms,
        # Taps on the efficient branch of the Fig. 7 curve, at or above
        # the 1 V rail (the step-down models require it).
        "operating_voltage_v": _linspace(1.0, 1.4, n_voltages),
    })


def _workloads_grid(points: int) -> SweepGrid:
    from repro.casestudy.workloads import WORKLOAD_NAMES

    n_flows = max(2, math.ceil(points / len(WORKLOAD_NAMES)))
    return SweepGrid.from_dict({
        "workload": WORKLOAD_NAMES,
        "total_flow_ml_min": _geomspace(*FLOW_RANGE_ML_MIN, n_flows),
    })


def _cosim_grid(points: int) -> SweepGrid:
    n_flows = max(2, math.ceil(points / 2))
    return SweepGrid.from_dict({
        "total_flow_ml_min": _geomspace(*FLOW_RANGE_ML_MIN, n_flows),
        "inlet_temperature_k": (300.0, 310.15),
    })


def _transient_grid(points: int) -> SweepGrid:
    # 2 inlets x 2 step sizes per flow point; flows start at the paper's
    # quarter-nominal rather than the 48 ml/min stress case so default
    # grids stay fast enough for CI smoke runs.
    n_flows = max(2, math.ceil(points / 4))
    return SweepGrid.from_dict({
        "total_flow_ml_min": _geomspace(169.0, 1352.0, n_flows),
        "inlet_temperature_k": (300.0, 310.15),
        "step_dt_s": (0.05, 0.025),
    })


def _runtime_grid(points: int) -> SweepGrid:
    # controller x trace pairs per flow point; the closed-loop runs
    # dominate the cost, so the default grid stays small and extra
    # points densify the starting-flow axis.
    controllers = ("fixed", "pid")
    traces = ("step", "bursty")
    n_flows = max(1, math.ceil(points / (len(controllers) * len(traces))))
    return SweepGrid.from_dict({
        "controller": controllers,
        "trace": traces,
        "total_flow_ml_min": _geomspace(169.0, 676.0, n_flows)
        if n_flows > 1 else [676.0],
    })


def _fleet_grid(points: int) -> SweepGrid:
    from repro.fleet.supply import POLICY_NAMES

    # policy x per-chip budget; extra points densify the budget axis.
    # The budget stays inside the feasible band of the default supply
    # grid (16..96 ml/min in steps of 8), straddling the fleet optimum.
    n_supplies = max(2, math.ceil(points / len(POLICY_NAMES)))
    return SweepGrid.from_dict({
        "fleet_policy": POLICY_NAMES,
        "supply_per_chip_ml_min": _linspace(32.0, 56.0, n_supplies),
    })


PRESETS: "dict[str, SweepPreset]" = {
    preset.name: preset
    for preset in (
        SweepPreset(
            name="flow",
            description="total flow: cooling vs generation vs pumping",
            base=ScenarioSpec(evaluator="operating_point"),
            grid_builder=_flow_grid,
            default_points=12,
        ),
        SweepPreset(
            name="geometry",
            description="channel width x flow at fixed array footprint",
            base=ScenarioSpec(evaluator="geometry"),
            grid_builder=_geometry_grid,
            default_points=12,
        ),
        SweepPreset(
            name="vrm",
            description="regulator technology x array tap voltage",
            base=ScenarioSpec(evaluator="vrm"),
            grid_builder=_vrm_grid,
            default_points=9,
        ),
        SweepPreset(
            name="workloads",
            description="named workload x total flow",
            base=ScenarioSpec(evaluator="workload"),
            grid_builder=_workloads_grid,
            default_points=8,
        ),
        SweepPreset(
            name="cosim",
            description="electro-thermal fixed point across coolant points",
            base=ScenarioSpec(evaluator="cosim"),
            grid_builder=_cosim_grid,
            default_points=6,
        ),
        SweepPreset(
            name="transient",
            description="utilization-step response over flow/inlet/step size",
            # Reduced raster (as the transient tests use): the trajectory
            # metrics are raster-insensitive and each point integrates
            # dozens of thermal steps.
            base=ScenarioSpec(
                evaluator="transient", nx=22, ny=11,
                utilization_before=0.1, utilization=1.0,
            ),
            grid_builder=_transient_grid,
            default_points=8,
        ),
        SweepPreset(
            name="runtime",
            description="closed-loop trace execution: controller x trace "
            "x starting flow",
            # Reduced raster as in the transient preset: trajectory KPIs
            # are raster-insensitive and each point integrates a whole
            # trace. nx stays a multiple of the 11 channel groups.
            base=ScenarioSpec(evaluator="runtime", nx=22, ny=11),
            grid_builder=_runtime_grid,
            default_points=4,
        ),
        SweepPreset(
            name="fleet",
            description="rack-scale fleets: allocation policy x per-chip "
            "pump budget",
            # Reduced raster as the runtime preset uses; each point rolls
            # a whole 8-chip fleet through its traffic schedule, but the
            # chip tables memoize through the shared fleet runner, so the
            # sweep pays for one table per supply grid.
            base=ScenarioSpec(
                evaluator="fleet", nx=22, ny=11, trace="diurnal-bursty",
            ),
            grid_builder=_fleet_grid,
            default_points=6,
        ),
    )
}


def preset_names() -> "tuple[str, ...]":
    """Available preset names, sorted."""
    return tuple(sorted(PRESETS))


def get_preset(name: str) -> SweepPreset:
    """Look up a preset; raises with the available names listed."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown sweep preset {name!r}; available: {preset_names()}"
        ) from None
