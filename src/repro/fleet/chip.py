"""Per-chip operating states on the fleet's flow x utilization grid.

A fleet chip runs at one of the supply's quantized flow levels and one of
the traffic model's quantized utilization levels, so the whole fleet
problem reduces to a small table of per-chip operating states: steady
peak temperature, array generation at the terminal voltage (through the
shared :class:`~repro.cosim.surface.PolarizationSurface`, so generation
tracks coolant temperature exactly as in the co-simulation), pumping cost
and net power.

Three faces of the same physics live here so they cannot drift:

- :func:`chip_state_metrics` — the scalar ``fleet_chip`` evaluator body
  (fresh thermal model per call, like the other scalar evaluators);
- :func:`batch_chip_states` — the vectorized kernel: one store-backed
  thermal model per quantized flow, utilization variants as stacked RHS
  columns through one :class:`~repro.thermal.batch.AnchoredSteadySolver`
  (affine in utilization, so beyond a flow's first one or two columns
  they project onto the solver's snapshot basis with no LU solve);
- :class:`ChipTable` — the ``(flow level, utilization level)`` lookup the
  :class:`~repro.fleet.fleet.FleetEngine` and the greedy allocation
  policy consume, built by running the grid through a
  :class:`~repro.sweep.runner.SweepRunner` (so tables memoize through the
  sweep cache like any other scenario batch).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.core.metrics import DEFAULT_TEMPERATURE_LIMIT_C
from repro.errors import ConfigurationError
from repro.sweep.spec import ScenarioSpec


def chip_cosim_config(spec: ScenarioSpec):
    """The electrochemical sampling config of one chip operating state.

    Shares the process-wide polarization surfaces with the steady and
    transient co-simulations and the runtime engine (same flow, group and
    sampling keys), so a fleet table at a coolant point they already
    visited rebuilds nothing.
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


def chip_metrics(spec: ScenarioSpec, solution, config) -> "dict[str, float]":
    """Assemble the ``fleet_chip`` metrics from a solved thermal state.

    Shared between the scalar evaluator and the batch kernel so both
    paths apply the identical generation/pumping energy balance.
    ``solution`` must be the steady state at the spec's coolant point and
    utilization; ``config`` the matching :func:`chip_cosim_config`.
    """
    from repro.casestudy.power7plus import array_pumping_power_w
    from repro.cosim.coupling import group_coolant_temperatures
    from repro.cosim.surface import surface_for

    group_temps = group_coolant_temperatures(solution, config)
    surface = surface_for(config)
    # Deeply infeasible grid corners (minimum flow at full load) can push
    # the coolant past the surface's sampled window; they are tabulated
    # only so allocation can price infeasibility (their peaks sit far
    # beyond the trip limit, so they are never served), and their
    # generation saturates at the window edge rather than extrapolating.
    t_min, t_max = surface.temperature_range_k
    group_temps = np.clip(group_temps, t_min, t_max)
    current = float(
        surface.currents_at(group_temps, spec.operating_voltage_v).sum()
    )
    generated = current * spec.operating_voltage_v
    pumping = array_pumping_power_w(
        spec.total_flow_ml_min, pump_efficiency=spec.pump_efficiency
    )
    peak_c = solution.peak_celsius
    return {
        "peak_temperature_c": peak_c,
        "mean_coolant_c": float(np.mean(group_temps)) - 273.15,
        "array_current_a": current,
        "generated_w": generated,
        "pumping_w": pumping,
        "net_w": generated - pumping,
        "feasible": float(peak_c <= DEFAULT_TEMPERATURE_LIMIT_C),
    }


def chip_state_metrics(spec: ScenarioSpec) -> "dict[str, float]":
    """Scalar ``fleet_chip`` evaluation: one chip at one (flow, util)."""
    from repro.casestudy.power7plus import build_thermal_model

    model = build_thermal_model(
        nx=spec.nx,
        ny=spec.ny,
        total_flow_ml_min=spec.total_flow_ml_min,
        inlet_temperature_k=spec.inlet_temperature_k,
        utilization=spec.utilization,
    )
    solution = model.solve_steady()
    return chip_metrics(spec, solution, chip_cosim_config(spec))


def batch_chip_states(
    specs: "Sequence[ScenarioSpec]",
) -> "list[dict[str, float]]":
    """Batched ``fleet_chip``: stacked utilization columns per flow level.

    Scenarios are grouped by mesh + inlet; within a group each quantized
    flow draws its thermal model from the process-wide store of
    :mod:`repro.runtime.engine` (sparse assembly shared with the runtime
    layer), utilization variants of one flow become stacked RHS columns,
    and flows share one anchored factorization and snapshot basis
    middle-out — the same
    sharing pattern as :func:`repro.sweep.vectorized.batch_peak_temperatures`.
    """
    from repro.casestudy.power7plus import full_load_power_map
    from repro.geometry.power7 import build_power7_floorplan
    from repro.runtime.engine import shared_thermal_model
    from repro.sweep.vectorized import _middle_out
    from repro.thermal.batch import AnchoredSteadySolver
    from repro.thermal.solver import ThermalSolution

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
    solutions: "dict[tuple, ThermalSolution]" = {}
    for (inlet, nx, ny), flows in families.items():
        solver = AnchoredSteadySolver()
        for flow in _middle_out(sorted(flows)):
            model = shared_thermal_model(flow, inlet, nx, ny)
            utilizations = sorted(flows[flow])
            columns = model.rhs_columns("active_si", [
                full_load_power_map(nx, ny, floorplan, utilization)
                for utilization in utilizations
            ])
            temperatures = solver.solve_columns(model, columns)
            for k, utilization in enumerate(utilizations):
                solutions[(flow, inlet, utilization, nx, ny)] = ThermalSolution(
                    temperatures_k=temperatures[:, k].copy(), model=model
                )
    return [
        chip_metrics(
            spec,
            solutions[(
                spec.total_flow_ml_min, spec.inlet_temperature_k,
                spec.utilization, spec.nx, spec.ny,
            )],
            chip_cosim_config(spec),
        )
        for spec in specs
    ]


def _nearest_indices(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of the nearest grid entry per value (ties toward the lower
    entry, so quantization is deterministic)."""
    values = np.asarray(values, dtype=float)
    upper = np.clip(np.searchsorted(grid, values), 1, len(grid) - 1)
    lower = upper - 1
    pick_upper = (values - grid[lower]) > (grid[upper] - values)
    return np.where(pick_upper, upper, lower).astype(int)


@dataclass(frozen=True)
class ChipTable:
    """Per-chip KPIs on the quantized ``flow x utilization`` grid.

    ``peak_c`` / ``net_w`` / ``generated_w`` / ``pumping_w`` /
    ``current_a`` are ``(n_flows, n_utils)`` arrays indexed by the sorted
    ``flows_ml_min`` and ``utilizations`` axes. The trip/release limits
    encode the same hysteresis as
    :class:`~repro.runtime.controllers.ThrottleGovernor`: a chip whose
    requested level would exceed ``trip_temperature_c`` is throttled down
    to the largest level at or below ``release_temperature_c`` — the
    governor never parks a chip riding the trip limit itself.
    """

    flows_ml_min: "tuple[float, ...]"
    utilizations: "tuple[float, ...]"
    peak_c: np.ndarray
    net_w: np.ndarray
    generated_w: np.ndarray
    pumping_w: np.ndarray
    current_a: np.ndarray
    trip_temperature_c: float = DEFAULT_TEMPERATURE_LIMIT_C
    release_temperature_c: float = 80.0

    def __post_init__(self) -> None:
        n_flows, n_utils = len(self.flows_ml_min), len(self.utilizations)
        if n_flows < 1 or n_utils < 1:
            raise ConfigurationError("a chip table needs >= 1 flow and util")
        if list(self.flows_ml_min) != sorted(self.flows_ml_min):
            raise ConfigurationError("flow levels must be sorted ascending")
        if list(self.utilizations) != sorted(self.utilizations):
            raise ConfigurationError("utilizations must be sorted ascending")
        if not self.release_temperature_c <= self.trip_temperature_c:
            raise ConfigurationError(
                "release temperature must be <= trip temperature"
            )
        for name in ("peak_c", "net_w", "generated_w", "pumping_w",
                     "current_a"):
            if getattr(self, name).shape != (n_flows, n_utils):
                raise ConfigurationError(
                    f"{name} must have shape ({n_flows}, {n_utils})"
                )

    @classmethod
    def build(
        cls,
        flows_ml_min: "Sequence[float]",
        utilizations: "Sequence[float]",
        base: ScenarioSpec,
        runner,
        trip_temperature_c: float = DEFAULT_TEMPERATURE_LIMIT_C,
        release_temperature_c: float = 80.0,
    ) -> "ChipTable":
        """Evaluate the grid through ``runner`` and assemble the table.

        ``base`` carries the per-chip constants (inlet, voltage, pump
        efficiency, raster); the grid axes override flow and utilization.
        Row-major spec order (flows outer, utilizations inner) keeps the
        batch deterministic and cache-stable.
        """
        flows = tuple(sorted(float(f) for f in flows_ml_min))
        utils = tuple(sorted(float(u) for u in utilizations))
        specs = [
            base.replace(
                evaluator="fleet_chip",
                total_flow_ml_min=flow,
                utilization=util,
            )
            for flow in flows
            for util in utils
        ]
        results = runner.run(specs)
        shape = (len(flows), len(utils))

        def grid(metric: str) -> np.ndarray:
            return np.array(results.metric(metric)).reshape(shape)

        return cls(
            flows_ml_min=flows,
            utilizations=utils,
            peak_c=grid("peak_temperature_c"),
            net_w=grid("net_w"),
            generated_w=grid("generated_w"),
            pumping_w=grid("pumping_w"),
            current_a=grid("array_current_a"),
            trip_temperature_c=float(trip_temperature_c),
            release_temperature_c=float(release_temperature_c),
        )

    # -- quantization -----------------------------------------------------------------

    @property
    def n_flows(self) -> int:
        return len(self.flows_ml_min)

    @property
    def n_utils(self) -> int:
        return len(self.utilizations)

    def flow_indices(self, flows_ml_min) -> np.ndarray:
        """Nearest flow-level index per value."""
        return _nearest_indices(
            np.asarray(self.flows_ml_min), np.asarray(flows_ml_min)
        )

    def util_indices(self, utilizations) -> np.ndarray:
        """Nearest utilization-level index per value."""
        return _nearest_indices(
            np.asarray(self.utilizations), np.asarray(utilizations)
        )

    # -- throttle model ---------------------------------------------------------------

    def _last_feasible_util(self, limit_c: float) -> np.ndarray:
        """Per flow level, the largest util index with peak <= limit (0 if
        even idle trips — the chip then still runs its coolest state)."""
        feasible = self.peak_c <= limit_c
        reversed_argmax = np.argmax(feasible[:, ::-1], axis=1)
        return np.where(
            feasible.any(axis=1), self.n_utils - 1 - reversed_argmax, 0
        ).astype(int)

    @cached_property
    def max_trip_util_index(self) -> np.ndarray:
        """Largest sustainable util index per flow (peak <= trip limit)."""
        return self._last_feasible_util(self.trip_temperature_c)

    @cached_property
    def max_release_util_index(self) -> np.ndarray:
        """Largest util index a *throttled* chip recovers to per flow
        (peak <= release limit, the governor's hysteresis guard band)."""
        return self._last_feasible_util(self.release_temperature_c)

    @cached_property
    def min_feasible_flow_index(self) -> np.ndarray:
        """Per util level, the smallest flow index sustaining it without
        tripping (the top level if none does — best effort)."""
        feasible = self.peak_c <= self.trip_temperature_c
        first = np.argmax(feasible, axis=0)
        return np.where(feasible.any(axis=0), first, self.n_flows - 1).astype(int)

    def served_util_indices(
        self, flow_indices: np.ndarray, util_indices: np.ndarray
    ) -> np.ndarray:
        """Utilization level actually served after throttling.

        A request at or below the flow level's trip boundary is served as
        is; above it, the governor throttles the chip to the release
        boundary (hysteresis: recovery needs peak <= release, so the
        served level carries the guard band, never rides the trip limit).
        """
        flow_indices = np.asarray(flow_indices, dtype=int)
        util_indices = np.asarray(util_indices, dtype=int)
        trip = self.max_trip_util_index[flow_indices]
        release = self.max_release_util_index[flow_indices]
        return np.where(
            util_indices <= trip, util_indices,
            np.minimum(util_indices, release),
        ).astype(int)

    @cached_property
    def served_utilization(self) -> np.ndarray:
        """``(n_flows, n_utils)`` utilization *value* served at each
        (flow level, requested level) after throttling."""
        utils = np.asarray(self.utilizations)
        flow_idx, util_idx = np.meshgrid(
            np.arange(self.n_flows), np.arange(self.n_utils), indexing="ij"
        )
        return utils[self.served_util_indices(flow_idx, util_idx)]

    @cached_property
    def effective_net_w(self) -> np.ndarray:
        """``(n_flows, n_utils)`` net power at the *served* level — what a
        chip actually nets at each (flow level, requested level)."""
        flow_idx, util_idx = np.meshgrid(
            np.arange(self.n_flows), np.arange(self.n_utils), indexing="ij"
        )
        served = self.served_util_indices(flow_idx, util_idx)
        return self.net_w[flow_idx, served]
