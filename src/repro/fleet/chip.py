"""Per-chip operating states on the fleet's flow x utilization grid.

A fleet chip runs at one of the supply's quantized flow levels and one of
the traffic model's quantized utilization levels, so the whole fleet
problem reduces to a small table of per-chip operating states: steady
peak temperature, array generation at the terminal voltage (through the
shared :class:`~repro.cosim.surface.PolarizationSurface`, so generation
tracks coolant temperature exactly as in the co-simulation), pumping cost
and net power.

Two faces of the same physics live here so they cannot drift:

- :func:`batch_chip_states` — the ``fleet_chip`` evaluator body: a
  consumer of :func:`repro.sweep.vectorized.steady_families` with
  utilization keys (the maps are multiples of one power map, so after
  the family's first flows every column is answered by the solver's
  Krylov space with no new step);
- :class:`ChipTable` — the ``(flow level, utilization level)`` lookup the
  :class:`~repro.fleet.fleet.FleetEngine` and the greedy allocation
  policy consume, built by running the grid through a
  :class:`~repro.sweep.runner.SweepRunner` (so tables memoize through the
  sweep cache like any other scenario batch).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime import controllers
from repro.sweep.evaluators import cosim_config
from repro.sweep.spec import ScenarioSpec


def _sample_chips(model, temperatures: np.ndarray, config):
    """The surface, clipped group temperatures and peaks of chip states.

    ``temperatures`` holds ``(n_dof, k)`` steady states of one thermal
    model at one coolant point; ``config`` the matching
    :func:`~repro.sweep.evaluators.cosim_config`. Returns the chips'
    polarization surface, their ``(k, G)`` group temperatures [K] and
    ``(k,)`` peaks [degC].

    Deeply infeasible grid corners (minimum flow at full load) can push
    the coolant past the surface's sampled window; they are tabulated
    only so allocation can price infeasibility (their peaks sit far
    beyond the trip limit, so they are never served), and their
    generation saturates at the window edge rather than extrapolating.
    """
    from repro.cosim.coupling import coolant_columns
    from repro.cosim.surface import PolarizationSurface

    surface = PolarizationSurface.shared(config.total_flow_ml_min)
    t_min, t_max = surface.temperature_range_k
    group_temps, _ = coolant_columns(model, temperatures)
    return (
        surface,
        np.clip(group_temps, t_min, t_max),
        temperatures.max(axis=0) - 273.15,
    )


def chip_metrics(
    specs: "Sequence[ScenarioSpec]", surface, group_temps: np.ndarray,
    peaks_c: np.ndarray,
) -> "list[dict[str, float]]":
    """Assemble the ``fleet_chip`` metrics of sampled chip states.

    Row ``i`` of :func:`_sample_chips`' output is the steady state of
    ``specs[i]``; the rows at each terminal voltage are one surface
    query.
    """
    from repro.casestudy.power7plus import array_pumping_power_w

    currents = np.empty(len(specs))
    for voltage in sorted({spec.operating_voltage_v for spec in specs}):
        rows = [i for i, spec in enumerate(specs)
                if spec.operating_voltage_v == voltage]
        currents[rows] = surface.currents_at(
            group_temps[rows], voltage
        ).sum(axis=1)
    mean_coolants_c = group_temps.mean(axis=1) - 273.15
    metrics = []
    for spec, current, peak_c, mean_coolant_c in zip(
        specs, currents, peaks_c, mean_coolants_c
    ):
        current = float(current)
        peak_c = float(peak_c)
        generated = current * spec.operating_voltage_v
        pumping = array_pumping_power_w(
            spec.total_flow_ml_min, pump_efficiency=spec.pump_efficiency
        )
        metrics.append({
            "peak_temperature_c": peak_c,
            "mean_coolant_c": float(mean_coolant_c),
            "array_current_a": current,
            "generated_w": generated,
            "pumping_w": pumping,
            "net_w": generated - pumping,
            "feasible": float(peak_c <= controllers.TEMPERATURE_LIMIT_C),
        })
    return metrics


def batch_chip_states(
    specs: "Sequence[ScenarioSpec]",
) -> "list[dict[str, float]]":
    """The ``fleet_chip`` evaluator: stacked utilization columns per flow
    level.

    The chips' coolant points are solved through
    :func:`repro.sweep.vectorized.steady_families` with utilization keys
    (one conduction stamp per inlet family, each quantized flow's model
    derived from it). Every chip's missing polarization-surface nodes
    are then marched in one :func:`~repro.cosim.surface.warm_surfaces`
    call, and each flow's chips are sampled and queried as one array.
    """
    from repro.casestudy.power7plus import full_load_power_map
    from repro.cosim.surface import warm_surfaces
    from repro.sweep.vectorized import coolant_point, steady_families

    points = [coolant_point(spec, spec.utilization) for spec in specs]
    chips: "dict[tuple, list[int]]" = {}  # spec indices per coolant point
    for index, point in enumerate(points):
        chips.setdefault(point[:4], []).append(index)
    sampled = []
    for point, model, utilizations, _, temperatures in steady_families(
        points, full_load_power_map,
    ):
        indices = chips[point]
        columns = [utilizations.index(specs[i].utilization) for i in indices]
        sampled.append((indices, _sample_chips(
            model, temperatures[:, columns], cosim_config(specs[indices[0]]),
        )))
    # March every chip's missing surface nodes, across flows, in one batch.
    warm_surfaces((surface, temps) for _, (surface, temps, _) in sampled)
    metrics: "list[dict[str, float] | None]" = [None] * len(specs)
    for indices, chip_states in sampled:
        for index, chip in zip(
            indices, chip_metrics([specs[i] for i in indices], *chip_states)
        ):
            metrics[index] = chip
    return metrics


def _nearest_indices(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of the nearest grid entry per value (ties toward the lower
    entry, so quantization is deterministic)."""
    values = np.asarray(values, dtype=float)
    upper = np.clip(np.searchsorted(grid, values), 1, len(grid) - 1)
    lower = upper - 1
    pick_upper = (values - grid[lower]) > (grid[upper] - values)
    return np.where(pick_upper, upper, lower).astype(int)


# Bounded: a fleet service sees a handful of distinct (base, flows, utils)
# grids, one per supply/raster/voltage mix.
@lru_cache(maxsize=8)
def _grid_specs(
    base: ScenarioSpec,
    flows: "tuple[float, ...]",
    utils: "tuple[float, ...]",
) -> "tuple[ScenarioSpec, ...]":
    """The ``fleet_chip`` specs of a chip-table grid, flows outer.

    Memoized per process: every fleet job over the same supply grid
    reuses these spec objects, and with them their already-hashed
    :meth:`~repro.sweep.spec.ScenarioSpec.cache_key`, so a warm table
    read costs only its store lookups.
    """
    return tuple(
        base.replace(
            evaluator="fleet_chip",
            total_flow_ml_min=flow,
            utilization=util,
        )
        for flow in flows
        for util in utils
    )


@dataclass(frozen=True)
class ChipTable:
    """Per-chip KPIs on the quantized ``flow x utilization`` grid.

    ``peak_c`` / ``net_w`` / ``generated_w`` / ``pumping_w`` /
    ``current_a`` are ``(n_flows, n_utils)`` arrays indexed by the sorted
    ``flows_ml_min`` and ``utilizations`` axes. The throttle model is
    the runtime governor's hysteresis
    (:class:`~repro.runtime.controllers.VectorThrottleGovernors`): a chip
    whose requested level would exceed
    :data:`~repro.runtime.controllers.TEMPERATURE_LIMIT_C` is throttled
    down to the largest level at or below
    :data:`~repro.runtime.controllers.RELEASE_PEAK_C` — the governor never
    parks a chip riding the trip limit itself.
    """

    flows_ml_min: "tuple[float, ...]"
    utilizations: "tuple[float, ...]"
    peak_c: np.ndarray
    net_w: np.ndarray
    generated_w: np.ndarray
    pumping_w: np.ndarray
    current_a: np.ndarray

    def __post_init__(self) -> None:
        n_flows, n_utils = len(self.flows_ml_min), len(self.utilizations)
        if n_flows < 1 or n_utils < 1:
            raise ConfigurationError("a chip table needs >= 1 flow and util")
        if list(self.flows_ml_min) != sorted(self.flows_ml_min):
            raise ConfigurationError("flow levels must be sorted ascending")
        if list(self.utilizations) != sorted(self.utilizations):
            raise ConfigurationError("utilizations must be sorted ascending")
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
    ) -> "ChipTable":
        """Evaluate the grid through ``runner`` and assemble the table.

        ``base`` carries the per-chip constants (inlet, voltage, pump
        efficiency, raster); the grid axes override flow and utilization.
        Row-major spec order (flows outer, utilizations inner) keeps the
        batch deterministic and cache-stable; the spec list itself is
        built once per process per grid (see :func:`_grid_specs`), while
        every call still reads each point through ``runner``.
        """
        flows = tuple(sorted(float(f) for f in flows_ml_min))
        utils = tuple(sorted(float(u) for u in utilizations))
        results = runner.run(_grid_specs(base, flows, utils))
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
        return self._last_feasible_util(controllers.TEMPERATURE_LIMIT_C)

    @cached_property
    def max_release_util_index(self) -> np.ndarray:
        """Largest util index a *throttled* chip recovers to per flow
        (peak <= release limit, the governor's hysteresis guard band)."""
        return self._last_feasible_util(controllers.RELEASE_PEAK_C)

    @cached_property
    def min_feasible_flow_index(self) -> np.ndarray:
        """Per util level, the smallest flow index sustaining it without
        tripping (the top level if none does — best effort)."""
        feasible = self.peak_c <= controllers.TEMPERATURE_LIMIT_C
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
