"""Fleet engine: many chips, one coolant supply, one traffic stream.

:class:`FleetSpec` declares the whole rack-scale scenario — fleet size,
allocation policy, hydraulic budget, traffic shape and skew, the
per-chip coolant/electrical constants. :class:`FleetEngine`
evaluates it quasi-statically: every trace segment is long on the chip
thermal time scale (the fleet trace compresses hours, the die settles in
milliseconds), so each chip sits at the steady state of its quantized
(flow, utilization) point, and the whole fleet reduces to lookups into a
:class:`~repro.fleet.chip.ChipTable` built once through the sweep engine
(vectorized backend by default, memoized through the
:class:`~repro.store.ResultStore` like any scenario batch).

Throttling mirrors the runtime governor
(:class:`~repro.runtime.controllers.VectorThrottleGovernors`): a chip
whose requested level would exceed the trip limit at its allocated flow
is served at the release-limit level instead (the hysteresis guard band),
and the shortfall is counted as shed load.

:class:`FleetResult` carries per-chip aggregates plus the fleet KPIs the
ROADMAP asks for: total net energy, worst-case junction temperature,
throttled chip-time fraction and per-chip allocation fairness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from repro import obs
from repro.casestudy.tables import PAPER_ANCHORS, TABLE2
from repro.errors import ConfigurationError, check_count
from repro.fleet.chip import ChipTable
from repro.fleet.supply import (
    POLICY_NAMES,
    SupplySpec,
    allocate,
    jain_fairness,
    supply_distribution,
)
from repro.fleet.traffic import TrafficModel
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import ScenarioSpec

#: Shared runner of the ``fleet`` sweep evaluator: every fleet scenario
#: in a process draws its chip tables from one vectorized runner (and its
#: cache), so a sweep over policies/supplies builds each table once.
_SHARED_RUNNER: "SweepRunner | None" = None


def shared_fleet_runner() -> SweepRunner:
    """The process-wide vectorized runner fleet evaluations share."""
    global _SHARED_RUNNER
    if _SHARED_RUNNER is None:
        _SHARED_RUNNER = SweepRunner()
    return _SHARED_RUNNER


#: Quantization of the fleet's utilization axis: a binary fraction, so
#: the levels tile ``[0, 1]`` without float drift.
UTILIZATION_RESOLUTION = 0.0625

#: Longest explicit schedule [s] ``FleetEngine.run`` takes (~32 years): far
#: above any trace's horizon, and every duration-weighted sum stays finite.
MAX_SCHEDULE_S = 1e9


@dataclass(frozen=True)
class FleetSpec:
    """One rack-scale co-design scenario, ready to evaluate.

    Parameters
    ----------
    n_chips:
        Fleet size.
    policy:
        Flow allocation policy (see :mod:`repro.fleet.supply`):
        ``uniform``, ``proportional`` or ``greedy``.
    supply_per_chip_ml_min:
        Pump budget per chip [ml/min]; total budget is ``n_chips`` times
        this. Must lie within the :class:`~repro.fleet.supply.SupplySpec`
        per-chip flow bounds, whose defaults (and valve quantization) the
        fleet uses.
    trace / trace_seed / skew:
        Traffic model (see :class:`~repro.fleet.traffic.TrafficModel`).
    inlet_temperature_k / operating_voltage_v / pump_efficiency:
        Per-chip coolant and electrical constants (Table II nominal inlet,
        1 V terminal, the paper's 0.5 pump efficiency).
    nx / ny:
        Per-chip thermal raster (reduced 22x11 default, as the runtime
        preset uses; nx stays a multiple of the 11 channel groups).

    The utilization axis is quantized at :data:`UTILIZATION_RESOLUTION`,
    and the throttle hysteresis is the runtime governor's (see
    :class:`~repro.fleet.chip.ChipTable`).
    """

    n_chips: int = 8
    policy: str = "greedy"
    supply_per_chip_ml_min: float = 40.0
    trace: str = "diurnal-bursty"
    trace_seed: int = 7
    skew: float = 0.35
    inlet_temperature_k: float = TABLE2["inlet_temperature_k"]
    operating_voltage_v: float = 1.0
    pump_efficiency: float = PAPER_ANCHORS["pump_efficiency"]
    nx: int = 22
    ny: int = 11

    def __post_init__(self) -> None:
        check_count("n_chips", self.n_chips)
        if self.policy not in POLICY_NAMES:
            raise ConfigurationError(
                f"unknown allocation policy {self.policy!r}; expected one "
                f"of {POLICY_NAMES}"
            )
        # SupplySpec, TrafficModel and ScenarioSpec validate the rest
        # eagerly.
        self.supply()
        self.traffic()
        self.table_base_spec()

    def supply(self) -> SupplySpec:
        """The shared hydraulic budget."""
        return SupplySpec(
            n_chips=self.n_chips,
            supply_per_chip_ml_min=self.supply_per_chip_ml_min,
        )

    def traffic(self) -> TrafficModel:
        """The aggregate demand model."""
        return TrafficModel(
            n_chips=self.n_chips,
            trace=self.trace,
            trace_seed=self.trace_seed,
            skew=self.skew,
        )

    def utilization_levels(self) -> np.ndarray:
        """The quantized utilization grid over ``[0, 1]``, ascending."""
        n_levels = int(round(1.0 / UTILIZATION_RESOLUTION)) + 1
        return UTILIZATION_RESOLUTION * np.arange(n_levels, dtype=float)

    def table_base_spec(self) -> ScenarioSpec:
        """The per-chip constants as a ``fleet_chip`` scenario base."""
        return ScenarioSpec(
            evaluator="fleet_chip",
            inlet_temperature_k=self.inlet_temperature_k,
            operating_voltage_v=self.operating_voltage_v,
            pump_efficiency=self.pump_efficiency,
            nx=self.nx,
            ny=self.ny,
        )


@dataclass(frozen=True)
class FleetResult:
    """Evaluated fleet trajectory: per-chip aggregates + fleet KPIs."""

    spec: FleetSpec
    #: total schedule length [s]
    duration_s: float
    #: per-chip time-means / aggregates, each ``(n_chips,)``
    chip_mean_flow_ml_min: np.ndarray
    chip_mean_utilization: np.ndarray
    chip_mean_served_utilization: np.ndarray
    chip_generated_energy_j: np.ndarray
    chip_pumping_energy_j: np.ndarray
    chip_net_energy_j: np.ndarray
    chip_peak_temperature_c: np.ndarray
    chip_throttled_time_fraction: np.ndarray
    #: time-weighted Jain fairness of the allocation
    allocation_fairness: float
    #: time-weighted supply uniformity (min/max flow ratio)
    supply_uniformity: float
    #: served / requested utilization shortfall over the whole schedule
    shed_load_fraction: float

    @property
    def n_chips(self) -> int:
        return self.spec.n_chips

    @property
    def total_net_energy_j(self) -> float:
        """Fleet net energy over the schedule [J]."""
        return float(self.chip_net_energy_j.sum())

    @property
    def total_generated_energy_j(self) -> float:
        return float(self.chip_generated_energy_j.sum())

    @property
    def total_pumping_energy_j(self) -> float:
        return float(self.chip_pumping_energy_j.sum())

    @property
    def worst_peak_temperature_c(self) -> float:
        """Hottest junction any chip reached at any time [degC]."""
        return float(self.chip_peak_temperature_c.max())

    @property
    def throttled_chip_time_fraction(self) -> float:
        """Fraction of chip-time spent throttled."""
        return float(self.chip_throttled_time_fraction.mean())

    def kpis(self) -> "dict[str, float]":
        """Flat fleet KPI dict (the ``fleet`` evaluator's metrics)."""
        return {
            "n_chips": float(self.n_chips),
            "duration_s": float(self.duration_s),
            "total_supply_ml_min": self.spec.supply().total_flow_ml_min,
            "total_net_energy_j": self.total_net_energy_j,
            "total_generated_energy_j": self.total_generated_energy_j,
            "total_pumping_energy_j": self.total_pumping_energy_j,
            "worst_peak_temperature_c": self.worst_peak_temperature_c,
            "throttled_chip_time_fraction": self.throttled_chip_time_fraction,
            "shed_load_fraction": self.shed_load_fraction,
            "allocation_fairness": self.allocation_fairness,
            "supply_uniformity": self.supply_uniformity,
            "mean_flow_ml_min": float(self.chip_mean_flow_ml_min.mean()),
            "mean_utilization": float(self.chip_mean_utilization.mean()),
            "mean_served_utilization": float(
                self.chip_mean_served_utilization.mean()
            ),
        }

    def records(self) -> "list[dict[str, object]]":
        """Per-chip export records, in chip order."""
        return [
            {
                "chip": chip,
                "mean_flow_ml_min": float(self.chip_mean_flow_ml_min[chip]),
                "mean_utilization": float(self.chip_mean_utilization[chip]),
                "mean_served_utilization": float(
                    self.chip_mean_served_utilization[chip]
                ),
                "generated_energy_j": float(
                    self.chip_generated_energy_j[chip]
                ),
                "pumping_energy_j": float(self.chip_pumping_energy_j[chip]),
                "net_energy_j": float(self.chip_net_energy_j[chip]),
                "peak_temperature_c": float(
                    self.chip_peak_temperature_c[chip]
                ),
                "throttled_time_fraction": float(
                    self.chip_throttled_time_fraction[chip]
                ),
            }
            for chip in range(self.n_chips)
        ]

    def table(self) -> str:
        """Aligned text table of the per-chip records."""
        from repro.core.report import format_table

        records = self.records()
        columns = list(records[0])
        return format_table(
            columns, [[r[c] for c in columns] for r in records]
        )

    def save_csv(self, path: "str | Path") -> Path:
        from repro.io import save_csv

        return save_csv(self.records(), path)

    def save_json(self, path: "str | Path") -> Path:
        from repro.io import save_json

        return save_json(self.records(), path)


class FleetEngine:
    """Evaluates a :class:`FleetSpec` to a :class:`FleetResult`.

    Parameters
    ----------
    spec:
        The fleet scenario.
    runner:
        :class:`~repro.sweep.runner.SweepRunner` the chip table is built
        through; defaults to a fresh vectorized runner. Pass a runner
        with a persistent :class:`~repro.store.ResultStore` (or the
        :func:`shared_fleet_runner`) to share tables across engines.
    """

    def __init__(
        self, spec: FleetSpec, runner: "SweepRunner | None" = None
    ) -> None:
        self.spec = spec
        self.runner = runner if runner is not None else SweepRunner()

    @cached_property
    def chip_table(self) -> ChipTable:
        """The per-chip KPI table (built once per engine, memoized by the
        runner's cache across engines)."""
        with obs.span(
            "fleet.table.build",
            flows=len(self.spec.supply().flow_levels()),
            utilizations=len(self.spec.utilization_levels()),
        ):
            table = ChipTable.build(
                flows_ml_min=self.spec.supply().flow_levels(),
                utilizations=self.spec.utilization_levels(),
                base=self.spec.table_base_spec(),
                runner=self.runner,
            )
        obs.gauge(
            "fleet.table.points",
            len(table.flows_ml_min) * len(table.utilizations),
        )
        return table

    def run(
        self,
        utilization: "np.ndarray | None" = None,
        durations_s: "np.ndarray | None" = None,
    ) -> FleetResult:
        """Roll the fleet through its schedule.

        By default the schedule comes from the spec's traffic model; pass
        ``utilization`` (``(n_steps, n_chips)``) and ``durations_s``
        (``(n_steps,)``) to drive an explicit schedule instead (tests,
        what-if studies).
        """
        if not obs.enabled():
            return self._run(utilization, durations_s)
        with obs.span(
            "fleet.run", policy=self.spec.policy, chips=self.spec.n_chips
        ):
            return self._run(utilization, durations_s)

    def _run(
        self,
        utilization: "np.ndarray | None" = None,
        durations_s: "np.ndarray | None" = None,
    ) -> FleetResult:
        spec = self.spec
        if utilization is None:
            if durations_s is not None:
                raise ConfigurationError(
                    "durations_s without utilization makes no schedule"
                )
            durations, utils = spec.traffic().utilization_matrix()
        else:
            utils = np.asarray(utilization, dtype=float)
            if utils.ndim != 2 or len(utils) < 1 or (
                utils.shape[1] != spec.n_chips
            ):
                raise ConfigurationError(
                    f"utilization must be (n_steps >= 1, {spec.n_chips}), "
                    f"got {utils.shape}"
                )
            # Written as ``not lo <= x <= hi`` so NaN fails the checks too.
            if not np.all((0.0 <= utils) & (utils <= 1.0)):
                raise ConfigurationError("utilization must be in [0, 1]")
            durations = (
                np.ones(len(utils))
                if durations_s is None
                else np.asarray(durations_s, dtype=float)
            )
            if durations.shape != (len(utils),) or not np.all(
                (0.0 < durations) & (durations < np.inf)
            ):
                raise ConfigurationError(
                    "durations_s must be finite and positive, one per step"
                )
            # The largest step first, so the sum itself cannot overflow.
            if durations.max() > MAX_SCHEDULE_S or durations.sum() > MAX_SCHEDULE_S:
                raise ConfigurationError(
                    f"durations_s must total at most {MAX_SCHEDULE_S:g} s"
                )

        table = self.chip_table
        util_values = np.asarray(table.utilizations)
        obs.inc("fleet.steps", durations.size)
        flows = allocate(spec.policy, spec.supply(), utils, table=table)
        flow_idx = table.flow_indices(flows)
        util_idx = table.util_indices(utils)
        served_idx = table.served_util_indices(flow_idx, util_idx)
        # One gather per table, through each chip-step's flat table index.
        state = flow_idx * table.n_utils + served_idx
        generated = np.take(table.generated_w, state)
        pumping = np.take(table.pumping_w, state)
        (
            chip_flow_time, chip_util_time, chip_served_time, chip_generated,
            chip_pumping, chip_net, chip_throttled_time,
        ) = _step_sums(
            durations, flows, util_values[util_idx], util_values[served_idx],
            generated, pumping, generated - pumping, served_idx < util_idx,
        )
        fairness_time, uniformity_time = _step_sums(
            durations, jain_fairness(flows),
            supply_distribution(flows).uniformity,
        )

        duration = float(durations.sum())
        requested_total = float(chip_util_time.sum())
        served_total = float(chip_served_time.sum())
        shed = (
            1.0 - served_total / requested_total
            if requested_total > 0.0
            else 0.0
        )
        return FleetResult(
            spec=spec,
            duration_s=duration,
            chip_mean_flow_ml_min=chip_flow_time / duration,
            chip_mean_utilization=chip_util_time / duration,
            chip_mean_served_utilization=chip_served_time / duration,
            chip_generated_energy_j=chip_generated,
            chip_pumping_energy_j=chip_pumping,
            chip_net_energy_j=chip_net,
            chip_peak_temperature_c=np.take(table.peak_c, state).max(axis=0),
            chip_throttled_time_fraction=chip_throttled_time / duration,
            allocation_fairness=float(fairness_time / duration),
            supply_uniformity=float(uniformity_time / duration),
            shed_load_fraction=float(shed),
        )


def _step_sums(durations: np.ndarray, *terms: np.ndarray) -> np.ndarray:
    """Each term's ``durations``-weighted total over the schedule steps
    (the terms' first axis), added in step order starting from zero: the
    bits of a per-step ``total += dt * term`` (a pairwise ``sum`` would
    round differently)."""
    weighted = np.stack(terms, axis=1)
    weighted *= durations.reshape((-1,) + (1,) * (weighted.ndim - 1))
    total = np.zeros(weighted.shape[1:])
    for step in weighted:
        total += step
    return total
