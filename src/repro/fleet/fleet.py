"""Fleet engine: many chips, one coolant supply, one traffic stream.

:class:`FleetSpec` declares the whole rack-scale scenario — fleet size,
allocation policy, hydraulic budget and quantization, traffic shape and
skew, the per-chip coolant/electrical constants. :class:`FleetEngine`
evaluates it quasi-statically: every trace segment is long on the chip
thermal time scale (the fleet trace compresses hours, the die settles in
milliseconds), so each chip sits at the steady state of its quantized
(flow, utilization) point, and the whole fleet reduces to lookups into a
:class:`~repro.fleet.chip.ChipTable` built once through the sweep engine
(vectorized backend by default, memoized through the
:class:`~repro.store.ResultStore` like any scenario batch).

Throttling mirrors :class:`~repro.runtime.controllers.ThrottleGovernor`:
a chip whose requested level would exceed the trip limit at its allocated
flow is served at the release-limit level instead (the hysteresis guard
band), and the shortfall is counted as shed load.

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
from repro.core.metrics import DEFAULT_TEMPERATURE_LIMIT_C
from repro.errors import ConfigurationError
from repro.fleet.chip import ChipTable
from repro.fleet.supply import (
    POLICY_NAMES,
    SupplySpec,
    allocate,
    jain_fairness,
    supply_distribution,
)
from repro.fleet.traffic import DEFAULT_USERS_PER_CHIP, TrafficModel
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
        this. Must lie within the per-chip flow bounds.
    trace / trace_seed / skew / users_per_chip:
        Traffic model (see :class:`~repro.fleet.traffic.TrafficModel`).
    inlet_temperature_k / operating_voltage_v / pump_efficiency:
        Per-chip coolant and electrical constants (Table II nominal inlet,
        1 V terminal, the paper's 0.5 pump efficiency).
    nx / ny:
        Per-chip thermal raster (reduced 22x11 default, as the runtime
        preset uses; nx stays a multiple of the 11 channel groups).
    min_flow_ml_min / max_flow_ml_min / flow_resolution_ml_min:
        Per-chip flow bounds and valve quantization of the shared supply.
    utilization_resolution:
        Quantization of the utilization axis; ``1/resolution`` must be an
        integer so the grid tiles ``[0, 1]`` exactly (binary fractions
        like 0.0625 quantize without float drift).
    trip_temperature_c / release_temperature_c:
        Throttle hysteresis (defaults mirror
        :class:`~repro.runtime.controllers.ThrottleGovernor`: trip at the
        85 degC server-silicon limit, recover at 80 degC).
    """

    n_chips: int = 8
    policy: str = "greedy"
    supply_per_chip_ml_min: float = 40.0
    trace: str = "diurnal-bursty"
    trace_seed: int = 7
    skew: float = 0.35
    users_per_chip: float = DEFAULT_USERS_PER_CHIP
    inlet_temperature_k: float = TABLE2["inlet_temperature_k"]
    operating_voltage_v: float = 1.0
    pump_efficiency: float = PAPER_ANCHORS["pump_efficiency"]
    nx: int = 22
    ny: int = 11
    min_flow_ml_min: float = 16.0
    max_flow_ml_min: float = 96.0
    flow_resolution_ml_min: float = 8.0
    utilization_resolution: float = 0.0625
    trip_temperature_c: float = DEFAULT_TEMPERATURE_LIMIT_C
    release_temperature_c: float = 80.0

    def __post_init__(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ConfigurationError(
                f"unknown allocation policy {self.policy!r}; expected one "
                f"of {POLICY_NAMES}"
            )
        steps = 1.0 / self.utilization_resolution
        if not 0.0 < self.utilization_resolution <= 1.0 or (
            abs(steps - round(steps)) > 1e-9
        ):
            raise ConfigurationError(
                "utilization_resolution must tile [0, 1] exactly "
                f"(got {self.utilization_resolution})"
            )
        if not self.release_temperature_c <= self.trip_temperature_c:
            raise ConfigurationError(
                "release temperature must be <= trip temperature"
            )
        # SupplySpec and TrafficModel validate the rest eagerly.
        self.supply()
        self.traffic()

    def supply(self) -> SupplySpec:
        """The shared hydraulic budget."""
        return SupplySpec(
            n_chips=self.n_chips,
            supply_per_chip_ml_min=self.supply_per_chip_ml_min,
            min_flow_ml_min=self.min_flow_ml_min,
            max_flow_ml_min=self.max_flow_ml_min,
            resolution_ml_min=self.flow_resolution_ml_min,
        )

    def traffic(self) -> TrafficModel:
        """The aggregate demand model."""
        return TrafficModel(
            n_chips=self.n_chips,
            trace=self.trace,
            trace_seed=self.trace_seed,
            skew=self.skew,
            users_per_chip=self.users_per_chip,
        )

    def utilization_levels(self) -> np.ndarray:
        """The quantized utilization grid over ``[0, 1]``, ascending."""
        n_levels = int(round(1.0 / self.utilization_resolution)) + 1
        return self.utilization_resolution * np.arange(n_levels, dtype=float)

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
                trip_temperature_c=self.spec.trip_temperature_c,
                release_temperature_c=self.spec.release_temperature_c,
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
            if utils.ndim != 2 or utils.shape[1] != spec.n_chips:
                raise ConfigurationError(
                    f"utilization must be (n_steps, {spec.n_chips}), got "
                    f"{utils.shape}"
                )
            if np.any(utils < 0.0) or np.any(utils > 1.0):
                raise ConfigurationError("utilization must be in [0, 1]")
            durations = (
                np.ones(utils.shape[0])
                if durations_s is None
                else np.asarray(durations_s, dtype=float)
            )
            if durations.shape != (utils.shape[0],) or np.any(
                durations <= 0.0
            ):
                raise ConfigurationError(
                    "durations_s must be positive, one per step"
                )

        table = self.chip_table
        supply = spec.supply()
        n = spec.n_chips
        util_values = np.asarray(table.utilizations)

        chip_flow_time = np.zeros(n)
        chip_util_time = np.zeros(n)
        chip_served_time = np.zeros(n)
        chip_generated = np.zeros(n)
        chip_pumping = np.zeros(n)
        chip_net = np.zeros(n)
        chip_peak = np.full(n, -np.inf)
        chip_throttled_time = np.zeros(n)
        fairness_time = 0.0
        uniformity_time = 0.0

        obs.inc("fleet.steps", durations.size)
        for step, dt in enumerate(durations):
            requested = utils[step]
            flows = allocate(spec.policy, supply, requested, table=table)
            flow_idx = table.flow_indices(flows)
            util_idx = table.util_indices(requested)
            served_idx = table.served_util_indices(flow_idx, util_idx)
            throttled = served_idx < util_idx

            generated = table.generated_w[flow_idx, served_idx]
            pumping = table.pumping_w[flow_idx, served_idx]
            chip_generated += dt * generated
            chip_pumping += dt * pumping
            chip_net += dt * (generated - pumping)
            chip_peak = np.maximum(
                chip_peak, table.peak_c[flow_idx, served_idx]
            )
            chip_throttled_time += dt * throttled
            chip_flow_time += dt * flows
            chip_util_time += dt * util_values[util_idx]
            chip_served_time += dt * util_values[served_idx]
            fairness_time += dt * jain_fairness(flows)
            uniformity_time += dt * supply_distribution(flows).uniformity

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
            chip_peak_temperature_c=chip_peak,
            chip_throttled_time_fraction=chip_throttled_time / duration,
            allocation_fairness=float(fairness_time / duration),
            supply_uniformity=float(uniformity_time / duration),
            shed_load_fraction=float(shed),
        )
