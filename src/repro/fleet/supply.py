"""Shared coolant supply: cross-chip flow allocation under a fixed budget.

One rack pump delivers a fixed total flow; :func:`allocate` splits it
across the fleet's chips. Where a passive header geometry fixes how flow
divides, an active valve network at rack level can *choose* the split:

- ``uniform`` — every chip gets the same flow (the passive-manifold
  baseline, equivalent to a perfectly balanced header);
- ``proportional`` — flow follows utilization share, blended with an
  even floor (the bench A11 demand-share allocation, applied to chips
  instead of channels);
- ``greedy`` — a deterministic water-fill over the supply's quantized
  flow levels: first raise every chip to the cheapest level that serves
  its load without tripping the junction limit (largest utilization
  shortfall first), then spend the remaining budget one quantum at a
  time where the marginal fleet net power is best.

All policies conserve the total exactly (a sub-quantum remainder
correction spreads any residue across the chips with headroom) and keep
every chip inside the supply's ``[min_flow, max_flow]`` bounds, so every
chip always receives positive coolant and no inlet exceeds its hydraulic
limit.
The greedy policy operates on per-utilization-level *groups* rather than
individual chips, which makes the resulting allocation invariant under
chip permutation by construction.

Diagnostics are the :class:`FlowDistribution` uniformity (min/max flow
ratio) and the Jain fairness index the fleet KPIs report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, check_count
from repro.units import m3s_from_ml_per_min

#: Allocation policies :func:`allocate` knows, sorted.
POLICY_NAMES = ("greedy", "proportional", "uniform")

#: Demand-share vs even-split blend of the proportional policy — the
#: bench A11 allocation weighting, reused at rack scale.
PROPORTIONAL_BLEND = 0.7


@dataclass(frozen=True)
class SupplySpec:
    """The shared hydraulic budget and its quantization.

    Parameters
    ----------
    n_chips:
        Fleet size (>= 1).
    supply_per_chip_ml_min:
        Pump budget per chip; the total budget is ``n_chips`` times this.
        Must lie within ``[min_flow, max_flow]`` so a uniform split is
        always realizable.
    min_flow_ml_min / max_flow_ml_min:
        Per-chip flow bounds: the minimum keeps every die wetted (no chip
        may be starved), the maximum is the per-chip inlet's hydraulic
        limit.
    resolution_ml_min:
        Valve quantization step; the greedy policy allocates in these
        quanta and the fleet engine evaluates chips at the quantized
        levels. Must tile ``[min_flow, max_flow]`` exactly.
    """

    n_chips: int
    supply_per_chip_ml_min: float
    min_flow_ml_min: float = 16.0
    max_flow_ml_min: float = 96.0
    resolution_ml_min: float = 8.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "n_chips", check_count("n_chips", self.n_chips)
        )
        for name in ("supply_per_chip_ml_min", "min_flow_ml_min",
                     "max_flow_ml_min", "resolution_ml_min"):
            object.__setattr__(self, name, float(getattr(self, name)))
        # Written as ``not 0 < x < inf`` so NaN and inf fail the checks too.
        if not 0.0 < self.min_flow_ml_min < math.inf:
            raise ConfigurationError(
                "min_flow_ml_min must be finite and > 0 ml/min, "
                f"got {self.min_flow_ml_min}"
            )
        if not self.min_flow_ml_min <= self.max_flow_ml_min < math.inf:
            raise ConfigurationError(
                "max_flow_ml_min must be finite and >= min_flow_ml_min, "
                f"got {self.max_flow_ml_min}"
            )
        if not 0.0 < self.resolution_ml_min < math.inf:
            raise ConfigurationError(
                "resolution_ml_min must be finite and > 0 ml/min, "
                f"got {self.resolution_ml_min}"
            )
        span = self.max_flow_ml_min - self.min_flow_ml_min
        steps = span / self.resolution_ml_min
        if abs(steps - round(steps)) > 1e-9:
            raise ConfigurationError(
                f"resolution {self.resolution_ml_min:g} ml/min must tile "
                f"[{self.min_flow_ml_min:g}, {self.max_flow_ml_min:g}] ml/min"
            )
        if not (
            self.min_flow_ml_min
            <= self.supply_per_chip_ml_min
            <= self.max_flow_ml_min
        ):
            raise ConfigurationError(
                f"per-chip supply {self.supply_per_chip_ml_min:g} ml/min "
                f"outside [{self.min_flow_ml_min:g}, "
                f"{self.max_flow_ml_min:g}] ml/min"
            )

    @property
    def total_flow_ml_min(self) -> float:
        """The pump's total budget [ml/min]."""
        return self.n_chips * self.supply_per_chip_ml_min

    def flow_levels(self) -> np.ndarray:
        """The quantized per-chip flow levels, ascending."""
        span = self.max_flow_ml_min - self.min_flow_ml_min
        n_levels = int(round(span / self.resolution_ml_min)) + 1
        return self.min_flow_ml_min + self.resolution_ml_min * np.arange(
            n_levels, dtype=float
        )


# -- diagnostics ---------------------------------------------------------------------


@dataclass(frozen=True)
class FlowDistribution:
    """Per-chip flows of a rack allocation."""

    flows_m3_s: np.ndarray

    @property
    def uniformity(self) -> float:
        """min/max flow ratio in (0, 1]; 1 means perfectly even."""
        return float(self.flows_m3_s.min() / self.flows_m3_s.max())


def supply_distribution(flows_ml_min) -> FlowDistribution:
    """The rack allocation as a :class:`FlowDistribution`, in SI
    volumetric flow."""
    # The scalar converter applied to the whole array: the same two IEEE
    # operations per chip, so the result is bit-identical to a per-chip
    # conversion.
    flows = np.asarray(flows_ml_min, dtype=float)
    return FlowDistribution(flows_m3_s=m3s_from_ml_per_min(flows))


def jain_fairness(flows_ml_min) -> float:
    """Jain's fairness index of an allocation: 1 when perfectly even,
    ``1/n`` when one chip takes everything."""
    flows = np.asarray(flows_ml_min, dtype=float)
    total_sq = float(flows.sum()) ** 2
    sq_total = float((flows * flows).sum())
    if sq_total == 0.0:
        return 1.0
    return total_sq / (flows.size * sq_total)


def _conserve(
    flows: np.ndarray, total_ml_min: float, lo: float, hi: float
) -> np.ndarray:
    """Spread the residual budget across the chips with headroom so the
    sum is exact (up to float round-off of the final additions) while
    every flow stays inside ``[lo, hi]``.

    A uniform spread would push chips already pinned at a bound past it;
    instead each pass adds the residue evenly to the unsaturated chips
    only, re-clips, and repeats (at most ``n`` passes — each pass either
    clears the residue or saturates at least one more chip)."""
    flows = np.clip(flows, lo, hi)
    for _ in range(flows.size):
        residue = total_ml_min - float(flows.sum())
        if residue == 0.0:
            break
        free = flows < hi if residue > 0.0 else flows > lo
        if not free.any():
            break
        flows[free] += residue / int(free.sum())
        np.clip(flows, lo, hi, out=flows)
    return flows


# -- policies ------------------------------------------------------------------------


def uniform_allocation(supply: SupplySpec) -> np.ndarray:
    """Every chip gets the same share of the budget."""
    return np.full(supply.n_chips, supply.supply_per_chip_ml_min, dtype=float)


def proportional_allocation(
    supply: SupplySpec, utilization
) -> np.ndarray:
    """Flow follows utilization share, blended with an even floor.

    Each chip receives the minimum flow plus a share of the surplus
    budget weighted ``PROPORTIONAL_BLEND`` by demand share and the rest
    evenly (the A11 allocation weighting). Chips capped at the maximum
    flow hand their excess back to the uncapped rest, preserving the
    total.
    """
    utilization = np.asarray(utilization, dtype=float)
    n = supply.n_chips
    if utilization.shape != (n,):
        raise ConfigurationError(
            f"utilization must have shape ({n},), got {utilization.shape}"
        )
    demand = utilization.sum()
    share = (
        utilization / demand if demand > 0.0 else np.full(n, 1.0 / n)
    )
    weights = PROPORTIONAL_BLEND * share + (1.0 - PROPORTIONAL_BLEND) / n
    surplus = supply.total_flow_ml_min - n * supply.min_flow_ml_min
    flows = supply.min_flow_ml_min + surplus * weights
    # Hand back capped excess to the uncapped chips, weight-proportional;
    # terminates because each pass strictly grows the capped set.
    passes = 0
    for _ in range(n):
        over = flows > supply.max_flow_ml_min
        if not over.any():
            break
        passes += 1
        excess = float((flows[over] - supply.max_flow_ml_min).sum())
        flows[over] = supply.max_flow_ml_min
        free = ~over
        if not free.any() or excess <= 0.0:
            break
        flows[free] += excess * weights[free] / float(weights[free].sum())
    obs.inc("fleet.allocation.iterations", passes)
    return _conserve(
        flows,
        supply.total_flow_ml_min,
        supply.min_flow_ml_min,
        supply.max_flow_ml_min,
    )


def greedy_allocation(
    supply: SupplySpec, utilization, table
) -> np.ndarray:
    """Deterministic two-phase water-fill over the quantized flow levels.

    Phase A serves the load: starting from the minimum level everywhere,
    quanta go to the chip group with the largest unserved utilization
    (requested minus throttle-limited served level) until every chip's
    load is served or the budget runs out. Phase B spends the remaining
    budget one quantum at a time where the marginal *effective* net power
    (``table.effective_net_w``) loses least — extra coolant always costs
    pumping power and cools the electrolyte, so late quanta are parked
    where they hurt least.

    Chips are aggregated by quantized utilization level, so the result is
    permutation-invariant by construction; within a group, earlier chip
    indices receive the higher levels (any within-group assignment yields
    identical fleet KPIs).
    """
    utilization = np.asarray(utilization, dtype=float)
    n = supply.n_chips
    if utilization.shape != (n,):
        raise ConfigurationError(
            f"utilization must have shape ({n},), got {utilization.shape}"
        )
    levels = supply.flow_levels()
    table_levels = np.asarray(table.flows_ml_min)
    if len(table_levels) != len(levels) or not np.allclose(
        table_levels, levels
    ):
        raise ConfigurationError(
            "chip table flow levels do not match the supply grid"
        )
    n_levels = len(levels)
    util_values = np.asarray(table.utilizations)

    u_idx = table.util_indices(utilization)
    group_ids, counts = np.unique(u_idx, return_counts=True)
    n_groups = len(group_ids)

    # cnt[g, l]: chips of utilization group g currently at flow level l.
    cnt = np.zeros((n_groups, n_levels), dtype=int)
    cnt[:, 0] = counts
    quanta = int(
        (supply.total_flow_ml_min - n * levels[0])
        / supply.resolution_ml_min
        + 1e-9
    )

    # Phase A: serve the load. shed[g, l] = requested minus served
    # utilization for group g at level l; grant to the worst shed first.
    requested = util_values[group_ids]
    served = table.served_utilization[:, group_ids].T  # (n_groups, n_levels)
    shed = requested[:, None] - served
    needed = table.min_feasible_flow_index[group_ids]
    total_needed = int((counts * needed).sum())
    if total_needed <= quanta:
        # Ample budget: every chip jumps straight to its feasible level.
        cnt[:, 0] = 0
        cnt[np.arange(n_groups), needed] += counts
        quanta -= total_needed
    else:
        serve_iterations = 0
        while quanta > 0:
            candidates = np.where(cnt[:, :-1] > 0, shed[:, :-1], -np.inf)
            flat = int(np.argmax(candidates))
            if candidates.ravel()[flat] <= 0.0:
                break
            g, level = divmod(flat, n_levels - 1)
            cnt[g, level] -= 1
            cnt[g, level + 1] += 1
            quanta -= 1
            serve_iterations += 1
        obs.inc("fleet.allocation.iterations", serve_iterations)

    # Phase B: park the remaining budget where the marginal effective net
    # power loses least (gains are usually negative past the optimum —
    # the budget is fixed, so it must go somewhere).
    effective = table.effective_net_w[:, group_ids].T  # (n_groups, n_levels)
    gain = np.concatenate(
        [effective[:, 1:] - effective[:, :-1],
         np.full((n_groups, 1), -np.inf)],
        axis=1,
    )
    park_iterations = 0
    while quanta > 0:
        candidates = np.where(cnt > 0, gain, -np.inf)
        flat = int(np.argmax(candidates))
        if not np.isfinite(candidates.ravel()[flat]):
            break  # every chip at the top level
        g, level = divmod(flat, n_levels)
        cnt[g, level] -= 1
        cnt[g, level + 1] += 1
        quanta -= 1
        park_iterations += 1
    obs.inc("fleet.allocation.iterations", park_iterations)

    # Materialize per-chip levels: within each utilization group, earlier
    # chip indices take the higher levels (deterministic, KPI-neutral).
    level_idx = np.zeros(n, dtype=int)
    for g, group in enumerate(group_ids):
        members = np.flatnonzero(u_idx == group)
        group_levels = np.repeat(
            np.arange(n_levels - 1, -1, -1), cnt[g, ::-1]
        )
        level_idx[members] = group_levels

    return _conserve(
        levels[level_idx],
        supply.total_flow_ml_min,
        supply.min_flow_ml_min,
        supply.max_flow_ml_min,
    )


def allocate(
    policy: str, supply: SupplySpec, utilization, table=None
) -> np.ndarray:
    """Dispatch to an allocation policy by name.

    ``table`` (a :class:`~repro.fleet.chip.ChipTable`) is required by the
    ``greedy`` policy, which needs the thermal/electrical landscape to
    price its choices; the other policies ignore it.
    """
    if policy == "uniform":
        return uniform_allocation(supply)
    if policy == "proportional":
        return proportional_allocation(supply, utilization)
    if policy == "greedy":
        if table is None:
            raise ConfigurationError(
                "the greedy policy needs a ChipTable (got table=None)"
            )
        return greedy_allocation(supply, utilization, table)
    raise ConfigurationError(
        f"unknown allocation policy {policy!r}; expected one of "
        f"{POLICY_NAMES}"
    )
