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
  shortfall first), then spend the remaining budget where the marginal
  fleet net power is best. Every step of a schedule is allocated at once,
  and chips move up the levels in runs.

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
    """Per-chip flows of a rack allocation (or of each schedule step)."""

    flows_m3_s: np.ndarray

    @property
    def uniformity(self) -> "float | np.ndarray":
        """min/max flow ratio in (0, 1], per row of a schedule; 1 means
        perfectly even."""
        ratio = self.flows_m3_s.min(axis=-1) / self.flows_m3_s.max(axis=-1)
        return float(ratio) if np.ndim(ratio) == 0 else ratio


def supply_distribution(flows_ml_min) -> FlowDistribution:
    """The rack allocation as a :class:`FlowDistribution`, in SI
    volumetric flow."""
    # The scalar converter applied to the whole array: the same two IEEE
    # operations per chip, so the result is bit-identical to a per-chip
    # conversion.
    flows = np.asarray(flows_ml_min, dtype=float)
    return FlowDistribution(flows_m3_s=m3s_from_ml_per_min(flows))


def jain_fairness(flows_ml_min) -> "float | np.ndarray":
    """Jain's fairness index of an allocation, per row of a schedule: 1
    when perfectly even, ``1/n`` when one chip takes everything."""
    flows = np.asarray(flows_ml_min, dtype=float)
    sums = flows.sum(axis=-1)
    # Each row's sum squared as a Python float, as for a single step.
    total_sq = np.reshape(
        [float(s) ** 2 for s in np.ravel(sums)], sums.shape
    )
    sq_total = (flows * flows).sum(axis=-1)
    fairness = np.divide(
        total_sq, flows.shape[-1] * sq_total,
        out=np.ones(np.shape(sq_total)), where=sq_total != 0.0,
    )
    return float(fairness) if flows.ndim == 1 else fairness


def _conserve(flows: np.ndarray, supply: SupplySpec) -> np.ndarray:
    """Spread each row's residual budget across its chips with headroom so
    the row sums are exact (up to float round-off of the final additions)
    while every flow stays inside the supply's bounds.

    A uniform spread would push chips already pinned at a bound past it;
    instead each pass adds the residue evenly to the unsaturated chips
    only, re-clips, and repeats (at most ``n`` passes — each pass either
    clears a row's residue or saturates at least one more of its chips).
    A row leaves the loop for good once its residue clears or none of its
    chips has headroom."""
    lo, hi = supply.min_flow_ml_min, supply.max_flow_ml_min
    flows = np.clip(flows, lo, hi)
    active = np.ones(len(flows), dtype=bool)
    for _ in range(flows.shape[1]):
        residue = supply.total_flow_ml_min - flows.sum(axis=1)
        free = np.where((residue > 0.0)[:, None], flows < hi, flows > lo)
        n_free = free.sum(axis=1)
        active &= (residue != 0.0) & (n_free > 0)
        if not active.any():
            break
        np.add(
            flows, (residue / np.maximum(n_free, 1))[:, None], out=flows,
            where=free & active[:, None],
        )
        np.clip(flows, lo, hi, out=flows)
    return flows


# -- policies ------------------------------------------------------------------------


def _hand_back(flows: np.ndarray, weights: np.ndarray, hi: float) -> int:
    """Hand one row's capped excess back to its uncapped chips,
    weight-proportional, in place; returns the passes that found a capped
    chip. Terminates because each pass strictly grows the capped set."""
    for passes in range(1, flows.size + 1):
        over = flows > hi
        if not over.any():
            return passes - 1
        excess = float((flows[over] - hi).sum())
        flows[over] = hi
        free = ~over
        if not free.any() or excess <= 0.0:
            return passes
        flows[free] += excess * weights[free] / float(weights[free].sum())
    return flows.size


def _proportional(supply: SupplySpec, utilization: np.ndarray) -> np.ndarray:
    """Flow follows utilization share, blended with an even floor.

    Each chip receives the minimum flow plus a share of the surplus
    budget weighted ``PROPORTIONAL_BLEND`` by demand share and the rest
    evenly (the A11 allocation weighting). Chips capped at the maximum
    flow hand their excess back to the uncapped rest, preserving the
    total; only the rows with a capped chip take that per-row path, whose
    masked sums keep the order of a single step's.
    """
    n = supply.n_chips
    demand = utilization.sum(axis=1, keepdims=True)
    share = np.divide(
        utilization, demand, out=np.full(utilization.shape, 1.0 / n),
        where=demand > 0.0,
    )
    weights = PROPORTIONAL_BLEND * share + (1.0 - PROPORTIONAL_BLEND) / n
    surplus = supply.total_flow_ml_min - n * supply.min_flow_ml_min
    flows = supply.min_flow_ml_min + surplus * weights
    capped = np.flatnonzero((flows > supply.max_flow_ml_min).any(axis=1))
    obs.inc("fleet.allocation.iterations", sum(
        _hand_back(flows[row], weights[row], supply.max_flow_ml_min)
        for row in capped
    ))
    return flows


def _water_fill(
    cnt: np.ndarray, quanta: np.ndarray, rows: np.ndarray,
    value: np.ndarray, stop,
) -> int:
    """Advance the listed rows' water-fill in place; returns the quanta
    moved. ``cnt[row, k]`` counts chips in state ``k`` of the flat
    ``(utilization level, flow level)`` grid ``value`` prices.

    Each pass takes every unfinished row's first occupied maximum, ends
    the row if ``stop`` holds for it, and else moves chips one flow level
    up. If the next level's value is no higher, the picked state stays
    the first maximum until its count or the row's quanta run out, so the
    whole run moves at once; otherwise one chip moves.
    """
    value = value.ravel()
    moved = 0
    rows = rows[quanta[rows] > 0]
    while rows.size:
        candidates = np.where(cnt[rows] > 0, value, -np.inf)
        pick = candidates.argmax(axis=1)
        go = ~stop(candidates.max(axis=1))
        rows, pick = rows[go], pick[go]
        run = np.where(
            value[pick + 1] <= value[pick],
            np.minimum(cnt[rows, pick], quanta[rows]), 1,
        )
        cnt[rows, pick] -= run
        cnt[rows, pick + 1] += run
        quanta[rows] -= run
        moved += int(run.sum())
        rows = rows[quanta[rows] > 0]
    return moved


def _greedy(
    supply: SupplySpec, utilization: np.ndarray, table
) -> np.ndarray:
    """Deterministic two-phase water-fill over the quantized flow levels.

    Phase A serves the load: starting from the minimum level everywhere,
    quanta go to the chip group with the largest unserved utilization
    (requested minus throttle-limited served level) until every chip's
    load is served or the budget runs out. Phase B spends the remaining
    budget where the marginal *effective* net power
    (``table.effective_net_w``) loses least — extra coolant always costs
    pumping power and cools the electrolyte, so late quanta are parked
    where they hurt least. Both phases advance every step of the schedule
    together and move chips in runs (see :func:`_water_fill`).

    Chips are aggregated by quantized utilization level, so the result is
    permutation-invariant by construction; within a group, earlier chip
    indices receive the higher levels (any within-group assignment yields
    identical fleet KPIs).
    """
    levels = supply.flow_levels()
    table_levels = np.asarray(table.flows_ml_min)
    if len(table_levels) != len(levels) or not np.allclose(
        table_levels, levels
    ):
        raise ConfigurationError(
            "chip table flow levels do not match the supply grid"
        )
    n_steps, n = utilization.shape
    n_utils, n_levels = table.n_utils, len(levels)

    # counts[s, u]: chips of step s at utilization level u.
    u_idx = table.util_indices(utilization)
    counts = np.bincount(
        (u_idx + n_utils * np.arange(n_steps)[:, None]).ravel(),
        minlength=n_steps * n_utils,
    ).reshape(n_steps, n_utils)
    quanta = int((supply.total_flow_ml_min - n * levels[0])
                 / supply.resolution_ml_min + 1e-9)

    # Phase A: serve the load. With an ample budget every chip jumps
    # straight to its feasible level; otherwise quanta go to the worst
    # shed (requested minus served utilization) first.
    needed = table.min_feasible_flow_index
    total_needed = counts @ needed
    ample = total_needed <= quanta
    # cnt[s, u, l]: chips of step s and utilization level u at flow level l.
    cnt = np.zeros((n_steps, n_utils, n_levels), dtype=int)
    np.put_along_axis(
        cnt, np.where(ample[:, None], needed, 0)[..., None],
        counts[..., None], axis=2,
    )
    quanta = np.where(ample, quanta - total_needed, quanta)
    shed = (
        np.asarray(table.utilizations)[:, None] - table.served_utilization.T
    )
    shed[:, -1] = -np.inf  # a chip at the top level has no grant left
    states = cnt.reshape(n_steps, -1)  # a view: the fills update cnt
    moved = _water_fill(
        states, quanta, np.flatnonzero(~ample), shed, lambda v: v <= 0.0
    )

    # Phase B: park the remaining budget where the marginal effective net
    # power loses least (gains are usually negative past the optimum —
    # the budget is fixed, so it must go somewhere).
    gain = np.full((n_utils, n_levels), -np.inf)
    gain[:, :-1] = np.diff(table.effective_net_w.T, axis=1)
    moved += _water_fill(
        states, quanta, np.arange(n_steps), gain, lambda v: ~np.isfinite(v)
    )
    obs.inc("fleet.allocation.iterations", moved)

    # Materialize per-chip levels: within each utilization group, earlier
    # chip indices take the higher levels (deterministic, KPI-neutral).
    descending = np.repeat(
        np.tile(np.arange(n_levels - 1, -1, -1), n_steps * n_utils),
        cnt[:, :, ::-1].ravel(),
    ).reshape(n_steps, n)
    level_idx = np.empty_like(u_idx)
    np.put_along_axis(
        level_idx, np.argsort(u_idx, axis=1, kind="stable"), descending,
        axis=1,
    )
    return levels[level_idx]


def allocate(
    policy: str, supply: SupplySpec, utilization, table=None
) -> np.ndarray:
    """Split the budget under the policy named ``policy``.

    ``utilization`` is one step's ``(n_chips,)`` loads or a schedule's
    ``(n_steps, n_chips)``; the flows come back in the same shape, every
    row allocated on its own (a 1-D call is the schedule of one step).
    ``table`` (a :class:`~repro.fleet.chip.ChipTable`) is required by the
    ``greedy`` policy, which needs the thermal/electrical landscape to
    price its choices; the other policies ignore it.
    """
    utilization = np.asarray(utilization, dtype=float)
    n = supply.n_chips
    if utilization.ndim not in (1, 2) or utilization.shape[-1] != n:
        raise ConfigurationError(
            f"utilization must have shape ({n},) or (n_steps, {n}), got "
            f"{utilization.shape}"
        )
    rows = utilization.reshape(-1, n)
    if policy == "uniform":
        flows = np.full(rows.shape, supply.supply_per_chip_ml_min)
    elif policy == "proportional":
        flows = _conserve(_proportional(supply, rows), supply)
    elif policy == "greedy":
        if table is None:
            raise ConfigurationError(
                "the greedy policy needs a ChipTable (got table=None)"
            )
        flows = _conserve(_greedy(supply, rows, table), supply)
    else:
        raise ConfigurationError(
            f"unknown allocation policy {policy!r}; expected one of "
            f"{POLICY_NAMES}"
        )
    return flows.reshape(utilization.shape)
