"""The per-step fleet roll-up: the oracle of the array program.

:meth:`repro.fleet.fleet.FleetEngine.run` rolls a whole ``(steps, chips)``
schedule as arrays, and its greedy water-fill moves chips in runs. This
module keeps the straightforward form it replaced: one
:func:`allocate` call per schedule step, a greedy policy that moves one
flow quantum per ``argmax``, a proportional policy and a residue spread
that each see one step's ``(n_chips,)`` loads, and per-step accumulators
updated in schedule order. Every array and KPI of a :class:`FleetResult`
from :func:`oracle_run`, and the ``fleet.allocation.iterations`` and
``fleet.steps`` counters it bumps, must equal the engine's bit for bit
(``tests/props/test_fleet_properties.py``).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.fleet.fleet import FleetEngine, FleetResult
from repro.fleet.supply import PROPORTIONAL_BLEND, SupplySpec
from repro.units import m3s_from_ml_per_min


def jain_fairness(flows: np.ndarray) -> float:
    """Jain's fairness index of one step's allocation."""
    total_sq = float(flows.sum()) ** 2
    sq_total = float((flows * flows).sum())
    if sq_total == 0.0:
        return 1.0
    return total_sq / (flows.size * sq_total)


def uniformity(flows: np.ndarray) -> float:
    """min/max ratio of one step's allocation in SI volumetric flow."""
    flows_m3_s = m3s_from_ml_per_min(flows)
    return float(flows_m3_s.min() / flows_m3_s.max())


def _conserve(
    flows: np.ndarray, total_ml_min: float, lo: float, hi: float
) -> np.ndarray:
    """Spread the residual budget evenly over the chips with headroom,
    re-clip, and repeat (at most ``n`` passes)."""
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


def proportional_allocation(
    supply: SupplySpec, utilization: np.ndarray
) -> np.ndarray:
    """Demand share blended with an even floor; capped chips hand their
    excess back to the uncapped rest, one pass at a time."""
    n = supply.n_chips
    demand = utilization.sum()
    share = (
        utilization / demand if demand > 0.0 else np.full(n, 1.0 / n)
    )
    weights = PROPORTIONAL_BLEND * share + (1.0 - PROPORTIONAL_BLEND) / n
    surplus = supply.total_flow_ml_min - n * supply.min_flow_ml_min
    flows = supply.min_flow_ml_min + surplus * weights
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
    supply: SupplySpec, utilization: np.ndarray, table
) -> np.ndarray:
    """The two-phase water-fill over the present utilization groups, one
    flow quantum per ``argmax``."""
    n = supply.n_chips
    levels = supply.flow_levels()
    n_levels = len(levels)
    util_values = np.asarray(table.utilizations)

    u_idx = table.util_indices(utilization)
    group_ids, counts = np.unique(u_idx, return_counts=True)
    n_groups = len(group_ids)

    cnt = np.zeros((n_groups, n_levels), dtype=int)
    cnt[:, 0] = counts
    quanta = int(
        (supply.total_flow_ml_min - n * levels[0])
        / supply.resolution_ml_min
        + 1e-9
    )

    # Phase A: serve the load, worst shed first.
    requested = util_values[group_ids]
    served = table.served_utilization[:, group_ids].T
    shed = requested[:, None] - served
    needed = table.min_feasible_flow_index[group_ids]
    total_needed = int((counts * needed).sum())
    if total_needed <= quanta:
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

    # Phase B: park the rest where the marginal effective net power loses
    # least.
    effective = table.effective_net_w[:, group_ids].T
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
            break
        g, level = divmod(flat, n_levels)
        cnt[g, level] -= 1
        cnt[g, level + 1] += 1
        quanta -= 1
        park_iterations += 1
    obs.inc("fleet.allocation.iterations", park_iterations)

    # Within each group, earlier chip indices take the higher levels.
    level_idx = np.zeros(n, dtype=int)
    for g, group in enumerate(group_ids):
        members = np.flatnonzero(u_idx == group)
        level_idx[members] = np.repeat(
            np.arange(n_levels - 1, -1, -1), cnt[g, ::-1]
        )
    return _conserve(
        levels[level_idx],
        supply.total_flow_ml_min,
        supply.min_flow_ml_min,
        supply.max_flow_ml_min,
    )


def allocate(
    policy: str, supply: SupplySpec, utilization: np.ndarray, table
) -> np.ndarray:
    """One step's ``(n_chips,)`` flows under ``policy``."""
    if policy == "uniform":
        return np.full(
            supply.n_chips, supply.supply_per_chip_ml_min, dtype=float
        )
    if policy == "proportional":
        return proportional_allocation(supply, utilization)
    return greedy_allocation(supply, utilization, table)


def oracle_run(
    engine: FleetEngine,
    utilization: "np.ndarray | None" = None,
    durations_s: "np.ndarray | None" = None,
) -> FleetResult:
    """Roll ``engine``'s fleet one schedule step at a time (the schedule
    is taken as valid; the engine checks it)."""
    spec = engine.spec
    if utilization is None:
        durations, utils = spec.traffic().utilization_matrix()
    else:
        utils = np.asarray(utilization, dtype=float)
        durations = (
            np.ones(utils.shape[0])
            if durations_s is None
            else np.asarray(durations_s, dtype=float)
        )
    table = engine.chip_table
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
        flows = allocate(spec.policy, supply, requested, table)
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
        uniformity_time += dt * uniformity(flows)

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
