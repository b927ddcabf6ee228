"""Property-based invariants of the rack-scale fleet layer.

Driven through a synthetic :class:`~repro.fleet.chip.ChipTable` (an
analytic thermal/electrical landscape on the default supply grid), so
the invariants run thousands of allocation and rollup cases without a
single thermal solve:

- every allocation policy conserves the pump's total budget within one
  ulp-scaled tolerance and keeps each chip inside the supply's
  ``[min_flow, max_flow]`` bounds (hence strictly positive flow);
- the fleet KPIs are invariant under permutation of the chip order;
- with the supply unconstrained (uniform split at a grid level), each
  chip's fleet result equals a standalone single-chip run, and the
  greedy policy degenerates to the uniform split at the hydraulic cap;
- on random chip tables, every policy's whole-schedule array roll-up
  equals the per-step oracle (``tests/fleet/rollup_oracle.py``) bit for
  bit, counters included, and a one-step ``allocate`` call equals the
  matching row of the schedule call.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.fleet.chip import ChipTable
from repro.fleet.fleet import FleetEngine, FleetSpec
from repro.fleet.supply import POLICY_NAMES, SupplySpec, allocate
from repro.runtime.trace import TRACE_NAMES
from tests.fleet.rollup_oracle import oracle_run

# -- synthetic chip landscape --------------------------------------------------------

#: The default supply grid: 16..96 ml/min in 8 ml/min quanta.
FLOWS = np.arange(16.0, 96.0 + 1e-9, 8.0)

#: A coarse utilization grid tiling [0, 1].
UTILS = np.linspace(0.0, 1.0, 9)


def synthetic_table() -> ChipTable:
    """An analytic chip table with the real table's qualitative shape:
    peak temperature rises with load and falls with flow, generation
    rises with load and (logarithmically) with flow, pumping grows
    quadratically with flow."""
    flow, util = np.meshgrid(FLOWS, UTILS, indexing="ij")
    peak = 45.0 + 45.0 * util - 0.25 * (flow - 16.0)
    generated = 6.0 + 2.0 * util + 0.5 * np.log(flow / 16.0)
    pumping = 2e-4 * flow**2 + np.zeros_like(util)
    return ChipTable(
        flows_ml_min=tuple(FLOWS),
        utilizations=tuple(UTILS),
        peak_c=peak,
        net_w=generated - pumping,
        generated_w=generated,
        pumping_w=pumping,
        current_a=np.full_like(generated, 5.0),
    )


TABLE = synthetic_table()


def fleet_engine(
    n_chips: int, policy: str, supply: float, table: ChipTable = TABLE,
    **traffic,
) -> FleetEngine:
    """An engine over a synthetic landscape: the cached chip table is
    injected so no thermal model is ever built."""
    spec = FleetSpec(
        n_chips=n_chips,
        policy=policy,
        supply_per_chip_ml_min=supply,
        **traffic,
    )
    engine = FleetEngine(spec)
    engine.__dict__["chip_table"] = table
    return engine


@st.composite
def chip_tables(draw) -> ChipTable:
    """Random tables on the default supply grid. Entries come from coarse
    value sets, so ties between candidates are common; peaks straddle the
    80 degC release and 85 degC trip limits (a column may trip at every
    flow, and a served load may fall as flow rises); the net-power surface
    is random, convex in flow (rising gains: the water-fill moves one chip
    at a time) or concave (falling gains: it moves whole runs)."""
    n_utils = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (len(FLOWS), n_utils)
    peak = rng.choice([60.0, 79.0, 80.0, 83.0, 85.0, 86.0, 95.0], size=shape)
    if draw(st.booleans()):
        peak[:, rng.integers(n_utils)] = 95.0
    level = np.arange(len(FLOWS), dtype=float)[:, None]
    slope = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=n_utils)
    net = {
        "random": rng.choice(np.arange(-2.0, 2.5, 0.5), size=shape),
        "convex": 0.125 * slope * level**2,
        "concave": -0.125 * level**2 + slope * level,
    }[draw(st.sampled_from(["random", "convex", "concave"]))]
    pumping = rng.choice([0.0, 0.25, 0.5], size=shape)
    return ChipTable(
        flows_ml_min=tuple(FLOWS),
        utilizations=tuple(np.linspace(0.0, 1.0, n_utils)),
        peak_c=peak,
        net_w=net,
        generated_w=net + pumping,
        pumping_w=pumping,
        current_a=np.full(shape, 5.0),
    )


#: Per-chip budgets from the minimum to the maximum flow: grid levels
#: (where the greedy quanta divide the budget exactly), and a band of
#: high budgets where proportional chips cap and hand their excess back.
budgets = st.one_of(
    st.sampled_from([16.0, 24.0, 40.0, 96.0]),
    st.floats(16.0, 96.0, allow_nan=False),
    st.floats(80.0, 96.0, allow_nan=False),
)


def schedule(seed: int, n_steps: int, n_chips: int, n_utils: int):
    """A ``(n_steps, n_chips)`` load schedule mixing table levels (ties
    within a step), free values and idle steps, and its durations."""
    rng = np.random.default_rng(seed)
    utils = np.where(
        rng.random((n_steps, n_chips)) < 0.5,
        rng.integers(0, n_utils, (n_steps, n_chips)) / (n_utils - 1),
        rng.random((n_steps, n_chips)),
    )
    utils[rng.random(n_steps) < 0.1] = 0.0
    return utils, rng.choice([0.25, 1.0, 3.0, 3600.0], size=n_steps)


def counted(run):
    """``run()`` and the counters it bumped."""
    obs.start()
    try:
        result = run()
    finally:
        session = obs.stop()
    return result, session.snapshot()["counters"]


def utilization_matrix(values, n_chips: int) -> np.ndarray:
    """Reshape a drawn flat list into an ``(n_steps, n_chips)`` schedule."""
    n_steps = len(values) // n_chips
    return np.asarray(values[: n_steps * n_chips]).reshape(n_steps, n_chips)


unit = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)


# -- allocation ----------------------------------------------------------------------


class TestAllocationProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        utilization=st.lists(unit, min_size=1, max_size=24),
        supply_per_chip=st.floats(16.0, 96.0, allow_nan=False),
        policy=st.sampled_from(POLICY_NAMES),
    )
    def test_conserves_total_within_bounds(
        self, utilization, supply_per_chip, policy
    ):
        n = len(utilization)
        supply = SupplySpec(
            n_chips=n, supply_per_chip_ml_min=supply_per_chip
        )
        flows = allocate(policy, supply, np.asarray(utilization), TABLE)

        assert flows.shape == (n,)
        # Bounds are hard: no starved chip, no inlet past its hydraulic
        # limit — which also makes every flow strictly positive.
        assert flows.min() >= supply.min_flow_ml_min
        assert flows.max() <= supply.max_flow_ml_min
        assert flows.min() > 0.0
        # Conservation within one ulp-scaled tolerance: the residue
        # spread touches each chip at the scale of the total, so n
        # spacings of the total bound the accumulated round-off.
        total = supply.total_flow_ml_min
        assert abs(float(flows.sum()) - total) <= n * np.spacing(total)

    @settings(max_examples=40, deadline=None)
    @given(
        utilization=st.lists(unit, min_size=2, max_size=16),
        supply_per_chip=st.floats(16.0, 96.0, allow_nan=False),
        policy=st.sampled_from(POLICY_NAMES),
        seed=st.integers(0, 2**16),
    )
    def test_allocation_permutation_equivariant(
        self, utilization, supply_per_chip, policy, seed
    ):
        """Permuting the chips permutes (greedy: re-sorts within equal
        utilization) the allocation — the multiset of flows and every
        aggregate of it are chip-order independent."""
        n = len(utilization)
        supply = SupplySpec(
            n_chips=n, supply_per_chip_ml_min=supply_per_chip
        )
        util = np.asarray(utilization)
        perm = np.random.default_rng(seed).permutation(n)

        base = allocate(policy, supply, util, TABLE)
        permuted = allocate(policy, supply, util[perm], TABLE)
        assert np.sort(base) == pytest.approx(
            np.sort(permuted), rel=1e-12, abs=1e-12
        )


# -- fleet rollup --------------------------------------------------------------------


class TestFleetKpiProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        values=st.lists(unit, min_size=12, max_size=36),
        policy=st.sampled_from(POLICY_NAMES),
        supply_per_chip=st.floats(20.0, 90.0, allow_nan=False),
        seed=st.integers(0, 2**16),
    )
    def test_kpis_permutation_invariant(
        self, values, policy, supply_per_chip, seed
    ):
        """Relabeling the chips must not change any fleet KPI."""
        n_chips = 4
        utils = utilization_matrix(values, n_chips)
        durations = np.ones(utils.shape[0])
        perm = np.random.default_rng(seed).permutation(n_chips)

        base = fleet_engine(n_chips, policy, supply_per_chip).run(
            utilization=utils, durations_s=durations
        )
        shuffled = fleet_engine(n_chips, policy, supply_per_chip).run(
            utilization=utils[:, perm], durations_s=durations
        )

        for name, value in base.kpis().items():
            assert shuffled.kpis()[name] == pytest.approx(
                value, rel=1e-9, abs=1e-12
            ), name
        # Stronger than the aggregates: per-chip energies are the same
        # multiset, chip labels merely permuted. Greedy is exempt: its
        # within-group tie-break hands the higher levels to the earlier
        # chip *indices* (KPI-neutral per step), so across heterogeneous
        # steps only the fleet aggregates are label-independent.
        if policy != "greedy":
            assert np.sort(shuffled.chip_net_energy_j) == pytest.approx(
                np.sort(base.chip_net_energy_j), rel=1e-9
            )

    @settings(max_examples=20, deadline=None)
    @given(
        values=st.lists(unit, min_size=8, max_size=32),
        level=st.sampled_from([24.0, 40.0, 56.0, 96.0]),
    )
    def test_unconstrained_supply_matches_standalone_chips(
        self, values, level
    ):
        """A uniform split at a grid level is no coupling at all: each
        chip's fleet trajectory equals its standalone single-chip run."""
        n_chips = 4
        utils = utilization_matrix(values, n_chips)
        durations = np.ones(utils.shape[0])

        fleet = fleet_engine(n_chips, "uniform", level).run(
            utilization=utils, durations_s=durations
        )
        for chip in range(n_chips):
            alone = fleet_engine(1, "uniform", level).run(
                utilization=utils[:, chip : chip + 1],
                durations_s=durations,
            )
            for fleet_arr, alone_arr in (
                (fleet.chip_net_energy_j, alone.chip_net_energy_j),
                (fleet.chip_generated_energy_j, alone.chip_generated_energy_j),
                (fleet.chip_pumping_energy_j, alone.chip_pumping_energy_j),
                (fleet.chip_peak_temperature_c, alone.chip_peak_temperature_c),
                (fleet.chip_mean_flow_ml_min, alone.chip_mean_flow_ml_min),
                (
                    fleet.chip_throttled_time_fraction,
                    alone.chip_throttled_time_fraction,
                ),
            ):
                assert fleet_arr[chip] == pytest.approx(
                    alone_arr[0], rel=1e-12, abs=1e-12
                )

    @settings(max_examples=20, deadline=None)
    @given(utilization=st.lists(unit, min_size=1, max_size=16))
    def test_greedy_saturates_to_uniform_at_the_cap(self, utilization):
        """With the budget at the hydraulic cap there is nothing to
        choose: greedy fills every chip to ``max_flow``, exactly the
        uniform split."""
        n = len(utilization)
        supply = SupplySpec(n_chips=n, supply_per_chip_ml_min=96.0)
        flows = allocate("greedy", supply, np.asarray(utilization), TABLE)
        assert flows == pytest.approx(np.full(n, 96.0))


# -- array roll-up vs the per-step oracle ---------------------------------------------


class TestRollupMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        table=chip_tables(),
        n_chips=st.integers(1, 40),
        supply_per_chip=budgets,
        n_steps=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        traffic=st.none() | st.fixed_dictionaries({
            "trace": st.sampled_from(TRACE_NAMES),
            "trace_seed": st.integers(0, 99),
            "skew": st.floats(0.0, 2.0),
        }),
    )
    def test_every_policy_equals_the_per_step_oracle(
        self, table, n_chips, supply_per_chip, n_steps, seed, traffic
    ):
        """Every ``FleetResult`` array and KPI, and the allocation and
        step counters, are the per-step oracle's exactly, on an explicit
        schedule or the traffic model's."""
        if traffic is None:
            utils, durations = schedule(
                seed, n_steps, n_chips, table.n_utils
            )
        else:
            utils = durations = None
        for policy in POLICY_NAMES:
            engine = fleet_engine(
                n_chips, policy, supply_per_chip, table, **(traffic or {})
            )
            result, counters = counted(
                lambda: engine.run(utilization=utils, durations_s=durations)
            )
            expected, expected_counters = counted(
                lambda: oracle_run(engine, utils, durations)
            )
            for field in dataclasses.fields(result):
                got = getattr(result, field.name)
                want = getattr(expected, field.name)
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype, (policy, field.name)
                    assert np.array_equal(got, want), (policy, field.name)
                else:
                    assert got == want, (policy, field.name)
            assert result.kpis() == expected.kpis(), policy
            for name in ("fleet.allocation.iterations", "fleet.steps"):
                assert counters[name] == expected_counters[name], (
                    policy, name
                )

    @settings(max_examples=40, deadline=None)
    @given(
        table=chip_tables(),
        n_chips=st.integers(1, 40),
        supply_per_chip=budgets,
        n_steps=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_step_call_is_its_schedule_row(
        self, table, n_chips, supply_per_chip, n_steps, seed
    ):
        """A ``(n_chips,)`` call is the schedule of one step: its flows
        are the bits of the matching row of the ``(n_steps, n_chips)``
        call."""
        supply = SupplySpec(n_chips, supply_per_chip)
        utils, _ = schedule(seed, n_steps, n_chips, table.n_utils)
        for policy in POLICY_NAMES:
            flows = allocate(policy, supply, utils, table)
            assert flows.shape == utils.shape
            for step, requested in enumerate(utils):
                one = allocate(policy, supply, requested, table)
                assert one.shape == (n_chips,)
                assert np.array_equal(one, flows[step]), (policy, step)
