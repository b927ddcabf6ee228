"""Unit tests for the shared coolant supply: budget spec, diagnostics and
the budget-only allocation policies.

The greedy policy needs a chip table and is covered by the fleet engine
and property suites; here every case runs without a thermal solve.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fleet.supply import (
    POLICY_NAMES,
    FlowDistribution,
    SupplySpec,
    allocate,
    jain_fairness,
    supply_distribution,
)
from repro.fleet.traffic import TrafficModel
from repro.units import m3s_from_ml_per_min


class TestSupplySpec:
    def test_total_budget(self):
        assert SupplySpec(6, 40.0).total_flow_ml_min == pytest.approx(240.0)

    def test_flow_levels_tile_the_bounds(self):
        levels = SupplySpec(4, 40.0).flow_levels()
        assert levels[0] == 16.0
        assert levels[-1] == 96.0
        assert np.allclose(np.diff(levels), 8.0)

    @pytest.mark.parametrize("supply_per_chip", [16.0, 96.0])
    def test_budget_at_a_bound_accepted(self, supply_per_chip):
        supply = SupplySpec(3, supply_per_chip)
        flows = allocate("uniform", supply, np.ones(3))
        assert np.all(flows == supply_per_chip)

    @pytest.mark.parametrize("kwargs", [
        {"n_chips": 0},
        {"min_flow_ml_min": 0.0},
        {"min_flow_ml_min": float("nan")},
        {"max_flow_ml_min": 8.0},
        {"max_flow_ml_min": float("inf")},
        {"resolution_ml_min": 0.0},
        {"resolution_ml_min": 7.0},
        {"supply_per_chip_ml_min": 8.0},
        {"supply_per_chip_ml_min": 120.0},
    ], ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()))
    def test_rejects_invalid(self, kwargs):
        arguments = {"n_chips": 4, "supply_per_chip_ml_min": 40.0}
        arguments.update(kwargs)
        with pytest.raises(ConfigurationError):
            SupplySpec(**arguments)


@pytest.mark.parametrize("build", [
    lambda n: SupplySpec(n, 40.0), lambda n: TrafficModel(n_chips=n),
], ids=["supply", "traffic"])
@pytest.mark.parametrize("n_chips", [0, 2.5, "4", True])
def test_chip_count_rejected_by_name(build, n_chips):
    """A fractional, string or bool chip count fails on ``n_chips``; it
    is not truncated to an integer."""
    with pytest.raises(ConfigurationError, match="n_chips"):
        build(n_chips)


class TestFlowDistribution:
    def test_even_split_is_uniform(self):
        assert FlowDistribution(np.full(5, 2e-6)).uniformity == 1.0

    def test_uniformity_is_min_over_max(self):
        distribution = FlowDistribution(np.array([1.0, 4.0, 2.0]))
        assert distribution.uniformity == pytest.approx(0.25)

    def test_supply_distribution_converts_to_si(self):
        distribution = supply_distribution([16.0, 40.0, 96.0])
        assert distribution.flows_m3_s == pytest.approx(
            [m3s_from_ml_per_min(f) for f in (16.0, 40.0, 96.0)]
        )

    def test_supply_distribution_is_bit_identical_to_scalar_conversion(self):
        flows = np.random.default_rng(23).uniform(1.0, 200.0, size=512)
        expected = np.array([m3s_from_ml_per_min(float(f)) for f in flows])
        distribution = supply_distribution(flows)
        assert np.array_equal(distribution.flows_m3_s, expected)
        assert distribution.uniformity == expected.min() / expected.max()

    def test_uniformity_independent_of_units(self):
        flows = [16.0, 24.0, 64.0]
        ratio = min(flows) / max(flows)
        assert supply_distribution(flows).uniformity == pytest.approx(ratio)


class TestJainFairness:
    def test_even_allocation_is_fair(self):
        assert jain_fairness([40.0] * 7) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_one_chip_takes_all(self, n):
        flows = [0.0] * n
        flows[0] = 100.0
        assert jain_fairness(flows) == pytest.approx(1.0 / n)

    def test_all_zero_counts_as_fair(self):
        assert jain_fairness([0.0, 0.0, 0.0]) == 1.0

    @pytest.mark.parametrize("flows", [
        [16.0, 96.0],
        [16.0, 24.0, 40.0, 96.0],
        [50.0, 50.0, 51.0],
    ])
    def test_bounded_between_one_over_n_and_one(self, flows):
        fairness = jain_fairness(flows)
        assert 1.0 / len(flows) <= fairness <= 1.0

    def test_permutation_and_scale_invariant(self):
        flows = [16.0, 24.0, 40.0, 96.0]
        base = jain_fairness(flows)
        assert jain_fairness(flows[::-1]) == pytest.approx(base)
        assert jain_fairness([3.0 * f for f in flows]) == pytest.approx(base)


    def test_schedule_rows_match_single_steps(self):
        """On a ``(n_steps, n_chips)`` schedule the diagnostics are per
        row, each the bits of the one-step call."""
        flows = np.random.default_rng(5).uniform(16.0, 96.0, size=(6, 37))
        flows[2] = 0.0
        fairness = jain_fairness(flows)
        uniformity = supply_distribution(flows[[0, 1, 3, 4, 5]]).uniformity
        assert fairness.shape == (6,)
        assert list(fairness) == [jain_fairness(row) for row in flows]
        assert list(uniformity) == [
            supply_distribution(row).uniformity
            for row in flows[[0, 1, 3, 4, 5]]
        ]


class TestBudgetOnlyPolicies:
    def test_uniform_gives_every_chip_the_per_chip_budget(self):
        supply = SupplySpec(5, 48.0)
        assert np.all(allocate("uniform", supply, np.ones(5)) == 48.0)

    @pytest.mark.parametrize("utilization", [
        [1.0, 1.0, 1.0, 1.0],
        [0.1, 0.4, 0.7, 1.0],
        [1.5, 0.0, 0.0, 0.0],
        [1.5, 1.5, 1.5, 0.05],
    ], ids=["even", "graded", "one-hot", "one-idle"])
    def test_proportional_conserves_within_bounds(self, utilization):
        supply = SupplySpec(4, 56.0)
        flows = allocate("proportional", supply, utilization)
        assert flows.sum() == pytest.approx(supply.total_flow_ml_min, rel=1e-12)
        assert flows.min() >= supply.min_flow_ml_min
        assert flows.max() <= supply.max_flow_ml_min

    def test_proportional_ranks_flow_by_utilization(self):
        flows = allocate(
            "proportional", SupplySpec(4, 40.0), [0.2, 0.9, 0.5, 0.1]
        )
        assert list(np.argsort(flows)) == [3, 0, 2, 1]

    def test_proportional_without_demand_splits_evenly(self):
        supply = SupplySpec(3, 40.0)
        flows = allocate("proportional", supply, np.zeros(3))
        assert flows == pytest.approx(allocate("uniform", supply, np.zeros(3)))

    def test_proportional_rejects_wrong_shape(self):
        with pytest.raises(ConfigurationError):
            allocate("proportional", SupplySpec(3, 40.0), [1.0, 1.0])

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("shape", [(2,), (4, 2), (3, 1, 3), ()])
    def test_every_policy_rejects_a_wrong_shape(self, policy, shape):
        """One step is ``(n_chips,)``, a schedule ``(n_steps, n_chips)``;
        anything else fails on ``utilization``, whatever the policy."""
        with pytest.raises(ConfigurationError, match="utilization"):
            allocate(policy, SupplySpec(3, 40.0), np.ones(shape))

    def test_greedy_needs_a_table(self):
        with pytest.raises(ConfigurationError, match="ChipTable"):
            allocate("greedy", SupplySpec(2, 40.0), np.ones(2))

    def test_unknown_policy_lists_the_known_ones(self):
        with pytest.raises(ConfigurationError) as info:
            allocate("random", SupplySpec(2, 40.0), np.ones(2))
        for name in POLICY_NAMES:
            assert name in str(info.value)
