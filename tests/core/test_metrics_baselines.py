"""Tests for system metrics and the conventional baseline."""

import pytest

from repro.core.baselines import ConventionalBaseline
from repro.core.metrics import EnergyBalance, bright_silicon_utilization
from repro.errors import ConfigurationError


class TestEnergyBalance:
    def test_paper_net_positive_anchor(self):
        """6 W generated vs 4.4 W pumping: the Section III-B net gain."""
        balance = EnergyBalance(generated_w=6.0, pumping_w=4.4)
        assert balance.is_net_positive
        assert balance.net_w == pytest.approx(1.6)

    def test_net_negative_case(self):
        balance = EnergyBalance(generated_w=2.0, pumping_w=4.4)
        assert not balance.is_net_positive

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            EnergyBalance(-1.0, 1.0)


class TestBrightSiliconSearch:
    def test_always_cool_gives_full_utilization(self):
        assert bright_silicon_utilization(lambda u: 40.0 + 10.0 * u) == 1.0

    def test_always_hot_gives_zero(self):
        assert bright_silicon_utilization(lambda u: 90.0 + 10.0 * u) == 0.0

    def test_bisection_finds_crossing(self):
        # peak(u) = 30 + 100*u crosses 85 C at u = 0.55.
        u = bright_silicon_utilization(lambda u: 30.0 + 100.0 * u, tolerance=1e-4)
        assert u == pytest.approx(0.55, abs=1e-3)

    def test_result_respects_limit(self):
        peak = lambda u: 30.0 + 100.0 * u
        u = bright_silicon_utilization(peak, tolerance=1e-4)
        assert peak(u) <= 85.0 + 1e-6


class TestConventionalBaseline:
    def test_full_load_overheats(self):
        """The dark-silicon premise: air cooling cannot hold full load."""
        baseline = ConventionalBaseline()
        assert baseline.peak_temperature_c(1.0) > 85.0

    def test_idle_is_ambient(self):
        baseline = ConventionalBaseline()
        assert baseline.peak_temperature_c(0.0) == pytest.approx(baseline.ambient_c)

    def test_max_utilization_below_one(self):
        baseline = ConventionalBaseline()
        u = baseline.max_utilization()
        assert 0.5 < u < 1.0

    def test_closed_form_matches_bisection(self):
        baseline = ConventionalBaseline()
        assert baseline.max_utilization() == pytest.approx(
            bright_silicon_utilization(baseline.peak_temperature_c), abs=0.01
        )

    def test_limit_temperature_met_at_max_utilization(self):
        baseline = ConventionalBaseline()
        u = baseline.max_utilization()
        assert baseline.peak_temperature_c(u) == pytest.approx(85.0, abs=0.1)

    def test_better_heatsink_more_utilization(self):
        weak = ConventionalBaseline(heatsink_resistance_k_w=0.4)
        strong = ConventionalBaseline(heatsink_resistance_k_w=0.2)
        assert strong.max_utilization() > weak.max_utilization()

    def test_supply_droop(self):
        baseline = ConventionalBaseline()
        assert baseline.supply_droop_v(10.0) > 0.0
