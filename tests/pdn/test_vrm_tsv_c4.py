"""Tests for VRM, TSV and c4-baseline models."""

import pytest

from repro.errors import ConfigurationError
from repro.pdn.c4 import C4DeliveryBaseline
from repro.pdn.tsv import TsvBundle
from repro.pdn.vrm import BuckVRM, IdealVRM, SwitchedCapacitorVRM


class TestIdealVRM:
    def test_no_area(self):
        assert IdealVRM().required_area_m2(6.0) == 0.0


class TestSwitchedCapacitorVRM:
    def test_efficiency_at_exact_ratio(self):
        # 0.5 conversion is an available ratio (3/6): full peak efficiency.
        vrm = SwitchedCapacitorVRM(input_v=2.0, nominal_output_v=1.0)
        assert vrm.efficiency == pytest.approx(0.86)

    def test_ratio_mismatch_penalty(self):
        # 1.0/1.3 = 0.769 regulated below the 5/6 ratio: extra LDO-like loss.
        vrm = SwitchedCapacitorVRM(input_v=1.3, nominal_output_v=1.0)
        assert vrm.efficiency < 0.86
        assert vrm.efficiency == pytest.approx(0.86 * (1.0 / 1.3) / (5.0 / 6.0), rel=1e-9)

    def test_area_from_andersen_density(self):
        # 4.6 W/mm2 -> 6 W needs ~1.3 mm2.
        vrm = SwitchedCapacitorVRM(input_v=2.0, nominal_output_v=1.0)
        assert vrm.required_area_m2(6.0) * 1e6 == pytest.approx(1.304, rel=1e-3)

    def test_step_up_rejected(self):
        vrm = SwitchedCapacitorVRM(input_v=0.8, nominal_output_v=1.0)
        with pytest.raises(ConfigurationError):
            _ = vrm.efficiency


class TestBuckVRM:
    def test_step_up_rejected(self):
        with pytest.raises(ConfigurationError):
            BuckVRM(input_v=0.9, nominal_output_v=1.0)

    def test_needs_more_area_than_sc(self):
        sc = SwitchedCapacitorVRM(input_v=2.0, nominal_output_v=1.0)
        buck = BuckVRM(input_v=2.0, nominal_output_v=1.0)
        assert buck.required_area_m2(6.0) > sc.required_area_m2(6.0)


class TestTsvBundle:
    def test_single_via_resistance(self):
        # rho*L/(pi r^2) = 1.72e-8 * 1e-4 / (pi*25e-12) ~ 21.9 mOhm.
        bundle = TsvBundle(count=1, radius_m=5e-6, length_m=100e-6)
        assert bundle.single_via_resistance_ohm == pytest.approx(0.0219, rel=0.01)

    def test_parallel_scaling(self):
        one = TsvBundle(count=1)
        sixteen = TsvBundle(count=16)
        assert sixteen.resistance_ohm == pytest.approx(one.resistance_ohm / 16.0)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            TsvBundle(count=0)
        with pytest.raises(ConfigurationError):
            TsvBundle(count=1, radius_m=-1e-6)


class TestC4Baseline:
    def test_io_accounting(self):
        baseline = C4DeliveryBaseline(total_bump_count=3000)
        assert baseline.power_bump_count == 1000

    def test_delivery_resistance_shrinks_with_bumps(self):
        small = C4DeliveryBaseline(total_bump_count=1000)
        large = C4DeliveryBaseline(total_bump_count=10000)
        assert large.delivery_resistance_ohm < small.delivery_resistance_ohm

    def test_droop_linear(self):
        baseline = C4DeliveryBaseline(total_bump_count=5000)
        assert baseline.droop_v(10.0) == pytest.approx(
            10.0 * baseline.delivery_resistance_ohm
        )

    def test_bumps_needed_meet_budget(self):
        baseline = C4DeliveryBaseline(total_bump_count=5000)
        bumps = baseline.bumps_needed_for(5.0, 0.05)
        # Verify: that bank actually meets the budget.
        per_bank = bumps // 2
        resistance = 2.0 * baseline.bump_resistance_ohm / per_bank
        droop = 5.0 * (resistance + baseline.package_plane_resistance_ohm)
        assert droop <= 0.05 + 1e-9

    def test_impossible_budget_raises(self):
        baseline = C4DeliveryBaseline(
            total_bump_count=5000, package_plane_resistance_ohm=0.01
        )
        with pytest.raises(ConfigurationError):
            baseline.bumps_needed_for(100.0, 0.05)

    def test_io_gain_positive(self):
        baseline = C4DeliveryBaseline(total_bump_count=5000)
        assert baseline.io_gain_if_offloaded(5.0, 0.05) > 0
