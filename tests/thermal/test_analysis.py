"""Tests for thermal-map analysis helpers."""

import pytest

from repro.geometry.floorplan import BlockKind
from repro.thermal.analysis import (
    block_temperatures,
    hottest_block,
    kind_temperatures,
)


class TestBlockTemperatures:
    def test_covers_all_blocks_at_case_resolution(self, thermal_solution, floorplan):
        stats = block_temperatures(thermal_solution, floorplan)
        assert len(stats) == len(floorplan.blocks)

    def test_stats_ordering(self, thermal_solution, floorplan):
        for s in block_temperatures(thermal_solution, floorplan):
            assert s.min_c <= s.mean_c <= s.max_c

    def test_values_within_field_range(self, thermal_solution, floorplan):
        field = thermal_solution.field_celsius("active_si")
        for s in block_temperatures(thermal_solution, floorplan):
            assert field.min() - 1e-9 <= s.min_c
            assert s.max_c <= field.max() + 1e-9


class TestHottestBlock:
    def test_peak_is_on_a_core(self, thermal_solution, floorplan):
        hottest = hottest_block(thermal_solution, floorplan)
        assert hottest.block.kind is BlockKind.CORE

    def test_peak_matches_solution(self, thermal_solution, floorplan):
        hottest = hottest_block(thermal_solution, floorplan)
        field_max = float(thermal_solution.field_celsius("active_si").max())
        assert hottest.max_c == pytest.approx(field_max, abs=1e-9)


class TestKindTemperatures:
    def test_ordering_follows_power_density(self, thermal_solution, floorplan):
        kinds = kind_temperatures(thermal_solution, floorplan)
        # Cores (~52 W/cm2) > logic (10) > cache (~2.5).
        assert kinds[BlockKind.CORE] > kinds[BlockKind.LOGIC]
        assert kinds[BlockKind.LOGIC] > kinds[BlockKind.L3]

    def test_all_kinds_present(self, thermal_solution, floorplan):
        kinds = kind_temperatures(thermal_solution, floorplan)
        assert set(kinds) == {
            BlockKind.CORE, BlockKind.L2, BlockKind.L3,
            BlockKind.LOGIC, BlockKind.IO,
        }
