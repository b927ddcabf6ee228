"""Tests for the POWER7+ floorplan builder."""

import pytest

from repro.geometry.floorplan import BlockKind
from repro.geometry.power7 import build_power7_floorplan


class TestFloorplanStructure:
    def test_die_dimensions(self, floorplan):
        assert floorplan.width_m == pytest.approx(26.55e-3)
        assert floorplan.height_m == pytest.approx(21.34e-3)

    def test_eight_cores(self, floorplan):
        assert len(floorplan.blocks_of_kind(BlockKind.CORE)) == 8

    def test_eight_l2_slices(self, floorplan):
        assert len(floorplan.blocks_of_kind(BlockKind.L2)) == 8

    def test_four_l3_blocks(self, floorplan):
        assert len(floorplan.blocks_of_kind(BlockKind.L3)) == 4

    def test_two_io_strips(self, floorplan):
        assert len(floorplan.blocks_of_kind(BlockKind.IO)) == 2

    def test_columns_span_die_exactly(self, floorplan):
        max_x = max(b.x_max_m for b in floorplan.blocks)
        assert max_x == pytest.approx(floorplan.width_m, rel=1e-9)

    def test_mirror_symmetry(self, floorplan):
        """Every block has a mirror partner about the vertical centreline."""
        centre = floorplan.width_m / 2.0
        for block in floorplan.blocks:
            mirrored_x = 2.0 * centre - block.x_max_m
            partners = [
                b for b in floorplan.blocks
                if b.kind == block.kind
                and abs(b.x_m - mirrored_x) < 1e-9
                and abs(b.y_m - block.y_m) < 1e-9
            ]
            assert partners, f"{block.name} has no mirror partner"

    def test_cache_fraction_realistic(self, floorplan):
        """L2+L3 cover roughly a third of the die, as on the real part."""
        fraction = (
            floorplan.total_area_of(BlockKind.L2, BlockKind.L3) / floorplan.area_m2
        )
        assert 0.30 < fraction < 0.42

    def test_custom_size(self):
        fp = build_power7_floorplan(length_mm=40.0, width_mm=30.0)
        assert fp.width_m == pytest.approx(40e-3)
        assert len(fp.blocks_of_kind(BlockKind.CORE)) == 8
