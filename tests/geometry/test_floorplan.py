"""Tests for the floorplan representation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geometry.floorplan import Block, BlockKind, Floorplan


@pytest.fixture
def simple_floorplan():
    fp = Floorplan(width_m=10e-3, height_m=10e-3)
    fp.add(Block("core0", BlockKind.CORE, 0.0, 0.0, 5e-3, 5e-3))
    fp.add(Block("l2_0", BlockKind.L2, 5e-3, 0.0, 5e-3, 5e-3))
    fp.add(Block("l3_0", BlockKind.L3, 0.0, 5e-3, 5e-3, 5e-3))
    fp.add(Block("io0", BlockKind.IO, 5e-3, 5e-3, 5e-3, 5e-3))
    return fp


class TestBlock:
    def test_area(self):
        block = Block("b", BlockKind.CORE, 0.0, 0.0, 2e-3, 3e-3)
        assert block.area_m2 == pytest.approx(6e-6)

    def test_contains_half_open(self):
        block = Block("b", BlockKind.CORE, 0.0, 0.0, 1e-3, 1e-3)
        assert block.contains(0.0, 0.0)
        assert not block.contains(1e-3, 0.5e-3)

    def test_overlap_detection(self):
        a = Block("a", BlockKind.CORE, 0.0, 0.0, 2e-3, 2e-3)
        b = Block("b", BlockKind.L2, 1e-3, 1e-3, 2e-3, 2e-3)
        c = Block("c", BlockKind.L2, 2e-3, 0.0, 2e-3, 2e-3)
        assert a.overlaps(b)
        assert not a.overlaps(c)  # edge-sharing is not overlap

    def test_cache_kinds(self):
        assert BlockKind.L2.is_cache and BlockKind.L3.is_cache
        assert not BlockKind.CORE.is_cache
        assert not BlockKind.IO.is_cache


class TestFloorplan:
    def test_rejects_overlapping_blocks(self, simple_floorplan):
        with pytest.raises(ConfigurationError):
            simple_floorplan.add(
                Block("bad", BlockKind.CORE, 1e-3, 1e-3, 1e-3, 1e-3)
            )

    def test_rejects_out_of_die_blocks(self, simple_floorplan):
        with pytest.raises(ConfigurationError):
            simple_floorplan.add(
                Block("bad", BlockKind.CORE, 9e-3, 9e-3, 2e-3, 2e-3)
            )

    def test_cache_blocks(self, simple_floorplan):
        names = {b.name for b in simple_floorplan.cache_blocks}
        assert names == {"l2_0", "l3_0"}

    def test_block_at(self, simple_floorplan):
        assert simple_floorplan.block_at(1e-3, 1e-3).name == "core0"
        assert simple_floorplan.block_at(6e-3, 6e-3).name == "io0"

    def test_block_at_gap_returns_none(self):
        fp = Floorplan(width_m=10e-3, height_m=10e-3)
        fp.add(Block("b", BlockKind.CORE, 0.0, 0.0, 1e-3, 1e-3))
        assert fp.block_at(5e-3, 5e-3) is None

    def test_total_area_of(self, simple_floorplan):
        cache = simple_floorplan.total_area_of(BlockKind.L2, BlockKind.L3)
        assert cache == pytest.approx(50e-6)


class TestRasterisation:
    def test_power_conservation(self, simple_floorplan):
        densities = {
            BlockKind.CORE: 50e4, BlockKind.L2: 1e4,
            BlockKind.L3: 1e4, BlockKind.IO: 5e4,
        }
        power = simple_floorplan.rasterize_power(densities, 50, 50)
        expected = (50e4 + 1e4 + 1e4 + 5e4) * 25e-6
        assert power.sum() == pytest.approx(expected, rel=1e-6)

    def test_density_placement(self, simple_floorplan):
        densities = {BlockKind.CORE: 100e4}
        power = simple_floorplan.rasterize_power(densities, 10, 10)
        # Core occupies the lower-left quadrant.
        cell_area = 1e-3 * 1e-3
        assert power[0, 0] == pytest.approx(100e4 * cell_area)
        assert power[9, 9] == 0.0

    def test_background_density(self, simple_floorplan):
        power = simple_floorplan.rasterize_power({}, 10, 10, background_w_m2=7e4)
        assert np.all(power > 0.0)
        assert power.sum() == pytest.approx(7e4 * 100e-6, rel=1e-9)

    def test_mask(self, simple_floorplan):
        mask = simple_floorplan.rasterize_mask(10, 10, BlockKind.L2, BlockKind.L3)
        # L2 lower-right quadrant, L3 upper-left.
        assert mask[0, 9] and mask[9, 0]
        assert not mask[0, 0] and not mask[9, 9]
        assert int(mask.sum()) == 50

    def test_rejects_empty_grid(self, simple_floorplan):
        with pytest.raises(ConfigurationError):
            simple_floorplan.rasterize_power({}, 0, 10)
