"""Rasterisation of the POWER7+ power maps across grid resolutions.

The thermal model, the sweep evaluators and the runtime engine all run at
different rasters (22x11 for dynamic studies up to 106x85 for reports);
the cell-centre sampling of :meth:`Floorplan.rasterize_power` must keep
the chip's power and the cache area fraction close at every one of them.
Sampling snaps each block edge to the nearest cell centre, so the error
is an edge effect: about 5 % at 32x32 and 3 % at 106x85 on this
floorplan, shrinking as the raster refines.
"""

import numpy as np
import pytest

from repro.casestudy.power7plus import (
    full_load_power_densities,
    full_load_power_map,
)
from repro.casestudy.tables import PAPER_ANCHORS
from repro.casestudy.workloads import standard_workloads
from repro.geometry.floorplan import BlockKind
from repro.units import w_m2_from_w_cm2

#: Rasters at or above 32x32.
FINE_RASTERS = [(32, 32), (64, 32), (88, 44), (106, 85), (128, 64)]


@pytest.mark.parametrize("nx,ny", FINE_RASTERS)
def test_full_load_keeps_the_chip_average(floorplan, nx, ny):
    expected = (
        w_m2_from_w_cm2(PAPER_ANCHORS["chip_average_power_density_w_cm2"])
        * floorplan.area_m2
    )
    power = full_load_power_map(nx, ny, floorplan)
    assert power.shape == (ny, nx)
    assert power.sum() == pytest.approx(expected, rel=0.05)


def test_sampling_error_shrinks_with_refinement(floorplan):
    medium = full_load_power_map(88, 44, floorplan).sum()
    coarse = full_load_power_map(32, 32, floorplan).sum()
    fine = full_load_power_map(176, 88, floorplan).sum()
    exact = sum(
        density * floorplan.total_area_of(kind)
        for kind, density in full_load_power_densities(floorplan).items()
    )
    assert abs(fine - exact) < abs(medium - exact) < abs(coarse - exact)


@pytest.mark.parametrize("utilization", [0.0, 0.25, 0.5, 1.0])
def test_utilization_scales_the_map(floorplan, utilization):
    full = full_load_power_map(88, 44, floorplan)
    scaled = full_load_power_map(88, 44, floorplan, utilization=utilization)
    assert np.allclose(scaled, utilization * full, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "workload", standard_workloads(), ids=lambda workload: workload.name
)
def test_workload_map_is_full_load_times_activity(floorplan, workload):
    """Every powered cell carries the full-load density scaled by one of
    the workload's activity factors; unpowered cells stay unpowered."""
    full = full_load_power_map(88, 44, floorplan)
    power = workload.power_map(88, 44, floorplan)
    powered = full > 0.0
    assert np.all(power[~powered] == 0.0)
    factors = {
        workload.factor_for(block.name, block.kind) for block in floorplan.blocks
    }
    ratios = np.unique(np.round(power[powered] / full[powered], 12))
    assert set(ratios) <= {round(f, 12) for f in factors}


@pytest.mark.parametrize("nx,ny", FINE_RASTERS)
def test_cache_mask_covers_the_cache_area(floorplan, nx, ny):
    mask = floorplan.rasterize_mask(nx, ny, BlockKind.L2, BlockKind.L3)
    cache_fraction = (
        floorplan.total_area_of(BlockKind.L2, BlockKind.L3) / floorplan.area_m2
    )
    assert mask.mean() == pytest.approx(cache_fraction, abs=0.05)
