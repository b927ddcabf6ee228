"""Thermal-map analysis against a floorplan.

The paper reads its Fig. 9 qualitatively ("peak 41 C"); these helpers make
the same map quantitatively queryable: per-block temperature statistics,
the hot-spot location and owner block, and block-kind aggregates — the
inputs a thermal-aware floorplanner or DVFS policy would consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.floorplan import Block, BlockKind, Floorplan
from repro.thermal.solver import ThermalSolution


@dataclass(frozen=True)
class BlockTemperature:
    """Temperature statistics of one floorplan block [degC]."""

    block: Block
    mean_c: float
    max_c: float
    min_c: float


def block_temperatures(
    solution: ThermalSolution,
    floorplan: Floorplan,
    layer_name: str = "active_si",
) -> "list[BlockTemperature]":
    """Per-block stats of a layer's temperature field.

    The solution's raster is mapped onto the floorplan by cell centres
    (same convention as power rasterisation). Blocks too small to cover a
    cell centre at the model resolution are skipped.
    """
    field = solution.field_celsius(layer_name)
    ny, nx = field.shape
    x_centers = (np.arange(nx) + 0.5) / nx * floorplan.width_m
    y_centers = (np.arange(ny) + 0.5) / ny * floorplan.height_m
    stats = []
    for block in floorplan.blocks:
        ix = np.nonzero((x_centers >= block.x_m) & (x_centers < block.x_max_m))[0]
        iy = np.nonzero((y_centers >= block.y_m) & (y_centers < block.y_max_m))[0]
        if not (ix.size and iy.size):
            continue
        patch = field[np.ix_(iy, ix)]
        stats.append(
            BlockTemperature(
                block=block,
                mean_c=float(patch.mean()),
                max_c=float(patch.max()),
                min_c=float(patch.min()),
            )
        )
    if not stats:
        raise ConfigurationError("raster too coarse: no block covers a cell centre")
    return stats


def hottest_block(
    solution: ThermalSolution,
    floorplan: Floorplan,
    layer_name: str = "active_si",
) -> BlockTemperature:
    """The block owning the layer's peak temperature."""
    stats = block_temperatures(solution, floorplan, layer_name)
    return max(stats, key=lambda s: s.max_c)


def kind_temperatures(
    solution: ThermalSolution,
    floorplan: Floorplan,
    layer_name: str = "active_si",
) -> "dict[BlockKind, float]":
    """Area-weighted mean temperature per block kind [degC]."""
    stats = block_temperatures(solution, floorplan, layer_name)
    sums: "dict[BlockKind, float]" = {}
    areas: "dict[BlockKind, float]" = {}
    for s in stats:
        kind = s.block.kind
        sums[kind] = sums.get(kind, 0.0) + s.mean_c * s.block.area_m2
        areas[kind] = areas.get(kind, 0.0) + s.block.area_m2
    return {kind: sums[kind] / areas[kind] for kind in sums}
