"""Floorplan representation.

A :class:`Floorplan` is a die outline plus a set of non-overlapping
rectangular :class:`Block` instances, each tagged with a :class:`BlockKind`
(core, L2, L3, logic, I/O). It supports the two queries the rest of the
library needs:

- rasterising a *power-density map* onto an arbitrary grid (for the thermal
  solver and for the PDN current loads), and
- point/region lookups ("which block is at (x, y)?", "all cache blocks").

Coordinates follow the paper's Fig. 8: x runs along the die *length*
(26.55 mm for POWER7+), y along the die *width* (21.34 mm), origin at the
lower-left corner.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError


class BlockKind(enum.Enum):
    """Functional classification of a floorplan block."""

    CORE = "core"
    L2 = "l2"
    L3 = "l3"
    LOGIC = "logic"
    IO = "io"

    @property
    def is_cache(self) -> bool:
        """True for the memory blocks the microfluidic supply powers."""
        return self in (BlockKind.L2, BlockKind.L3)


@dataclass(frozen=True)
class Block:
    """An axis-aligned rectangular floorplan block.

    ``x_m``/``y_m`` locate the lower-left corner; the block spans
    ``[x, x+width] x [y, y+height]`` in die coordinates.
    """

    name: str
    kind: BlockKind
    x_m: float
    y_m: float
    width_m: float
    height_m: float

    def __post_init__(self) -> None:
        # Written as ``not 0 < x < inf`` so NaN and inf fail the checks too.
        for label, value in (
            ("width_m", self.width_m), ("height_m", self.height_m)
        ):
            if not 0.0 < value < math.inf:
                raise ConfigurationError(
                    f"block {self.name}: {label} must be finite and > 0, "
                    f"got {value}"
                )
        if not (0.0 <= self.x_m < math.inf and 0.0 <= self.y_m < math.inf):
            raise ConfigurationError(
                f"block {self.name}: origin must be finite and >= 0, got ({self.x_m}, {self.y_m})"
            )

    @property
    def area_m2(self) -> float:
        """Block area [m^2]."""
        return self.width_m * self.height_m

    @property
    def x_max_m(self) -> float:
        return self.x_m + self.width_m

    @property
    def y_max_m(self) -> float:
        return self.y_m + self.height_m

    def contains(self, x_m: float, y_m: float) -> bool:
        """Whether the point lies inside the block (closed lower, open upper)."""
        return (self.x_m <= x_m < self.x_max_m) and (self.y_m <= y_m < self.y_max_m)

    def overlaps(self, other: "Block", tolerance_m: float = 1e-12) -> bool:
        """Whether two blocks share interior area.

        Edge-sharing neighbours do not overlap; the picometre tolerance
        absorbs floating-point noise from accumulated column positions.
        """
        return not (
            self.x_max_m <= other.x_m + tolerance_m
            or other.x_max_m <= self.x_m + tolerance_m
            or self.y_max_m <= other.y_m + tolerance_m
            or other.y_max_m <= self.y_m + tolerance_m
        )


@dataclass
class Floorplan:
    """A die outline with rectangular functional blocks.

    Parameters
    ----------
    width_m / height_m:
        Die dimensions along x and y [m].
    blocks:
        Non-overlapping blocks lying fully inside the die. Gaps between
        blocks are permitted (treated as unpowered filler).
    """

    width_m: float
    height_m: float
    blocks: "list[Block]" = field(default_factory=list)

    def __post_init__(self) -> None:
        for label, value in (
            ("width_m", self.width_m), ("height_m", self.height_m)
        ):
            if not 0.0 < value < math.inf:
                raise ConfigurationError(
                    f"die {label} must be finite and > 0, got {value}"
                )
        for block in self.blocks:
            self._check_inside(block)
        for i, a in enumerate(self.blocks):
            for b in self.blocks[i + 1:]:
                if a.overlaps(b):
                    raise ConfigurationError(f"blocks {a.name} and {b.name} overlap")

    def _check_inside(self, block: Block) -> None:
        tolerance = 1e-12
        if block.x_max_m > self.width_m + tolerance or block.y_max_m > self.height_m + tolerance:
            raise ConfigurationError(
                f"block {block.name} extends outside the die "
                f"({block.x_max_m:.6g}, {block.y_max_m:.6g}) vs die "
                f"({self.width_m:.6g}, {self.height_m:.6g})"
            )

    # -- construction -------------------------------------------------------

    def add(self, block: Block) -> None:
        """Add a block, enforcing containment and non-overlap."""
        self._check_inside(block)
        for existing in self.blocks:
            if existing.overlaps(block):
                raise ConfigurationError(
                    f"block {block.name} overlaps existing block {existing.name}"
                )
        self.blocks.append(block)

    # -- queries ------------------------------------------------------------

    @property
    def area_m2(self) -> float:
        """Die area [m^2]."""
        return self.width_m * self.height_m

    def blocks_of_kind(self, *kinds: BlockKind) -> "list[Block]":
        """All blocks whose kind is one of ``kinds``."""
        wanted = set(kinds)
        return [b for b in self.blocks if b.kind in wanted]

    @property
    def cache_blocks(self) -> "list[Block]":
        """The L2 + L3 blocks powered by the microfluidic supply."""
        return [b for b in self.blocks if b.kind.is_cache]

    def block_at(self, x_m: float, y_m: float) -> "Block | None":
        """The block containing the point, or ``None`` for filler area."""
        for block in self.blocks:
            if block.contains(x_m, y_m):
                return block
        return None

    def total_area_of(self, *kinds: BlockKind) -> float:
        """Combined area [m^2] of all blocks of the given kinds."""
        return sum(b.area_m2 for b in self.blocks_of_kind(*kinds))

    # -- rasterisation -------------------------------------------------------

    def rasterize_power(
        self,
        density_by_kind: "dict[BlockKind, float]",
        nx: int,
        ny: int,
        background_w_m2: float = 0.0,
    ) -> np.ndarray:
        """Rasterise a power-density assignment onto an (ny, nx) grid.

        ``density_by_kind`` maps block kinds to areal power densities
        [W/m^2]. Each grid cell receives the density of the block covering
        its centre (``background_w_m2`` for filler). Returns the *power per
        cell* [W] array with shape (ny, nx), row 0 at y = 0.

        Cell-centre sampling (rather than exact area weighting) is the
        standard floorplan-to-grid approach of thermal simulators at the
        resolutions used here. It snaps each block edge to the nearest
        cell centre, so the total power is off by an edge effect that
        depends on where the block edges fall on the raster: against the exact block-density x area
        budget of the POWER7+ floorplan at full load it is +4.9 % at
        32x32, +3.3 % at 106x85 and -1.4 % at 128x64
        (``tests/casestudy/test_power_map_raster.py`` pins 5 %).
        """
        if nx < 1 or ny < 1:
            raise ConfigurationError(f"grid must be at least 1x1, got {nx}x{ny}")
        dx = self.width_m / nx
        dy = self.height_m / ny
        cell_area = dx * dy
        power = np.full((ny, nx), background_w_m2 * cell_area)
        x_centers = (np.arange(nx) + 0.5) * dx
        y_centers = (np.arange(ny) + 0.5) * dy
        for block in self.blocks:
            density = density_by_kind.get(block.kind)
            if density is None:
                continue
            ix = np.nonzero((x_centers >= block.x_m) & (x_centers < block.x_max_m))[0]
            iy = np.nonzero((y_centers >= block.y_m) & (y_centers < block.y_max_m))[0]
            if ix.size and iy.size:
                power[np.ix_(iy, ix)] = density * cell_area
        return power

    def rasterize_mask(self, nx: int, ny: int, *kinds: BlockKind) -> np.ndarray:
        """Boolean (ny, nx) mask of cells whose centre lies in given kinds."""
        dx = self.width_m / nx
        dy = self.height_m / ny
        mask = np.zeros((ny, nx), dtype=bool)
        x_centers = (np.arange(nx) + 0.5) * dx
        y_centers = (np.arange(ny) + 0.5) * dy
        wanted = set(kinds)
        for block in self.blocks:
            if block.kind not in wanted:
                continue
            ix = np.nonzero((x_centers >= block.x_m) & (x_centers < block.x_max_m))[0]
            iy = np.nonzero((y_centers >= block.y_m) & (y_centers < block.y_max_m))[0]
            if ix.size and iy.size:
                mask[np.ix_(iy, ix)] = True
        return mask
