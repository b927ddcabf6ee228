"""IBM POWER7+ floorplan model.

The paper's case study targets the 8-core IBM POWER7+ die, 26.55 mm long and
21.34 mm wide (its Fig. 4), with a full-load power density of 26.7 W/cm2 and
cache (L2+L3) power density of ~1 W/cm2.

The published die has no open-source floorplan, so this module rebuilds it
from the block arrangement visible in the paper's Fig. 8 voltage map, which
annotates (left to right): a logic column, a column of two stacked cores, an
L2 column, a logic column, an L3 column, another two-core column with its L2
column, central I/O strips, and the mirror image of the left half. That is
8 cores in 4 columns of 2, L2 slices adjacent to each core column, two L3
columns flanking the centre, logic separators and central I/O — consistent
with published POWER7/POWER7+ die photos.

The floorplan is generated parametrically (relative column widths scaled to
the exact die length) so tests can rebuild it at any size.
"""

from __future__ import annotations

from repro.geometry.floorplan import Block, BlockKind, Floorplan
from repro.units import meters_from_mm

#: Die dimensions from the paper (Fig. 4).
POWER7_LENGTH_MM = 26.55  # x extent
POWER7_WIDTH_MM = 21.34   # y extent

#: Left-half column layout as (kind, relative width, stacked count).
#: ``stacked`` = 2 means the column holds two vertically stacked blocks
#: (the core columns); 1 means a single full-height block. The right half
#: mirrors this sequence. Relative widths are scaled so the full sequence
#: (left + mirrored right) spans the die length exactly.
_HALF_COLUMNS = (
    ("logic", BlockKind.LOGIC, 0.8, 1),
    ("core", BlockKind.CORE, 3.2, 2),
    ("l2", BlockKind.L2, 1.2, 2),
    ("logic", BlockKind.LOGIC, 0.8, 1),
    ("l3", BlockKind.L3, 2.4, 2),
    ("core", BlockKind.CORE, 3.2, 2),
    ("l2", BlockKind.L2, 1.2, 2),
    ("io", BlockKind.IO, 0.675, 1),
)


def build_power7_floorplan(
    length_mm: float = POWER7_LENGTH_MM,
    width_mm: float = POWER7_WIDTH_MM,
) -> Floorplan:
    """Construct the POWER7+-style floorplan at the given die size.

    Returns a :class:`~repro.geometry.floorplan.Floorplan` with 8 CORE
    blocks, 8 L2 blocks, 4 L3 blocks, 4 LOGIC columns and 2 central I/O
    strips, mirror-symmetric about the die's vertical centreline.
    """
    total_relative = 2.0 * sum(rel for _, _, rel, _ in _HALF_COLUMNS)
    scale = length_mm / total_relative

    floorplan = Floorplan(
        width_m=meters_from_mm(length_mm), height_m=meters_from_mm(width_mm)
    )

    full_height = meters_from_mm(width_mm)
    half_height = full_height / 2.0

    def add_column(x_mm: float, name: str, kind: BlockKind, col_width_mm: float,
                   stacked: int, index: int) -> None:
        x_m = meters_from_mm(x_mm)
        w_m = meters_from_mm(col_width_mm)
        if stacked == 1:
            floorplan.add(Block(f"{name}{index}", kind, x_m, 0.0, w_m, full_height))
        else:
            floorplan.add(
                Block(f"{name}{index}_bot", kind, x_m, 0.0, w_m, half_height)
            )
            floorplan.add(
                Block(f"{name}{index}_top", kind, x_m, half_height, w_m, half_height)
            )

    counters: "dict[str, int]" = {}
    cursor_mm = 0.0
    mirrored = list(_HALF_COLUMNS) + [spec for spec in reversed(_HALF_COLUMNS)]
    for name, kind, rel, stacked in mirrored:
        col_width_mm = rel * scale
        counters[name] = counters.get(name, 0) + 1
        add_column(cursor_mm, name, kind, col_width_mm, stacked, counters[name])
        cursor_mm += col_width_mm
    return floorplan
