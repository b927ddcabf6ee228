"""Named workload scenarios for the POWER7+ case study.

The paper's introduction frames the proposal around *energy-proportional*
architectures and dark-silicon operating points. This module provides the
workload-level power maps those arguments need: per-block-kind activity
factors composed into rasterised power maps, so the thermal/PDN models can
be evaluated under realistic operating points rather than only the
full-load corner.

A scenario multiplies each block kind's full-load density by an activity
factor; per-block overrides allow asymmetric cases (e.g. half the cores
power-gated).

Activity factors live in ``[0, MAX_ACTIVITY_FACTOR]`` (= 1.5): the
``[0, 1]`` stretch covers power-gated through fully active operation,
and the ``(1, 1.5]`` headroom models *boost* — short turbo excursions
above the nominal full-load density, the dark-silicon counterpoint the
paper's bright-silicon argument is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.casestudy.power7plus import full_load_power_densities
from repro.errors import ConfigurationError
from repro.geometry.floorplan import BlockKind, Floorplan
from repro.geometry.power7 import build_power7_floorplan

#: Largest accepted activity factor: 1.0 is nominal full load, values in
#: (1, 1.5] model boost/turbo excursions above it.
MAX_ACTIVITY_FACTOR = 1.5


@dataclass(frozen=True)
class Workload:
    """A named operating point.

    Parameters
    ----------
    name:
        Scenario label.
    activity:
        Activity factor per block kind in ``[0, MAX_ACTIVITY_FACTOR]``:
        0 is power-gated, 1 nominal full load, above 1 boost (missing
        kinds default to 1.0 — fully active).
    block_overrides:
        Optional per-block-name factors (same range) that replace the
        kind factor (power-gating individual cores, boosting one, ...).
    """

    name: str
    activity: "dict[BlockKind, float]" = field(default_factory=dict)
    block_overrides: "dict[str, float]" = field(default_factory=dict)

    def __post_init__(self) -> None:
        for factor in list(self.activity.values()) + list(self.block_overrides.values()):
            if not 0.0 <= factor <= MAX_ACTIVITY_FACTOR:
                raise ConfigurationError(
                    f"activity factors must be in [0, {MAX_ACTIVITY_FACTOR}], "
                    f"got {factor}"
                )

    def factor_for(self, block_name: str, kind: BlockKind) -> float:
        """Effective activity factor of one block."""
        if block_name in self.block_overrides:
            return self.block_overrides[block_name]
        return self.activity.get(kind, 1.0)

    def power_map(
        self, nx: int, ny: int, floorplan: "Floorplan | None" = None
    ) -> np.ndarray:
        """Rasterised (ny, nx) power map [W per cell] of this workload."""
        if floorplan is None:
            floorplan = build_power7_floorplan()
        densities = full_load_power_densities(floorplan)
        dx = floorplan.width_m / nx
        dy = floorplan.height_m / ny
        cell_area = dx * dy
        power = np.zeros((ny, nx))
        x_centers = (np.arange(nx) + 0.5) * dx
        y_centers = (np.arange(ny) + 0.5) * dy
        for block in floorplan.blocks:
            factor = self.factor_for(block.name, block.kind)
            density = densities[block.kind] * factor
            ix = np.nonzero((x_centers >= block.x_m) & (x_centers < block.x_max_m))[0]
            iy = np.nonzero((y_centers >= block.y_m) & (y_centers < block.y_max_m))[0]
            if ix.size and iy.size:
                power[np.ix_(iy, ix)] = density * cell_area
        return power

    def total_power_w(self, floorplan: "Floorplan | None" = None) -> float:
        """Total chip power of this workload at a reference raster [W].

        The 106x85 reference raster's cell-centre sampling overstates the
        exact block-area power by about 3 % (+3.3 % at full load; see
        :meth:`~repro.geometry.floorplan.Floorplan.rasterize_power`).
        """
        return float(self.power_map(106, 85, floorplan).sum())


def full_load() -> Workload:
    """Everything at 100 % — the Fig. 9 corner."""
    return Workload(name="full load")


def memory_bound() -> Workload:
    """Caches and I/O hot, cores throttled — the microserver-style point
    the paper's conclusion mentions (ref [25])."""
    return Workload(
        name="memory bound",
        activity={
            BlockKind.CORE: 0.35,
            BlockKind.L2: 1.0,
            BlockKind.L3: 1.0,
            BlockKind.LOGIC: 0.8,
            BlockKind.IO: 1.0,
        },
    )


def half_dark() -> Workload:
    """Four of eight cores power-gated — the dark-silicon compromise the
    conventional baseline is forced into."""
    floorplan = build_power7_floorplan()
    core_names = sorted(
        b.name for b in floorplan.blocks_of_kind(BlockKind.CORE)
    )
    gated = {name: 0.02 for name in core_names[: len(core_names) // 2]}
    return Workload(name="half dark", block_overrides=gated)


def idle() -> Workload:
    """Clock-gated idle: leakage-ish residual everywhere."""
    return Workload(
        name="idle",
        activity={kind: 0.08 for kind in BlockKind},
    )


#: Names of the standard scenarios, importable without constructing them
#: (building ``half_dark`` requires the floorplan).
WORKLOAD_NAMES = ("full load", "memory bound", "half dark", "idle")


def standard_workloads() -> "tuple[Workload, ...]":
    """The scenario set used by the workload bench and example."""
    workloads = (full_load(), memory_bound(), half_dark(), idle())
    if tuple(w.name for w in workloads) != WORKLOAD_NAMES:
        raise ConfigurationError(
            "WORKLOAD_NAMES is out of sync with standard_workloads()"
        )
    return workloads
