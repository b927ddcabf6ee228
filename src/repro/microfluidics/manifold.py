"""Inlet/outlet manifold flow distribution.

The array models assume an even flow split across the 88 channels. Whether
the real header geometry delivers that is a classic microchannel heat-sink
design question: a thin header starves the far channels (Z-configuration)
or the near ones (U-configuration), and a starved channel is simultaneously
a hot spot *and* a weak cell — so flow uniformity underpins both halves of
the paper's proposal.

The standard model is a hydraulic ladder network: header segments with
resistance ``r_h`` between channel taps, each channel a rung with
resistance ``r_c``. This module solves the ladder exactly (sparse linear
system) for the per-channel flows and reports the maldistribution, plus the
header sizing needed to keep it below a target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from repro.errors import ConfigurationError
from repro.geometry.array import ChannelArray
from repro.geometry.channel import RectangularChannel
from repro.materials.fluid import Fluid
from repro.microfluidics.hydraulics import (
    darcy_pressure_drop,
    open_channel_pressure_drop,
)


@dataclass(frozen=True)
class ManifoldDesign:
    """Header + channel-bank hydraulic description.

    Parameters
    ----------
    array:
        The channel bank being fed.
    header_channel:
        Cross-section of the supply/collect headers, modelled as a
        rectangular duct running across the array; its *length* field is
        ignored (segment lengths come from the array pitch).
    configuration:
        "U" (supply and collect on the same side) or "Z" (opposite sides).
    channel_permeability_m2:
        If given, channels are porous-electrode filled (Darcy); otherwise
        open ducts.
    """

    array: ChannelArray
    header_channel: RectangularChannel
    configuration: str = "Z"
    channel_permeability_m2: "float | None" = None

    def __post_init__(self) -> None:
        if self.configuration not in ("U", "Z"):
            raise ConfigurationError(
                f"configuration must be 'U' or 'Z', got {self.configuration}"
            )


@dataclass(frozen=True)
class FlowDistribution:
    """Per-channel flows of a solved manifold."""

    flows_m3_s: np.ndarray

    @property
    def total_m3_s(self) -> float:
        return float(self.flows_m3_s.sum())

    @property
    def uniformity(self) -> float:
        """min/max flow ratio in (0, 1]; 1 means perfectly even."""
        return float(self.flows_m3_s.min() / self.flows_m3_s.max())

    @property
    def maldistribution(self) -> float:
        """Relative spread (max - min) / mean."""
        mean = float(self.flows_m3_s.mean())
        return float((self.flows_m3_s.max() - self.flows_m3_s.min()) / mean)

    @property
    def worst_channel_deficit(self) -> float:
        """1 - (weakest channel flow / even-split flow)."""
        even = self.total_m3_s / self.flows_m3_s.size
        return float(1.0 - self.flows_m3_s.min() / even)


def _linear_resistance(
    channel: RectangularChannel,
    fluid: Fluid,
    permeability_m2: "float | None",
    temperature_k: float,
) -> float:
    """Hydraulic resistance dp/Q [Pa*s/m^3] of a duct (laminar => linear)."""
    probe_flow = 1e-9
    if permeability_m2 is None:
        dp = open_channel_pressure_drop(channel, fluid, probe_flow, temperature_k)
    else:
        dp = darcy_pressure_drop(
            channel, fluid, probe_flow, permeability_m2, temperature_k
        )
    return dp / probe_flow


def solve_flow_distribution(
    design: ManifoldDesign,
    fluid: Fluid,
    total_flow_m3_s: float,
    temperature_k: float = 300.0,
) -> FlowDistribution:
    """Solve the ladder network for the per-channel flow split.

    Nodes: supply-header taps s_0..s_{N-1} and collect-header taps
    c_0..c_{N-1}; channel i connects s_i to c_i. Flow enters at s_0; it
    leaves at c_0 ("U") or c_{N-1} ("Z"). Laminar flow makes every branch
    linear, so one sparse solve gives the exact split.
    """
    if not 0.0 < total_flow_m3_s < math.inf:
        raise ConfigurationError(
            f"total_flow_m3_s must be finite and > 0, got {total_flow_m3_s}"
        )
    n = design.array.count
    segment = RectangularChannel(
        design.header_channel.width_m,
        design.header_channel.height_m,
        design.array.pitch_m,
    )
    r_header = _linear_resistance(segment, fluid, None, temperature_k)
    r_channel = _linear_resistance(
        design.array.channel, fluid, design.channel_permeability_m2, temperature_k
    )

    g_h = 1.0 / r_header
    g_c = 1.0 / r_channel
    size = 2 * n  # supply taps [0..n-1], collect taps [n..2n-1]
    rows, cols, vals = [], [], []

    def stamp(a: int, b: int, g: float) -> None:
        rows.extend((a, b, a, b))
        cols.extend((a, b, b, a))
        vals.extend((g, g, -g, -g))

    for i in range(n - 1):
        stamp(i, i + 1, g_h)              # supply header segments
        stamp(n + i, n + i + 1, g_h)      # collect header segments
    for i in range(n):
        stamp(i, n + i, g_c)              # channels

    matrix = sparse.coo_matrix(
        (np.array(vals), (np.array(rows), np.array(cols))), shape=(size, size)
    ).tolil()
    rhs = np.zeros(size)
    rhs[0] += total_flow_m3_s                       # inlet at s_0
    outlet = n if design.configuration == "U" else 2 * n - 1
    # Ground the outlet node (pressure reference).
    matrix.rows[outlet] = [outlet]
    matrix.data[outlet] = [1.0]
    rhs[outlet] = 0.0

    pressures = spsolve(matrix.tocsr(), rhs)
    flows = g_c * (pressures[:n] - pressures[n:])
    if np.any(flows <= 0.0):
        raise ConfigurationError(
            "manifold solution produced reverse channel flow; header too thin"
        )
    return FlowDistribution(flows_m3_s=flows)


def header_width_for_uniformity(
    design: ManifoldDesign,
    fluid: Fluid,
    total_flow_m3_s: float,
    target_uniformity: float = 0.95,
    max_width_m: float = 20e-3,
) -> float:
    """Smallest header width meeting a flow-uniformity target [m].

    Bisects on the header width (height fixed); uniformity is monotone in
    header conductance.
    """
    if not 0.0 < target_uniformity < 1.0:
        raise ConfigurationError("target uniformity must be in (0, 1)")

    def uniformity_at(width_m: float) -> float:
        header = RectangularChannel(
            width_m, design.header_channel.height_m, design.array.pitch_m
        )
        candidate = ManifoldDesign(
            design.array, header, design.configuration,
            design.channel_permeability_m2,
        )
        try:
            return solve_flow_distribution(candidate, fluid, total_flow_m3_s).uniformity
        except ConfigurationError:
            return 0.0

    lo = design.header_channel.width_m
    hi = max_width_m
    if uniformity_at(hi) < target_uniformity:
        raise ConfigurationError(
            f"even a {1e3 * hi:.1f} mm header misses uniformity "
            f"{target_uniformity}"
        )
    if uniformity_at(lo) >= target_uniformity:
        return lo
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if uniformity_at(mid) >= target_uniformity:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-6:
            break
    return hi
