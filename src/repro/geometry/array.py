"""Channel array layout.

The POWER7+ case study lays 88 identical channels at a 300 um pitch across
the 26.55 mm die width, flowing along the 21.34 mm die height (Table II).
:class:`ChannelArray` captures that layout: the unit channel, the count, the
pitch and the flow direction, plus derived quantities (total flow area, die
coverage, per-channel flow split) used by the hydraulic, thermal and array
electrical models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.geometry.channel import RectangularChannel


@dataclass(frozen=True)
class ChannelArray:
    """N identical parallel microchannels at a fixed pitch.

    Parameters
    ----------
    channel:
        The unit channel geometry.
    count:
        Number of channels (88 in Table II).
    pitch_m:
        Centre-to-centre spacing [m]; must be >= channel width, the
        difference being the silicon wall (fin) between channels.
    flow_axis:
        ``"y"`` if channels run along the floorplan's height (the POWER7+
        layout), ``"x"`` if along its width. Only used when embedding the
        array into a die-sized thermal/floorplan model.
    """

    channel: RectangularChannel
    count: int
    pitch_m: float
    flow_axis: str = "y"

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError(f"count must be >= 1, got {self.count}")
        if self.pitch_m < self.channel.width_m:
            raise ConfigurationError(
                f"pitch ({self.pitch_m}) must be >= channel width "
                f"({self.channel.width_m}); channels would overlap"
            )
        if self.flow_axis not in ("x", "y"):
            raise ConfigurationError(f"flow_axis must be 'x' or 'y', got {self.flow_axis}")

    @property
    def wall_width_m(self) -> float:
        """Width of the silicon wall (fin) between adjacent channels [m]."""
        return self.pitch_m - self.channel.width_m

    def per_channel_flow(self, total_flow_m3_s: float) -> float:
        """Even flow split across identical parallel channels [m^3/s]."""
        if total_flow_m3_s < 0.0:
            raise ConfigurationError(f"total flow must be >= 0, got {total_flow_m3_s}")
        return total_flow_m3_s / self.count

    def mean_velocity(self, total_flow_m3_s: float) -> float:
        """Bulk mean velocity in each channel [m/s] for a total array flow."""
        return self.channel.mean_velocity(self.per_channel_flow(total_flow_m3_s))

    def coverage_fraction(self, die_width_m: float) -> float:
        """Fraction of the die width covered by channel openings (not walls)."""
        if not 0.0 < die_width_m < math.inf:
            raise ConfigurationError(
                f"die_width_m must be finite and > 0, got {die_width_m}"
            )
        return min(1.0, self.count * self.channel.width_m / die_width_m)
