"""Rectangular microchannel geometry.

The paper's flow cells are straight rectangular microchannels etched into
silicon (Fig. 1/Fig. 2): the validation cell of Table I is 33 mm x 2 mm x
150 um, the POWER7+ array channels of Table II are 22 mm long, 200 um wide
and 400 um tall. This module provides the purely geometric quantities —
cross-sections, hydraulic diameter, aspect ratio, wetted perimeter,
electrode areas — that the hydraulic, thermal and electrochemical models
all consume.

Convention: *width* (w) is the in-plane dimension across which the two
co-laminar streams sit side by side; *height* (h) is the etch depth. The
fuel/oxidant interface is the vertical mid-plane, each stream occupying
width w/2, and the anode/cathode electrodes sit on the two opposite
side walls (area = height x length each), as in Fig. 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RectangularChannel:
    """A straight rectangular microchannel.

    Parameters
    ----------
    width_m:
        In-plane channel width w [m].
    height_m:
        Etch depth h [m].
    length_m:
        Channel (and electrode) length L [m].
    """

    width_m: float
    height_m: float
    length_m: float

    def __post_init__(self) -> None:
        for label, value in (
            ("width_m", self.width_m),
            ("height_m", self.height_m),
            ("length_m", self.length_m),
        ):
            # ``not 0 < x < inf`` so NaN and inf fail the check too.
            if not 0.0 < value < math.inf:
                raise ConfigurationError(
                    f"{label} must be finite and > 0, got {value}"
                )

    # -- cross-section -----------------------------------------------------

    @property
    def cross_section_area_m2(self) -> float:
        """Flow cross-section w*h [m^2]."""
        return self.width_m * self.height_m

    @property
    def wetted_perimeter_m(self) -> float:
        """Wetted perimeter 2*(w+h) [m]."""
        return 2.0 * (self.width_m + self.height_m)

    @property
    def hydraulic_diameter_m(self) -> float:
        """D_h = 4*A/P = 2*w*h/(w+h) [m]."""
        return 4.0 * self.cross_section_area_m2 / self.wetted_perimeter_m

    @property
    def aspect_ratio(self) -> float:
        """min(w,h)/max(w,h), in (0, 1]; the f*Re correlations expect this."""
        small, large = sorted((self.width_m, self.height_m))
        return small / large

    # -- stream & electrode geometry ---------------------------------------

    @property
    def half_width_m(self) -> float:
        """Width of each co-laminar stream (w/2) [m]."""
        return self.width_m / 2.0

    @property
    def electrode_area_m2(self) -> float:
        """Area of one side-wall electrode: h*L [m^2]."""
        return self.height_m * self.length_m

    @property
    def inter_electrode_gap_m(self) -> float:
        """Distance between anode and cathode walls (= channel width) [m]."""
        return self.width_m

    # -- kinematics ---------------------------------------------------------

    def mean_velocity(self, volumetric_flow_m3_s: float) -> float:
        """Bulk mean velocity v = Q/A [m/s] for a given total channel flow."""
        if volumetric_flow_m3_s < 0.0:
            raise ConfigurationError(
                f"volumetric flow must be >= 0, got {volumetric_flow_m3_s}"
            )
        return volumetric_flow_m3_s / self.cross_section_area_m2
