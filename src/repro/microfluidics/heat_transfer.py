"""Convective heat transfer in microchannels.

Provides the Nusselt-number correlations and derived quantities the compact
thermal model needs to couple fluid cells to the surrounding silicon:

- fully developed laminar Nusselt number for rectangular ducts as a function
  of aspect ratio (constant-heat-flux boundary, interpolated from the Shah &
  London tabulation),
- the wall heat-transfer coefficient ``h = Nu * k_fluid / D_h``,
- the fin efficiency of the silicon walls between channels (the standard
  microchannel heat-sink treatment, cf. the paper's refs [6-8]).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.channel import RectangularChannel
from repro.materials.fluid import Fluid
from repro.materials.solids import SILICON, SolidMaterial

#: Shah & London table of Nu_H1 (constant axial heat flux, constant
#: peripheral temperature) for rectangular ducts vs aspect ratio.
_ASPECTS = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0])
_NU_H1 = np.array([8.235, 6.700, 5.704, 4.969, 4.457, 4.111, 3.740, 3.599])


def nusselt_rectangular(aspect_ratio: float) -> float:
    """Fully developed laminar Nu for a rectangular duct (H1 condition).

    ``aspect_ratio`` is min/max side in (0, 1]; values are interpolated from
    the Shah & London tabulation (8.235 for parallel plates down to 3.599
    for the square duct).
    """
    if not 0.0 < aspect_ratio <= 1.0:
        raise ConfigurationError(f"aspect ratio must be in (0, 1], got {aspect_ratio}")
    return float(np.interp(aspect_ratio, _ASPECTS, _NU_H1))


def heat_transfer_coefficient(
    channel: RectangularChannel, fluid: Fluid, temperature_k: float = 300.0
) -> float:
    """Wall heat-transfer coefficient h = Nu * k / D_h [W/(m^2*K)]."""
    nu = nusselt_rectangular(channel.aspect_ratio)
    return nu * fluid.thermal_conductivity(temperature_k) / channel.hydraulic_diameter_m


def fin_efficiency(
    wall_height_m: float,
    wall_width_m: float,
    h_w_m2k: float,
    wall_material: SolidMaterial = SILICON,
) -> float:
    """Efficiency of the silicon wall between channels acting as a fin.

    Standard straight-fin result ``eta = tanh(m*H)/(m*H)`` with
    ``m = sqrt(2h / (k_s * t))`` for a fin of thickness t and height H
    cooled on both faces. Returns 1.0 in the limit of a vanishing fin.
    """
    if wall_height_m <= 0.0 or wall_width_m <= 0.0:
        return 1.0
    m = math.sqrt(2.0 * h_w_m2k / (wall_material.thermal_conductivity * wall_width_m))
    mh = m * wall_height_m
    if mh < 1e-9:
        return 1.0
    return math.tanh(mh) / mh
