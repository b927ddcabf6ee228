"""Flow characterisation for rectangular microchannels.

The membraneless co-laminar flow cell exists *because* microchannel flow is
deeply laminar: the paper (Section II) notes that for small hydraulic
diameters the Reynolds number ``Re = rho*v*Dh/mu`` is low enough that the
fuel and oxidant streams flow side by side without convective mixing. These
helpers quantify that: the Reynolds number, and the cross-channel laminar
velocity profile the finite-volume species solver convects with.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.channel import RectangularChannel
from repro.materials.fluid import Fluid


def reynolds_number(
    channel: RectangularChannel,
    fluid: Fluid,
    volumetric_flow_m3_s: float,
    temperature_k: float = 300.0,
) -> float:
    """Re = rho * v * D_h / mu for the channel bulk flow."""
    velocity = channel.mean_velocity(volumetric_flow_m3_s)
    return (
        fluid.density(temperature_k)
        * velocity
        * channel.hydraulic_diameter_m
        / fluid.dynamic_viscosity(temperature_k)
    )


def cross_channel_velocity_profile(
    channel: RectangularChannel,
    mean_velocity_m_s: float,
    n_cells: int,
) -> np.ndarray:
    """Depth-averaged streamwise velocity across the channel width.

    Returns u at the ``n_cells`` cell centres spanning [0, w], normalised to
    the requested mean. Two regimes:

    - *narrow* channels (w <= h): the transverse profile is the Poiseuille
      parabola across the width, u = 6*v*(y/w)*(1 - y/w);
    - *wide flat* channels (w > h, the Hele-Shaw limit of the validation
      cell): the depth-averaged profile is flat in the core with linear
      ramps of extent h/6 at the side walls, chosen so the wall shear rate
      matches the 6*v/h value that governs boundary-layer growth there.

    This is the velocity field the quasi-2D species solver convects with;
    matching the wall shear to the Leveque model keeps the two models'
    limiting currents consistent.
    """
    if n_cells < 2:
        raise ConfigurationError(f"n_cells must be >= 2, got {n_cells}")
    if mean_velocity_m_s < 0.0:
        raise ConfigurationError("mean velocity must be >= 0")
    width = channel.width_m
    y = (np.arange(n_cells) + 0.5) / n_cells * width
    if width <= channel.height_m:
        profile = 6.0 * (y / width) * (1.0 - y / width)
    else:
        ramp = channel.height_m / 6.0
        ramp = min(ramp, width / 4.0)
        distance_to_wall = np.minimum(y, width - y)
        profile = np.minimum(1.0, distance_to_wall / ramp)
    mean = profile.mean()
    if mean <= 0.0:
        raise ConfigurationError("velocity profile has non-positive mean")
    return profile * (mean_velocity_m_s / mean)

