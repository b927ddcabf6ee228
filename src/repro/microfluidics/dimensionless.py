"""Dimensionless groups of the microfluidic transport problem.

The regime arguments of the paper (co-laminar flow, thin boundary layers,
negligible axial diffusion) are statements about dimensionless groups.
This module computes them from the physical configuration so the
assumptions every solver rests on can be *checked*, not asserted:

- Reynolds (inertia/viscosity) — laminarity, hence co-laminar streams;
- Schmidt (momentum/species diffusivity) — boundary-layer ordering;
- axial Peclet (convection/axial diffusion) — the marching FV reduction;
- Graetz (thermal entrance) and its mass-transfer analogue — whether the
  Leveque developing-layer form applies;
- Sherwood — the dimensionless mass-transfer coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.geometry.channel import RectangularChannel
from repro.materials.fluid import Fluid
from repro.microfluidics.flow import reynolds_number


@dataclass(frozen=True)
class TransportRegime:
    """The dimensionless numbers of one channel operating point."""

    reynolds: float
    schmidt: float
    peclet_axial: float
    graetz_mass: float
    sherwood_avg: float

    @property
    def is_laminar(self) -> bool:
        """Below the duct transition (the membraneless premise)."""
        return self.reynolds < 2300.0

    @property
    def axial_diffusion_negligible(self) -> bool:
        """Pe >> 1 justifies the parabolized (marching) species solver."""
        return self.peclet_axial > 100.0

    @property
    def boundary_layer_developing(self) -> bool:
        """Gz >> 1 keeps the concentration layer in the Leveque regime."""
        return self.graetz_mass > 10.0


def characterize(
    channel: RectangularChannel,
    fluid: Fluid,
    diffusivity_m2_s: float,
    volumetric_flow_m3_s: float,
    temperature_k: float = 300.0,
) -> TransportRegime:
    """Evaluate the transport regime of a channel operating point."""
    # Written as ``not 0 < x < inf`` so NaN and inf fail the checks too.
    if not 0.0 < diffusivity_m2_s < math.inf:
        raise ConfigurationError(
            f"diffusivity_m2_s must be finite and > 0, got {diffusivity_m2_s}"
        )
    if not 0.0 < volumetric_flow_m3_s < math.inf:
        raise ConfigurationError(
            "volumetric_flow_m3_s must be finite and > 0, "
            f"got {volumetric_flow_m3_s}"
        )
    velocity = channel.mean_velocity(volumetric_flow_m3_s)
    nu = fluid.kinematic_viscosity(temperature_k)
    re = reynolds_number(channel, fluid, volumetric_flow_m3_s, temperature_k)
    sc = nu / diffusivity_m2_s
    pe = velocity * channel.length_m / diffusivity_m2_s
    # Mass-transfer Graetz number over the electrode length.
    gz = re * sc * channel.hydraulic_diameter_m / channel.length_m
    # Average Sherwood from the Leveque solution, Sh = k_m Dh / D.
    from repro.microfluidics.mass_transfer import average_mass_transfer_coefficient

    spacing = min(channel.width_m, channel.height_m)
    shear = 6.0 * velocity / spacing
    k_m = average_mass_transfer_coefficient(
        diffusivity_m2_s, shear, channel.length_m
    )
    sh = k_m * channel.hydraulic_diameter_m / diffusivity_m2_s
    return TransportRegime(
        reynolds=re,
        schmidt=sc,
        peclet_axial=pe,
        graetz_mass=gz,
        sherwood_avg=sh,
    )
