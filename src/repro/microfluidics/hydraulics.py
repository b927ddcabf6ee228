"""Pressure drop and pumping power.

Implements the momentum side of the paper (eqs. 9-10) in the compact form
actually used for system evaluation:

- Darcy flow through a *porous* electrode-filled channel (the flow-through
  electrode configuration needed to reach the paper's array current
  densities; see DESIGN.md substitution note 3),
- the Darcy-Weisbach / Bernoulli pumping power the paper quotes:
  ``P = dp * Vdot / eta_pump`` with a 50 % efficient pump (Section III-B).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.geometry.channel import RectangularChannel
from repro.materials.fluid import Fluid

#: Default pump efficiency assumed by the paper (Section III-B, ref [6]).
DEFAULT_PUMP_EFFICIENCY = 0.5


def darcy_pressure_drop(
    channel: RectangularChannel,
    fluid: Fluid,
    volumetric_flow_m3_s: float,
    permeability_m2: float,
    temperature_k: float = 300.0,
) -> float:
    """Pressure drop [Pa] across a channel filled with porous electrode.

    Darcy's law: ``dp = mu * v_superficial * L / K`` with the superficial
    velocity Q/A and permeability K. Typical carbon-fibre electrode
    permeabilities are 1e-11 .. 1e-9 m^2.
    """
    if permeability_m2 <= 0.0:
        raise ConfigurationError(f"permeability must be > 0, got {permeability_m2}")
    velocity = channel.mean_velocity(volumetric_flow_m3_s)
    mu = fluid.dynamic_viscosity(temperature_k)
    return mu * velocity * channel.length_m / permeability_m2


def pumping_power(
    pressure_drop_pa: float,
    volumetric_flow_m3_s: float,
    pump_efficiency: float = DEFAULT_PUMP_EFFICIENCY,
) -> float:
    """Hydraulic pumping power [W]: ``P = dp * Vdot / eta_p``.

    This is the paper's Bernoulli pumping-power expression with the 50 %
    pump efficiency it assumes; the POWER7+ case lands at ~4.4 W.
    """
    if not 0.0 < pump_efficiency <= 1.0:
        raise ConfigurationError(f"pump efficiency must be in (0, 1], got {pump_efficiency}")
    if pressure_drop_pa < 0.0 or volumetric_flow_m3_s < 0.0:
        raise ConfigurationError("pressure drop and flow rate must be >= 0")
    return pressure_drop_pa * volumetric_flow_m3_s / pump_efficiency
