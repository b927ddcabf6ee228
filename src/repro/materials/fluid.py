"""Bulk fluid property model.

A :class:`Fluid` collects the transport and thermal properties needed by the
hydraulic, heat-transfer and mass-transfer models: density, dynamic
viscosity, thermal conductivity and volumetric heat capacity. Each property
is a :class:`~repro.materials.properties.TemperatureModel` so the same class
serves both isothermal studies (Table I / Table II of the paper, evaluated at
the 300 K inlet temperature) and the electro-thermal coupling study of
Section III-B.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.materials.properties import Arrhenius, TemperatureModel, as_model


@dataclass(frozen=True)
class Fluid:
    """Transport and thermal properties of a (possibly reacting) liquid.

    Parameters
    ----------
    density:
        Mass density [kg/m^3], or a temperature model thereof.
    dynamic_viscosity:
        Dynamic viscosity [Pa*s], or a temperature model thereof.
    thermal_conductivity:
        Thermal conductivity [W/(m*K)].
    volumetric_heat_capacity:
        rho*cp [J/(m^3*K)] — the paper's Table II quotes this directly
        (4.187e6 J/(m^3*K), i.e. water-like).
    name:
        Optional human-readable label used in reports.
    """

    density: TemperatureModel
    dynamic_viscosity: TemperatureModel
    thermal_conductivity: TemperatureModel
    volumetric_heat_capacity: TemperatureModel
    name: str = "fluid"

    def __init__(
        self,
        density: "TemperatureModel | float",
        dynamic_viscosity: "TemperatureModel | float",
        thermal_conductivity: "TemperatureModel | float",
        volumetric_heat_capacity: "TemperatureModel | float",
        name: str = "fluid",
    ) -> None:
        object.__setattr__(self, "density", as_model(density))
        object.__setattr__(self, "dynamic_viscosity", as_model(dynamic_viscosity))
        object.__setattr__(self, "thermal_conductivity", as_model(thermal_conductivity))
        object.__setattr__(
            self, "volumetric_heat_capacity", as_model(volumetric_heat_capacity)
        )
        object.__setattr__(self, "name", name)
        for label in ("density", "dynamic_viscosity", "thermal_conductivity",
                      "volumetric_heat_capacity"):
            value = getattr(self, label)(300.0)
            if value <= 0.0:
                raise ConfigurationError(f"{label} must be positive at 300 K, got {value}")


#: Activation energy of viscous flow for aqueous sulfuric-acid electrolytes
#: [J/mol]; literature values for 2-4 M H2SO4 vanadium electrolytes cluster
#: around 15-18 kJ/mol.
VISCOSITY_FLOW_ACTIVATION_ENERGY = 16.0e3


def vanadium_electrolyte_fluid(
    density_kg_m3: float = 1260.0,
    viscosity_pa_s: float = 2.53e-3,
    thermal_conductivity_w_mk: float = 0.67,
    volumetric_heat_capacity_j_m3k: float = 4.187e6,
    temperature_dependent: bool = False,
    t_ref_k: float = 300.0,
) -> Fluid:
    """Build the vanadium/H2SO4 electrolyte fluid of Tables I and II.

    With ``temperature_dependent=True`` the viscosity follows an Arrhenius
    law (decreasing with T, activation energy
    :data:`VISCOSITY_FLOW_ACTIVATION_ENERGY`) and the density shrinks mildly
    with temperature; thermal properties stay constant, matching the paper's
    observation that only transport/kinetic parameters react measurably over
    the 27-72 C range explored.
    """
    if temperature_dependent:
        viscosity: "TemperatureModel | float" = Arrhenius(
            viscosity_pa_s,
            VISCOSITY_FLOW_ACTIVATION_ENERGY,
            t_ref_k=t_ref_k,
            increases_with_t=False,
        )
        from repro.materials.properties import LinearInT

        density: "TemperatureModel | float" = LinearInT(
            density_kg_m3, slope_per_k=-4.0e-4, t_ref_k=t_ref_k
        )
    else:
        viscosity = viscosity_pa_s
        density = density_kg_m3
    return Fluid(
        density=density,
        dynamic_viscosity=viscosity,
        thermal_conductivity=thermal_conductivity_w_mk,
        volumetric_heat_capacity=volumetric_heat_capacity_j_m3k,
        name="vanadium electrolyte (H2SO4 supporting)",
    )
