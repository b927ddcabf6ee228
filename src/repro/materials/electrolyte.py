"""Electrolyte = carrier fluid + ionic conductivity + redox species state.

An :class:`Electrolyte` is what actually flows through a half-channel: the
bulk fluid (density, viscosity, thermal properties), its ionic conductivity
(for the ohmic overvoltage, paper's eta_Omega = R*I) and the inlet
concentrations of the oxidised/reduced forms of its redox couple
(paper's C*_Ox, C*_Red in Tables I and II).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import FARADAY
from repro.errors import ConfigurationError
from repro.materials.fluid import Fluid
from repro.materials.properties import Arrhenius, TemperatureModel, as_model
from repro.materials.species import RedoxCouple

#: Activation energy for ionic conduction in sulfuric-acid electrolytes
#: [J/mol]; conductivity rises with temperature.
CONDUCTIVITY_ACTIVATION_ENERGY = 12.0e3

#: Ionic conductivity of vanadium electrolytes in 2-4 M H2SO4 [S/m] at 300 K.
#: Literature range is roughly 25-45 S/m depending on state of charge.
DEFAULT_IONIC_CONDUCTIVITY = 30.0


@dataclass(frozen=True)
class Electrolyte:
    """A redox-active electrolyte stream.

    Parameters
    ----------
    fluid:
        Bulk transport/thermal properties of the solution.
    couple:
        The redox couple dissolved in this stream.
    conc_ox / conc_red:
        Inlet (bulk) concentrations of the oxidised and reduced species
        [mol/m^3] — the paper's C*_Ox and C*_Red.
    ionic_conductivity:
        Ionic conductivity sigma [S/m] (model of temperature).
    """

    fluid: Fluid
    couple: RedoxCouple
    conc_ox: float
    conc_red: float
    ionic_conductivity: TemperatureModel

    def __init__(
        self,
        fluid: Fluid,
        couple: RedoxCouple,
        conc_ox: float,
        conc_red: float,
        ionic_conductivity: "TemperatureModel | float" = DEFAULT_IONIC_CONDUCTIVITY,
    ) -> None:
        if conc_ox < 0.0 or conc_red < 0.0:
            raise ConfigurationError(
                f"concentrations must be >= 0, got ox={conc_ox}, red={conc_red}"
            )
        if conc_ox == 0.0 and conc_red == 0.0:
            raise ConfigurationError("at least one redox state must be present")
        object.__setattr__(self, "fluid", fluid)
        object.__setattr__(self, "couple", couple)
        object.__setattr__(self, "conc_ox", float(conc_ox))
        object.__setattr__(self, "conc_red", float(conc_red))
        object.__setattr__(self, "ionic_conductivity", as_model(ionic_conductivity))
        if self.ionic_conductivity(300.0) <= 0.0:
            raise ConfigurationError("ionic conductivity must be positive at 300 K")

    @property
    def total_vanadium(self) -> float:
        """Total dissolved redox concentration [mol/m^3] (conserved)."""
        return self.conc_ox + self.conc_red

    def charge_capacity_per_volume(self, as_fuel: bool) -> float:
        """Extractable charge per unit electrolyte volume [C/m^3].

        n * F * C_charged — multiplied by the volumetric flow rate this gives
        the Faradaic (coulombic) upper bound on cell current.
        """
        charged = self.conc_red if as_fuel else self.conc_ox
        return self.couple.electrons * FARADAY * charged

    def with_concentrations(self, conc_ox: float, conc_red: float) -> "Electrolyte":
        """A copy of this electrolyte with different species concentrations."""
        return Electrolyte(
            fluid=self.fluid,
            couple=self.couple,
            conc_ox=conc_ox,
            conc_red=conc_red,
            ionic_conductivity=self.ionic_conductivity,
        )


def default_conductivity_model(
    sigma_ref_s_m: float = DEFAULT_IONIC_CONDUCTIVITY,
    temperature_dependent: bool = False,
    t_ref_k: float = 300.0,
) -> "TemperatureModel | float":
    """Standard ionic-conductivity model for vanadium/H2SO4 electrolytes."""
    if temperature_dependent:
        return Arrhenius(sigma_ref_s_m, CONDUCTIVITY_ACTIVATION_ENERGY, t_ref_k=t_ref_k)
    return sigma_ref_s_m
