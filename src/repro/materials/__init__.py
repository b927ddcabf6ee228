"""Material models: fluids, electrolytes, redox couples and solids.

This subpackage provides the property substrate everything else builds on:

- :mod:`repro.materials.properties` — temperature-dependence models
  (constant, linear, Arrhenius) shared by all materials.
- :mod:`repro.materials.fluid` — bulk fluid transport/thermal properties.
- :mod:`repro.materials.species` — redox couples (the all-vanadium pairs).
- :mod:`repro.materials.electrolyte` — electrolyte = fluid + ionic
  conductivity + dissolved redox species concentrations.
- :mod:`repro.materials.solids` — solid materials for thermal and PDN models.
"""

from repro.materials.electrolyte import Electrolyte
from repro.materials.fluid import Fluid
from repro.materials.properties import (
    Arrhenius,
    Constant,
    LinearInT,
    TemperatureModel,
)
from repro.materials.solids import (
    COPPER,
    SILICON,
    SILICON_DIOXIDE,
    THERMAL_INTERFACE,
    SolidMaterial,
)
from repro.materials.species import (
    RedoxCouple,
    vanadium_negative_couple,
    vanadium_positive_couple,
)

__all__ = [
    "Arrhenius",
    "Constant",
    "LinearInT",
    "TemperatureModel",
    "Fluid",
    "Electrolyte",
    "RedoxCouple",
    "vanadium_negative_couple",
    "vanadium_positive_couple",
    "SolidMaterial",
    "SILICON",
    "COPPER",
    "SILICON_DIOXIDE",
    "THERMAL_INTERFACE",
]
