"""Microfluidic transport models: hydraulics, heat and mass transfer.

These are the momentum/energy/species substrates (paper eqs. 9-12) that the
flow-cell and thermal models build on:

- :mod:`repro.microfluidics.flow` — Reynolds number (the membraneless
  co-laminar concept requires low Re) and the cross-channel laminar
  velocity profile.
- :mod:`repro.microfluidics.hydraulics` — Darcy pressure drop through
  porous media and pumping power (Darcy-Weisbach + Bernoulli, as used for
  the paper's 4.4 W figure).
- :mod:`repro.microfluidics.heat_transfer` — Nusselt correlations, the
  wall heat-transfer coefficient and the fin efficiency of the
  microchannel heat-sink model.
- :mod:`repro.microfluidics.mass_transfer` — Leveque/Graetz developing
  boundary-layer mass transfer and porous-media correlations that set the
  limiting current of the flow cells.
"""

from repro.microfluidics.flow import reynolds_number
from repro.microfluidics.heat_transfer import (
    heat_transfer_coefficient,
    nusselt_rectangular,
)
from repro.microfluidics.hydraulics import (
    darcy_pressure_drop,
    pumping_power,
)
from repro.microfluidics.mass_transfer import (
    average_mass_transfer_coefficient,
    leveque_local_mass_transfer_coefficient,
    porous_mass_transfer_coefficient,
)

__all__ = [
    "reynolds_number",
    "darcy_pressure_drop",
    "pumping_power",
    "nusselt_rectangular",
    "heat_transfer_coefficient",
    "leveque_local_mass_transfer_coefficient",
    "average_mass_transfer_coefficient",
    "porous_mass_transfer_coefficient",
]
