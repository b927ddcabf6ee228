"""Electrochemical models: equilibria, kinetics, losses, polarization.

Implements Section II-A of the paper:

- :mod:`repro.electrochem.nernst` — equilibrium electrode potentials and
  open-circuit voltage (paper eqs. 4-5).
- :mod:`repro.electrochem.butler_volmer` — reaction kinetics (paper eq. 6),
  exchange current densities, forward and inverse evaluation.
- :mod:`repro.electrochem.losses` — the ohmic resistance of the co-laminar
  cell and the film-model surface concentrations that carry the
  mass-transport overvoltage (paper eqs. 7-8) into the kinetics.
- :mod:`repro.electrochem.halfcell` — a half-cell (couple + bulk state +
  transport) that maps current density to electrode potential.
- :mod:`repro.electrochem.polarization` — polarization/power curve
  containers and analysis helpers (the paper's Figs. 3 and 7).
"""

from repro.electrochem.butler_volmer import (
    current_density,
    exchange_current_density,
    overpotential_for_current,
)
from repro.electrochem.halfcell import FilmHalfCell
from repro.electrochem.losses import (
    film_surface_concentrations,
    ohmic_resistance_colaminar,
)
from repro.electrochem.nernst import (
    equilibrium_potential,
    open_circuit_voltage,
)
from repro.electrochem.polarization import PolarizationCurve

__all__ = [
    "equilibrium_potential",
    "open_circuit_voltage",
    "exchange_current_density",
    "current_density",
    "overpotential_for_current",
    "film_surface_concentrations",
    "ohmic_resistance_colaminar",
    "FilmHalfCell",
    "PolarizationCurve",
]
