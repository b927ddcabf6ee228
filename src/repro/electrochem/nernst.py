"""Nernst equilibrium potentials (paper eqs. 4-5).

The equilibrium potential of each electrode depends on the local ratio of
oxidised to reduced species:

    E = E0 + (R*T)/(n*F) * ln(C_ox / C_red)

and the cell open-circuit voltage is U = E_pos - E_neg. With the standard
potentials of the vanadium couples (-0.255 V and +0.991 V) the standard OCV
is ~1.25 V; with the strongly charged electrolytes of Table II (2000:1
ratios) it rises to ~1.65 V, which is where the paper's Fig. 7 curve starts.
"""

from __future__ import annotations

import math

from repro.constants import FARADAY, GAS_CONSTANT
from repro.errors import ConfigurationError
from repro.materials.species import RedoxCouple

#: Concentration floor [mol/m^3] applied inside logarithms so that fully
#: depleted states yield a large-but-finite potential instead of infinity.
CONCENTRATION_FLOOR = 1e-9


def equilibrium_potential(
    couple: RedoxCouple,
    conc_ox_mol_m3: float,
    conc_red_mol_m3: float,
    temperature_k: float = 300.0,
) -> float:
    """Nernst equilibrium potential [V vs SHE] of one half-cell.

    Applies :data:`CONCENTRATION_FLOOR` to either species so the expression
    stays finite as a species is exhausted; negative concentrations are
    rejected.
    """
    if conc_ox_mol_m3 < 0.0 or conc_red_mol_m3 < 0.0:
        raise ConfigurationError(
            f"concentrations must be >= 0, got ox={conc_ox_mol_m3}, red={conc_red_mol_m3}"
        )
    if temperature_k <= 0.0:
        raise ConfigurationError(f"temperature must be > 0 K, got {temperature_k}")
    c_ox = max(conc_ox_mol_m3, CONCENTRATION_FLOOR)
    c_red = max(conc_red_mol_m3, CONCENTRATION_FLOOR)
    nernst_slope = GAS_CONSTANT * temperature_k / (couple.electrons * FARADAY)
    return couple.standard_potential_at(temperature_k) + nernst_slope * math.log(
        c_ox / c_red
    )


def open_circuit_voltage(
    positive: RedoxCouple,
    pos_conc_ox: float,
    pos_conc_red: float,
    negative: RedoxCouple,
    neg_conc_ox: float,
    neg_conc_red: float,
    temperature_k: float = 300.0,
) -> float:
    """Full-cell OCV [V] from both half-cell Nernst potentials."""
    e_pos = equilibrium_potential(positive, pos_conc_ox, pos_conc_red, temperature_k)
    e_neg = equilibrium_potential(negative, neg_conc_ox, neg_conc_red, temperature_k)
    return e_pos - e_neg
