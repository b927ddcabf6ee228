"""Effective thermal-resistance extraction.

Cooling technologies are compared by their junction-to-coolant thermal
resistance; the paper's refs [6-8] quote microchannel solutions in the
0.1 K*cm2/W class against ~0.5+ for air. This module extracts those
figures from solved thermal models so the proposed system can be placed on
that scale with the lumped junction-to-inlet resistance.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.thermal.model import ThermalModel
from repro.thermal.solver import ThermalSolution


def junction_to_inlet_resistance_k_w(
    solution: ThermalSolution, model: "ThermalModel | None" = None
) -> float:
    """Lumped R_j-inlet = peak rise / total power [K/W].

    The global figure of merit comparable with heat-sink datasheets; for
    the case study this lands near 0.09 K/W against ~0.3 K/W for a good
    air solution.
    """
    if model is None:
        model = solution.model
    total = model.total_power_w()
    if total <= 0.0:
        raise ConfigurationError("model carries no power")
    return (solution.peak_k - model.inlet_temperature_k) / total
