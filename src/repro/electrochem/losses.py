"""Polarization losses: the film model and the ohmic resistance.

The paper decomposes the total voltage loss as
``eta = eta_Omega + eta_ct + eta_mt`` (Section II-A). The charge-transfer
part lives in :mod:`repro.electrochem.butler_volmer`; this module provides

- the *film model* linking current density to electrode surface
  concentrations (``C_s = C_b -+ j/(n*F*k_m)``), which is how mass
  transport enters the Butler-Volmer expression self-consistently,
- the ohmic resistance of the co-laminar cell geometry (ionic path between
  the two side-wall electrodes, plus electronic/contact terms).
"""

from __future__ import annotations

from repro.constants import FARADAY
from repro.errors import ConfigurationError, OperatingPointError
from repro.geometry.channel import RectangularChannel
from repro.materials.electrolyte import Electrolyte


def film_surface_concentrations(
    current_density_a_m2: float,
    conc_consumed_bulk: float,
    conc_produced_bulk: float,
    mass_transfer_coefficient_m_s: float,
    n_electrons: int,
) -> "tuple[float, float]":
    """Surface concentrations (consumed, produced) from the film model.

    At steady state the reaction flux ``j/(n*F)`` equals the diffusive flux
    ``k_m * (C_b - C_s)`` through the concentration boundary layer, so

        C_s,consumed = C_b,consumed - j / (n*F*k_m)
        C_s,produced = C_b,produced + j / (n*F*k_m)

    ``current_density_a_m2`` is the *magnitude* of the reacting current.
    Raises :class:`OperatingPointError` when the requested current exceeds
    the transport limit (surface concentration would go negative).
    """
    if current_density_a_m2 < 0.0:
        raise ConfigurationError("current density magnitude must be >= 0")
    if mass_transfer_coefficient_m_s <= 0.0:
        raise ConfigurationError("mass-transfer coefficient must be > 0")
    flux = current_density_a_m2 / (n_electrons * FARADAY * mass_transfer_coefficient_m_s)
    consumed = conc_consumed_bulk - flux
    if consumed < 0.0:
        raise OperatingPointError(
            f"current density {current_density_a_m2:.4g} A/m^2 exceeds the "
            f"mass-transport limit "
            f"{n_electrons * FARADAY * mass_transfer_coefficient_m_s * conc_consumed_bulk:.4g} A/m^2"
        )
    produced = conc_produced_bulk + flux
    return consumed, produced


def ohmic_resistance_colaminar(
    channel: RectangularChannel,
    anolyte: Electrolyte,
    catholyte: Electrolyte,
    temperature_k: float = 300.0,
    electronic_resistance_ohm: float = 0.0,
) -> float:
    """Total ohmic resistance [Ohm] of one co-laminar channel cell.

    The ionic current crosses the channel width between the side-wall
    electrodes through the two streams in series, each of thickness w/2 and
    conduction cross-section h*L:

        R_ionic = (w/2) / (sigma_a * h * L) + (w/2) / (sigma_c * h * L)

    ``electronic_resistance_ohm`` adds electrode bulk/contact resistance.
    """
    area = channel.electrode_area_m2
    half_gap = channel.inter_electrode_gap_m / 2.0
    sigma_a = anolyte.ionic_conductivity(temperature_k)
    sigma_c = catholyte.ionic_conductivity(temperature_k)
    r_ionic = half_gap / (sigma_a * area) + half_gap / (sigma_c * area)
    if electronic_resistance_ohm < 0.0:
        raise ConfigurationError("electronic resistance must be >= 0")
    return r_ionic + electronic_resistance_ohm
