"""Butler-Volmer reaction kinetics (paper eq. 6).

Current density as a function of activation overpotential eta, including the
surface/bulk concentration ratios that carry the mass-transport effect:

    j = j0 * [ (C_red_s / C_red_b) * exp((1-alpha) * F * eta / (R*T))
             - (C_ox_s  / C_ox_b ) * exp(   -alpha  * F * eta / (R*T)) ]

Positive j is anodic (oxidation). The exchange current density is

    j0 = n * F * k0 * C_ox_b^alpha * C_red_b^(1-alpha).

(The published equation (6) prints the exponent as ``alpha*R*T*eta/F``; the
dimensionally correct argument is ``alpha*F*eta/(R*T)`` as in the standard
references the paper cites [16, 17], which is what we implement.)

Both directions are provided: ``current_density`` (eta -> j) and
``overpotential_for_current`` (j -> eta). The inverse has a closed form for
the symmetric case alpha = 1/2 (a quadratic in exp(F*eta/2RT)); other alphas
fall back to bracketed Brent iteration on the strictly monotonic forward
function.
"""

from __future__ import annotations

import math

from repro.constants import FARADAY, GAS_CONSTANT
from repro.errors import ConfigurationError, ConvergenceError
from repro.materials.species import RedoxCouple


def exchange_current_density(
    couple: RedoxCouple,
    conc_ox_mol_m3: float,
    conc_red_mol_m3: float,
    temperature_k: float = 300.0,
) -> float:
    """Exchange current density j0 [A/m^2] at the given bulk composition."""
    if conc_ox_mol_m3 < 0.0 or conc_red_mol_m3 < 0.0:
        raise ConfigurationError("concentrations must be >= 0")
    alpha = couple.transfer_coefficient
    k0 = couple.rate_constant(temperature_k)
    return (
        couple.electrons
        * FARADAY
        * k0
        * conc_ox_mol_m3**alpha
        * conc_red_mol_m3 ** (1.0 - alpha)
    )


def current_density(
    couple: RedoxCouple,
    overpotential_v: float,
    conc_ox_bulk: float,
    conc_red_bulk: float,
    temperature_k: float = 300.0,
    conc_ox_surface: "float | None" = None,
    conc_red_surface: "float | None" = None,
) -> float:
    """Butler-Volmer current density j [A/m^2]; positive is anodic.

    Surface concentrations default to the bulk values (pure activation
    control). Pass film-model surface values to include mass transport.
    """
    if conc_ox_surface is None:
        conc_ox_surface = conc_ox_bulk
    if conc_red_surface is None:
        conc_red_surface = conc_red_bulk
    j0 = exchange_current_density(couple, conc_ox_bulk, conc_red_bulk, temperature_k)
    if j0 == 0.0:
        return 0.0
    alpha = couple.transfer_coefficient
    f_over_rt = couple.electrons * FARADAY / (GAS_CONSTANT * temperature_k)
    ratio_red = conc_red_surface / conc_red_bulk if conc_red_bulk > 0.0 else 0.0
    ratio_ox = conc_ox_surface / conc_ox_bulk if conc_ox_bulk > 0.0 else 0.0
    anodic = ratio_red * math.exp((1.0 - alpha) * f_over_rt * overpotential_v)
    cathodic = ratio_ox * math.exp(-alpha * f_over_rt * overpotential_v)
    return j0 * (anodic - cathodic)


def overpotential_for_current(
    couple: RedoxCouple,
    current_density_a_m2: float,
    conc_ox_bulk: float,
    conc_red_bulk: float,
    temperature_k: float = 300.0,
    conc_ox_surface: "float | None" = None,
    conc_red_surface: "float | None" = None,
    bracket_v: float = 2.5,
) -> float:
    """Invert Butler-Volmer: the overpotential [V] sustaining a given j.

    Positive ``current_density_a_m2`` (anodic) yields a positive
    overpotential. Uses the closed-form quadratic solution when
    alpha == 0.5, otherwise Brent's method on [-bracket_v, +bracket_v].
    Raises :class:`OperatingPointError` via the caller when surface
    concentrations make the requested current unreachable (the closed form
    then has no positive root).
    """
    if conc_ox_surface is None:
        conc_ox_surface = conc_ox_bulk
    if conc_red_surface is None:
        conc_red_surface = conc_red_bulk
    j0 = exchange_current_density(couple, conc_ox_bulk, conc_red_bulk, temperature_k)
    if j0 <= 0.0:
        raise ConfigurationError("exchange current density is zero; no reaction possible")
    alpha = couple.transfer_coefficient
    f_over_rt = couple.electrons * FARADAY / (GAS_CONSTANT * temperature_k)
    ratio_red = conc_red_surface / conc_red_bulk if conc_red_bulk > 0.0 else 0.0
    ratio_ox = conc_ox_surface / conc_ox_bulk if conc_ox_bulk > 0.0 else 0.0
    j_norm = current_density_a_m2 / j0

    if abs(alpha - 0.5) < 1e-12:
        # j/j0 = R_red * u - R_ox / u  with u = exp(F*eta / 2RT)
        # => R_red * u^2 - (j/j0) * u - R_ox = 0
        if ratio_red <= 0.0 and ratio_ox <= 0.0:
            raise ConfigurationError("both surface concentrations are zero")
        if ratio_red <= 0.0:
            # Pure cathodic branch: u = -R_ox / (j/j0), needs j < 0.
            if j_norm >= 0.0:
                raise ConvergenceError("anodic current with no reduced species at surface")
            u = -ratio_ox / j_norm
        else:
            discriminant = j_norm**2 + 4.0 * ratio_red * ratio_ox
            u = (j_norm + math.sqrt(discriminant)) / (2.0 * ratio_red)
        if u <= 0.0:
            raise ConvergenceError("Butler-Volmer inversion produced non-positive root")
        return 2.0 * math.log(u) / f_over_rt

    # Imported here: only the planar validation cell inverts Butler-Volmer,
    # and its couples are symmetric (the closed form above); the porous
    # march evaluates the case-study couples (alpha = 0.25) forward only.
    # So a cold command never pays for loading scipy.optimize.
    from scipy.optimize import brentq

    def residual(eta: float) -> float:
        return (
            current_density(
                couple,
                eta,
                conc_ox_bulk,
                conc_red_bulk,
                temperature_k,
                conc_ox_surface,
                conc_red_surface,
            )
            - current_density_a_m2
        )

    lo, hi = -bracket_v, bracket_v
    r_lo, r_hi = residual(lo), residual(hi)
    expansion = 0
    while r_lo * r_hi > 0.0 and expansion < 6:
        lo *= 2.0
        hi *= 2.0
        r_lo, r_hi = residual(lo), residual(hi)
        expansion += 1
    if r_lo * r_hi > 0.0:
        raise ConvergenceError(
            f"could not bracket overpotential for j={current_density_a_m2:.3g} A/m^2"
        )
    return float(brentq(residual, lo, hi, xtol=1e-12, rtol=1e-12))


def wall_reaction_coefficients(
    couple: RedoxCouple,
    electrode_potential_v: float,
    wall_mass_transfer_m_s: float,
    temperature_k: float = 300.0,
) -> "tuple[float, float]":
    """Linearised wall-flux coefficients for distributed (FV) solvers.

    In *absolute* form, Butler-Volmer at a wall held at potential E reads

        j = n*F*k0 * (C_red_s * e_a - C_ox_s * e_c),
        e_a = exp((1-alpha)*F*(E - E0)/RT),  e_c = exp(-alpha*F*(E - E0)/RT)

    (equivalent to the ratio form of eq. 6 and reducing to Nernst at j = 0).
    Closing the surface concentrations with the discrete film
    ``C_s = C_1 -+ j/(n*F*k_w)`` — where C_1 is the concentration in the
    wall-adjacent cell and k_w = D/(dy/2) its resolution-level transfer
    coefficient — makes j *linear* in the cell concentrations:

        j = a * C_red_1 - b * C_ox_1

    with the (a, b) this function returns [units A*m/mol]. The quasi-2D
    solver embeds ``a`` implicitly in its tridiagonal system, which keeps
    the reacting boundary cell unconditionally stable.
    """
    if wall_mass_transfer_m_s <= 0.0:
        raise ConfigurationError("wall mass-transfer coefficient must be > 0")
    n = couple.electrons
    alpha = couple.transfer_coefficient
    k0 = couple.rate_constant(temperature_k)
    f_over_rt = n * FARADAY / (GAS_CONSTANT * temperature_k)
    driving = electrode_potential_v - couple.standard_potential_at(temperature_k)
    exp_a = math.exp(min((1.0 - alpha) * f_over_rt * driving, 400.0))
    exp_c = math.exp(min(-alpha * f_over_rt * driving, 400.0))
    denominator = 1.0 + (k0 / wall_mass_transfer_m_s) * (exp_a + exp_c)
    prefactor = n * FARADAY * k0 / denominator
    return prefactor * exp_a, prefactor * exp_c
