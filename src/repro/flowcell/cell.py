"""Shared flow-cell definitions.

:class:`ColaminarCellSpec` bundles what every cell model needs: the channel
geometry, the two electrolyte streams, the total channel flow rate, lumped
series resistance and an OCV calibration term.

:class:`ElectrodeCharacteristic` is the common currency between cell models
and the polarization assembler: a sampled, monotone map from electrode
potential to electrode current. Models that cannot express V(I) in closed
form (the FV and porous solvers) produce one characteristic per electrode by
sweeping potential; :func:`assemble_polarization` then combines the two
characteristics with the ohmic term into a full-cell
:class:`~repro.electrochem.polarization.PolarizationCurve`:

    V(I) = E_pos(I) - E_neg(I) - I * R_ohm + ocv_adjustment
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.electrochem.polarization import PolarizationCurve
from repro.errors import ConfigurationError
from repro.geometry.channel import RectangularChannel
from repro.materials.electrolyte import Electrolyte


@dataclass(frozen=True)
class ColaminarCellSpec:
    """Static description of one co-laminar flow-cell channel.

    Parameters
    ----------
    channel:
        Channel geometry; the fuel and oxidant streams each occupy half the
        width, with the anode at y=0 and the cathode at y=width.
    anolyte:
        Fuel stream (negative electrode; V2+-rich during discharge).
    catholyte:
        Oxidant stream (positive electrode; VO2+-rich during discharge).
    volumetric_flow_m3_s:
        Total channel flow rate (both streams together) [m^3/s].
    electronic_resistance_ohm:
        Lumped electrode/contact/current-collector resistance [Ohm].
    ocv_adjustment_v:
        Additive calibration of the cell voltage [V]. Experimental
        membraneless cells show OCVs ~0.1 V below the Nernst value due to
        mixed potentials from reactant crossover at the electrode edges;
        the validation setup uses this term (documented in DESIGN.md).
    """

    channel: RectangularChannel
    anolyte: Electrolyte
    catholyte: Electrolyte
    volumetric_flow_m3_s: float
    electronic_resistance_ohm: float = 0.0
    ocv_adjustment_v: float = 0.0

    def __post_init__(self) -> None:
        # Written as ``not 0 < x < inf`` so NaN and inf fail the checks too.
        if not 0.0 < self.volumetric_flow_m3_s < math.inf:
            raise ConfigurationError(
                "volumetric_flow_m3_s must be finite and > 0, got "
                f"{self.volumetric_flow_m3_s}"
            )
        if not 0.0 <= self.electronic_resistance_ohm < math.inf:
            raise ConfigurationError(
                "electronic_resistance_ohm must be finite and >= 0, got "
                f"{self.electronic_resistance_ohm}"
            )

    @property
    def stream_flow_m3_s(self) -> float:
        """Flow rate of each individual stream (half the total) [m^3/s]."""
        return self.volumetric_flow_m3_s / 2.0


@dataclass(frozen=True)
class ElectrodeCharacteristic:
    """Sampled monotone electrode current vs electrode potential.

    ``current_a[i]`` is the total electrode current (anodic positive) when
    the electrode sits at ``potential_v[i]`` [V vs SHE]. The samples must be
    jointly increasing; both solvers generate them that way by construction.
    """

    potential_v: np.ndarray
    current_a: np.ndarray

    def __init__(self, potential_v, current_a) -> None:
        potential = np.asarray(potential_v, dtype=float)
        current = np.asarray(current_a, dtype=float)
        if potential.ndim != 1 or potential.size != current.size or potential.size < 2:
            raise ConfigurationError("potential/current must be equal-length 1-D, size >= 2")
        if np.any(np.diff(potential) <= 0.0):
            raise ConfigurationError("potential samples must be strictly increasing")
        if np.any(np.diff(current) < -1e-12):
            raise ConfigurationError("electrode current must be non-decreasing in potential")
        object.__setattr__(self, "potential_v", potential)
        object.__setattr__(self, "current_a", current)

    @property
    def min_current_a(self) -> float:
        return float(self.current_a[0])

    @property
    def max_current_a(self) -> float:
        return float(self.current_a[-1])

    def potential_at_current(self, current_a):
        """Inverse interpolation E(I); raises outside the sampled range.

        Accepts one current (returns a float) or an array of currents
        (returns an array of the same shape). Requests within a tiny
        tolerance of the sampled ends are clamped: the zero-overpotential
        sample of a marched characteristic carries O(1e-19) numerical
        current, and callers legitimately ask for an exact 0.
        """
        currents = np.asarray(current_a, dtype=float)
        low, high = self.min_current_a, self.max_current_a
        tolerance = 1e-9 * (abs(high) + abs(low)) + 1e-15
        outside = (currents < low - tolerance) | (currents > high + tolerance)
        if np.any(outside):
            offending = float(currents[outside].flat[0])
            raise ConfigurationError(
                f"current {offending:.4g} A outside sampled electrode range "
                f"[{low:.4g}, {high:.4g}] A"
            )
        potentials = np.interp(
            np.clip(currents, low, high), self.current_a, self.potential_v
        )
        return float(potentials) if currents.ndim == 0 else potentials


def assemble_polarization(
    negative: ElectrodeCharacteristic,
    positive: ElectrodeCharacteristic,
    resistance_ohm: float,
    ocv_adjustment_v: float = 0.0,
    n_points: int = 40,
    max_utilization: float = 0.97,
    label: str = "",
) -> PolarizationCurve:
    """Combine two electrode characteristics into a full-cell curve.

    During discharge a cell current I flows anodically (+I) through the
    negative electrode and cathodically (-I) through the positive one, so

        V(I) = E_pos(-I) - E_neg(+I) - I*R + ocv_adjustment.

    The current grid spans zero to ``max_utilization`` times the smaller of
    the two electrodes' reachable currents, with quadratic clustering near
    the upper end where the curve bends into the transport limit. Points
    where the voltage would go negative are dropped (the paper's plots stop
    at V > 0 as well).
    """
    if not 0.0 <= resistance_ohm < math.inf:
        raise ConfigurationError(
            f"resistance_ohm must be finite and >= 0, got {resistance_ohm}"
        )
    if n_points < 2:
        raise ConfigurationError(f"n_points must be >= 2, got {n_points}")
    if not 0.0 < max_utilization < 1.0:
        raise ConfigurationError("max_utilization must be in (0, 1)")
    i_max = max_utilization * min(negative.max_current_a, -positive.min_current_a)
    if i_max <= 0.0:
        raise ConfigurationError(
            "electrode characteristics do not overlap in a discharge regime"
        )
    s = np.linspace(0.0, 1.0, n_points)
    currents = i_max * (1.0 - (1.0 - s) ** 2)  # cluster samples near i_max
    e_neg = negative.potential_at_current(+currents)
    e_pos = positive.potential_at_current(-currents)
    voltages = e_pos - e_neg - currents * resistance_ohm + ocv_adjustment_v
    keep = voltages > 0.0
    if int(keep.sum()) < 2:
        raise ConfigurationError("cell produces no positive-voltage operating range")
    # Voltage must be monotone non-increasing; interpolation artefacts of
    # the electrode tables can produce tiny (<1e-9 V) upticks — flatten them.
    voltage_kept = np.minimum.accumulate(voltages[keep])
    return PolarizationCurve(currents[keep], voltage_kept, label=label)
