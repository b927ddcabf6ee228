"""Through-silicon-via (TSV) bundle model.

The flow-cell electrodes connect to the on-chip grid through TSVs (paper
Fig. 5). A :class:`TsvBundle` models N copper vias in parallel; the PDN
builder uses its series resistance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.materials.solids import COPPER


@dataclass(frozen=True)
class TsvBundle:
    """A bundle of identical cylindrical copper TSVs in parallel.

    Parameters
    ----------
    count:
        Number of vias in the bundle.
    radius_m:
        Via radius (5 um is typical for via-middle processes).
    length_m:
        Via length = thickness of silicon traversed.
    """

    count: int
    radius_m: float = 5e-6
    length_m: float = 100e-6

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError(f"count must be >= 1, got {self.count}")
        if self.radius_m <= 0.0 or self.length_m <= 0.0:
            raise ConfigurationError("radius and length must be > 0")

    @property
    def single_via_resistance_ohm(self) -> float:
        """Resistance of one via: rho * L / (pi * r^2) [Ohm]."""
        area = math.pi * self.radius_m**2
        return COPPER.electrical_resistivity * self.length_m / area

    @property
    def resistance_ohm(self) -> float:
        """Bundle resistance (parallel vias) [Ohm]."""
        return self.single_via_resistance_ohm / self.count
