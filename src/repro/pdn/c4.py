"""Conventional c4-bump power-delivery baseline.

The paper's motivation (issue (2) of its introduction): conventional
flip-chip MPSoCs deliver power through controlled-collapse (c4) microbumps,
and meeting IR-drop targets forces more and more bumps to be dedicated to
power/ground instead of I/O. This module quantifies that baseline so the
proposed microfluidic delivery can be compared against it:

- effective delivery resistance of a package with N power bumps,
- bumps required to meet a droop budget at a given current,
- I/O bumps freed when power delivery moves into the liquid network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class C4DeliveryBaseline:
    """Area-array c4 bump power delivery model.

    Parameters
    ----------
    total_bump_count:
        All bumps available on the die footprint (power + ground + I/O).
    power_bump_fraction:
        Fraction of bumps assigned to power+ground (2/3 is typical for
        high-power server parts, cf. the paper's ref [3]).
    bump_resistance_ohm:
        Series resistance of one bump including its package via share.
    package_plane_resistance_ohm:
        Spreading resistance of the package power planes, in series with
        the parallel bump bank.
    """

    total_bump_count: int
    power_bump_fraction: float = 2.0 / 3.0
    bump_resistance_ohm: float = 0.010
    package_plane_resistance_ohm: float = 50e-6

    def __post_init__(self) -> None:
        if self.total_bump_count < 1:
            raise ConfigurationError("total bump count must be >= 1")
        if not 0.0 < self.power_bump_fraction < 1.0:
            raise ConfigurationError("power bump fraction must be in (0, 1)")
        if self.bump_resistance_ohm <= 0.0:
            raise ConfigurationError("bump resistance must be > 0")
        if self.package_plane_resistance_ohm < 0.0:
            raise ConfigurationError("plane resistance must be >= 0")

    @property
    def power_bump_count(self) -> int:
        """Bumps carrying supply current (half of power+ground pairs)."""
        return max(1, int(self.total_bump_count * self.power_bump_fraction / 2.0))

    @property
    def delivery_resistance_ohm(self) -> float:
        """Effective supply-path resistance [Ohm].

        Supply and return bump banks in series, plus the package plane.
        """
        bank = self.bump_resistance_ohm / self.power_bump_count
        return 2.0 * bank + self.package_plane_resistance_ohm

    def droop_v(self, current_a: float) -> float:
        """IR droop across the delivery path at a load current [V]."""
        if current_a < 0.0:
            raise ConfigurationError("current must be >= 0")
        return self.delivery_resistance_ohm * current_a

    def bumps_needed_for(self, current_a: float, droop_budget_v: float) -> int:
        """Power+ground bumps required to meet a droop budget at a current."""
        if current_a <= 0.0 or droop_budget_v <= 0.0:
            raise ConfigurationError("current and droop budget must be > 0")
        usable = droop_budget_v / current_a - self.package_plane_resistance_ohm
        if usable <= 0.0:
            raise ConfigurationError(
                "droop budget below the package plane resistance floor"
            )
        per_bank = 2.0 * self.bump_resistance_ohm / usable
        return 2 * math.ceil(per_bank)

    def io_gain_if_offloaded(self, offloaded_current_a: float,
                             droop_budget_v: float) -> int:
        """Extra I/O bumps freed when part of the current moves off-package.

        This is the paper's connectivity argument: every ampere the
        microfluidic network supplies releases the bumps that would have
        carried it (at the same droop budget) back to the I/O pool.
        """
        return self.bumps_needed_for(offloaded_current_a, droop_budget_v)
