"""System-level metrics: energy balance and bright-silicon utilization.

The paper's headline energy claim is that the flow cells *generate more
power than the pump consumes* (6 W generated vs 4.4 W pumping at the
nominal point); :class:`EnergyBalance` captures that comparison.

The dark-silicon motivation is quantified by
:func:`bright_silicon_utilization`: the largest fraction of full-load power
a cooling solution can sustain without exceeding a junction-temperature
limit. The proposed system reaches utilization 1.0 ("bright silicon") with
large margin; the conventional baseline of
:mod:`repro.core.baselines` cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError

#: Standard junction-temperature limit for server-class silicon [degC].
DEFAULT_TEMPERATURE_LIMIT_C = 85.0


@dataclass(frozen=True)
class EnergyBalance:
    """Generated electrical power vs the power spent moving the fluid."""

    generated_w: float
    pumping_w: float

    def __post_init__(self) -> None:
        if self.generated_w < 0.0 or self.pumping_w < 0.0:
            raise ConfigurationError("powers must be >= 0")

    @property
    def net_w(self) -> float:
        """Generated minus pumping power [W]; positive means net gain."""
        return self.generated_w - self.pumping_w

    @property
    def is_net_positive(self) -> bool:
        """The paper's Section III-B claim at the nominal operating point."""
        return self.net_w > 0.0


def bright_silicon_utilization(
    peak_temperature_at: Callable[[float], float],
    temperature_limit_c: float = DEFAULT_TEMPERATURE_LIMIT_C,
    tolerance: float = 0.005,
    max_iterations: int = 40,
) -> float:
    """Largest utilization u in [0, 1] with peak temperature within limit.

    ``peak_temperature_at(u)`` must return the steady-state peak junction
    temperature [degC] when every block runs at fraction ``u`` of its
    full-load power. Peak temperature is monotone in u, so bisection
    applies. Returns 1.0 when even full load stays below the limit (the
    bright-silicon case) and 0.0 when the idle chip already violates it.
    """
    if not 0.0 < tolerance < 1.0:
        raise ConfigurationError("tolerance must be in (0, 1)")
    if peak_temperature_at(1.0) <= temperature_limit_c:
        return 1.0
    if peak_temperature_at(0.0) > temperature_limit_c:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(max_iterations):
        if hi - lo <= tolerance:
            break
        mid = 0.5 * (lo + hi)
        if peak_temperature_at(mid) <= temperature_limit_c:
            lo = mid
        else:
            hi = mid
    return lo
