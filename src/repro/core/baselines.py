"""Conventional MPSoC baseline: air cooling + c4-bump power delivery.

The paper motivates its proposal against the prevailing paradigm: heat
leaves through a heat-sink stack on the die back and power enters through
c4 microbumps. This module provides that comparator with a standard
compact model:

    T_peak = T_ambient + P_total * R_heatsink + q_peak_local * r_spread

where ``R_heatsink`` is the lumped junction-to-ambient resistance of the
TIM + spreader + air heat sink and ``r_spread`` an area-specific resistance
capturing the hot-spot penalty of the conduction path under the hottest
block. The delivery side reuses :class:`repro.pdn.c4.C4DeliveryBaseline`.

With the default server-class values the POWER7+ at 26.7 W/cm2 average
(151 W, ~50 W/cm2 core hot spots) lands in the high-90s C — above the 85 C
limit — so the baseline must shed load (dark silicon), while the
microfluidic system holds 41 C at full load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.metrics import DEFAULT_TEMPERATURE_LIMIT_C
from repro.errors import ConfigurationError
from repro.pdn.c4 import C4DeliveryBaseline


@dataclass(frozen=True)
class ConventionalBaseline:
    """Air-cooled, bump-powered MPSoC comparator.

    Parameters
    ----------
    ambient_c:
        Air temperature at the heat-sink inlet [degC].
    heatsink_resistance_k_w:
        Lumped junction-to-ambient resistance [K/W] (0.30 K/W models a
        good server air sink + TIM stack).
    spreading_resistance_k_cm2_w:
        Area-specific hot-spot resistance [K*cm^2/W] of the die/TIM/
        spreader conduction path.
    full_load_power_w:
        Total chip power at utilization 1.
    peak_local_density_w_cm2:
        Hottest-block areal density at utilization 1.
    delivery:
        c4 bump delivery model (pins, resistance).
    """

    ambient_c: float = 30.0
    heatsink_resistance_k_w: float = 0.30
    spreading_resistance_k_cm2_w: float = 0.35
    full_load_power_w: float = 151.3
    peak_local_density_w_cm2: float = 51.3
    delivery: C4DeliveryBaseline = field(
        default_factory=lambda: C4DeliveryBaseline(total_bump_count=5000)
    )

    def __post_init__(self) -> None:
        if self.heatsink_resistance_k_w <= 0.0:
            raise ConfigurationError("heatsink resistance must be > 0")
        if self.spreading_resistance_k_cm2_w < 0.0:
            raise ConfigurationError("spreading resistance must be >= 0")
        if self.full_load_power_w <= 0.0 or self.peak_local_density_w_cm2 <= 0.0:
            raise ConfigurationError("powers must be > 0")

    def peak_temperature_c(self, utilization: float = 1.0) -> float:
        """Peak junction temperature [degC] at a load fraction."""
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError("utilization must be in [0, 1]")
        bulk = self.full_load_power_w * utilization * self.heatsink_resistance_k_w
        spot = (
            self.peak_local_density_w_cm2
            * utilization
            * self.spreading_resistance_k_cm2_w
        )
        return self.ambient_c + bulk + spot

    def max_utilization(
        self, temperature_limit_c: float = DEFAULT_TEMPERATURE_LIMIT_C
    ) -> float:
        """Thermally sustainable load fraction (closed form, linear model)."""
        full_rise = self.peak_temperature_c(1.0) - self.ambient_c
        budget = temperature_limit_c - self.ambient_c
        if budget <= 0.0:
            return 0.0
        return min(1.0, budget / full_rise)

    def supply_droop_v(self, current_a: float) -> float:
        """IR droop of the bump delivery path at a load current [V]."""
        return self.delivery.droop_v(current_a)
