"""Independent scalar reservoir oracle for the runtime engine.

The runtime engine steps every lane's tanks together as an
:class:`~repro.runtime.state.ElectrolyteStateArray`. This oracle steps one
:class:`~repro.flowcell.recirculation.RecirculationLoop` at a time through
the loop's own :meth:`~repro.flowcell.recirculation.RecirculationLoop.step`
with the same clamped-draw semantics: a step that would pull the system
below the usable SOC floor delivers only the remaining charge and marks
the state depleted, after which it sustains zero. The array form keeps
its operation order, so a lane matches this oracle bit for bit.
"""

import math

from repro.constants import FARADAY
from repro.errors import ConfigurationError
from repro.flowcell.recirculation import ElectrolyteReservoir, RecirculationLoop
from repro.runtime import state


def tank_loop(volume_m3: float) -> RecirculationLoop:
    """The case-study electrolyte pair in two tanks of ``volume_m3``."""
    from repro.casestudy.power7plus import build_array_spec

    spec = build_array_spec()
    return RecirculationLoop(
        anolyte_tank=ElectrolyteReservoir(spec.anolyte, volume_m3, is_fuel=True),
        catholyte_tank=ElectrolyteReservoir(
            spec.catholyte, volume_m3, is_fuel=False
        ),
    )


class ElectrolyteState:
    """Reservoir state-of-charge of one loop, stepped as scalars.

    Parameters
    ----------
    loop:
        The recirculation loop to track (defaults to the engine's
        :func:`~repro.runtime.state.build_case_study_loop`).
    min_soc:
        Usable SOC floor in [0, 1) (defaults to the engine's
        :data:`~repro.runtime.state.MIN_SOC`).
    """

    def __init__(
        self,
        loop: "RecirculationLoop | None" = None,
        min_soc: "float | None" = None,
    ) -> None:
        if min_soc is None:
            min_soc = state.MIN_SOC
        if not 0.0 <= min_soc < 1.0:
            raise ConfigurationError(
                f"min_soc must be in [0, 1), got {min_soc}"
            )
        self.loop = loop if loop is not None else state.build_case_study_loop()
        self.min_soc = float(min_soc)
        self.initial_soc = self.loop.state_of_charge
        self.depleted = self.initial_soc <= self.min_soc

    @property
    def state_of_charge(self) -> float:
        """System SOC (the weaker tank governs)."""
        return self.loop.state_of_charge

    @property
    def fuel_utilization(self) -> float:
        """Fraction of the initially available charge drawn so far."""
        window = self.initial_soc - self.min_soc
        if window <= 0.0:
            return 1.0
        used = self.initial_soc - self.state_of_charge
        return min(1.0, max(0.0, used / window))

    def usable_charge_c(self) -> float:
        """Charge deliverable before the SOC floor is reached [C]."""
        usable = float("inf")
        for tank in (self.loop.anolyte_tank, self.loop.catholyte_tank):
            total = tank.conc_ox + tank.conc_red
            margin = max(0.0, tank.state_of_charge - self.min_soc)
            n_f_v = tank.electrolyte.couple.electrons * FARADAY * tank.volume_m3
            usable = min(usable, margin * total * n_f_v)
        return usable

    def step(self, current_a: float, dt_s: float) -> float:
        """Advance by one step at a discharge current; returns the
        current actually sustained [A]."""
        if not 0.0 < dt_s < math.inf:
            raise ConfigurationError(f"dt_s must be finite and > 0, got {dt_s}")
        if current_a < 0.0:
            raise ConfigurationError(
                f"discharge current must be >= 0, got {current_a}"
            )
        if self.depleted or current_a == 0.0:
            return 0.0
        requested_c = current_a * dt_s
        usable_c = self.usable_charge_c()
        # usable_charge_c derives from the SOC *ratio*, so at a zero SOC
        # floor round-off can leave it an ulp above what the tanks can
        # exactly supply — a draw the reservoirs would refuse after the
        # first tank already converted species. Cap the draw a whisker
        # below the exact remainder so the terminal step always lands
        # inside both tanks.
        exact_supply_c = (1.0 - 1e-12) * self.loop.deliverable_charge_c
        drawn_c = min(requested_c, usable_c, exact_supply_c)
        if drawn_c > 0.0:
            self.loop.step(drawn_c / dt_s, dt_s)
        if requested_c >= usable_c:
            self.depleted = True
        return drawn_c / dt_s
