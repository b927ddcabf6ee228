"""Electrolyte recirculation and reservoir state-of-charge tracking.

Redox flow cells store energy in the *electrolyte*, not the electrodes
(paper Section II): the deliverable energy is set by the reservoir volume
and the usable state-of-charge (SOC) window, independently of the cell
stack's power rating. This module models that storage side, which the
paper's system sketch (Fig. 1) implies but does not evaluate:

- :class:`ElectrolyteReservoir` — a well-mixed tank whose composition
  drifts as charge is drawn (or recharged);
- :class:`RecirculationLoop` — both reservoirs plus the on-chip array,
  stepped in time under a current draw; exposes the endurance questions a
  system designer asks (runtime at the cache load, tank volume for a
  target runtime).

The well-mixed assumption is the standard flow-battery system model: the
loop turnover time (seconds) is far below the discharge time scale (hours).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.constants import FARADAY
from repro.errors import ConfigurationError, OperatingPointError
from repro.materials.electrolyte import Electrolyte


@dataclass
class ElectrolyteReservoir:
    """A well-mixed electrolyte tank.

    Parameters
    ----------
    electrolyte:
        Initial composition (the recipe is copied; the reservoir mutates
        its own concentrations as charge flows).
    volume_m3:
        Tank volume.
    is_fuel:
        True for the anolyte tank (discharge consumes the *reduced* form),
        False for the catholyte tank (discharge consumes the *oxidised*
        form).
    """

    electrolyte: Electrolyte
    volume_m3: float
    is_fuel: bool

    def __post_init__(self) -> None:
        if not 0.0 < self.volume_m3 < math.inf:
            raise ConfigurationError(
                f"volume_m3 must be finite and > 0, got {self.volume_m3}"
            )
        self._conc_ox = self.electrolyte.conc_ox
        self._conc_red = self.electrolyte.conc_red

    @property
    def conc_ox(self) -> float:
        """Current oxidised-species concentration [mol/m^3]."""
        return self._conc_ox

    @property
    def conc_red(self) -> float:
        """Current reduced-species concentration [mol/m^3]."""
        return self._conc_red

    @property
    def state_of_charge(self) -> float:
        """Charged-species fraction in [0, 1]."""
        total = self._conc_ox + self._conc_red
        charged = self._conc_red if self.is_fuel else self._conc_ox
        return charged / total

    @property
    def total_charge_c(self) -> float:
        """Charge stored in the *charged* species right now [C]."""
        charged = self._conc_red if self.is_fuel else self._conc_ox
        return self.electrolyte.couple.electrons * FARADAY * charged * self.volume_m3

    def current_composition(self) -> Electrolyte:
        """An :class:`Electrolyte` snapshot at the present composition."""
        return self.electrolyte.with_concentrations(self._conc_ox, self._conc_red)

    def draw_charge(self, charge_c: float) -> None:
        """Convert species for a (dis)charge of ``charge_c`` coulombs.

        Positive charge discharges the tank (consumes the charged form);
        negative charge recharges it. Raises
        :class:`OperatingPointError` if the tank cannot supply the request.
        """
        n_f_v = self.electrolyte.couple.electrons * FARADAY * self.volume_m3
        delta_c = charge_c / n_f_v  # concentration converted [mol/m^3]
        if self.is_fuel:
            new_red = self._conc_red - delta_c
            new_ox = self._conc_ox + delta_c
        else:
            new_ox = self._conc_ox - delta_c
            new_red = self._conc_red + delta_c
        if new_red < 0.0 or new_ox < 0.0:
            raise OperatingPointError(
                f"reservoir exhausted: requested {charge_c:.4g} C exceeds the "
                f"{self.total_charge_c:.4g} C available"
            )
        self._conc_red, self._conc_ox = new_red, new_ox


@dataclass
class RecirculationLoop:
    """Closed electrolyte loop: two reservoirs feeding the on-chip array.

    Parameters
    ----------
    anolyte_tank / catholyte_tank:
        The two reservoirs (fuel and oxidant sides).
    """

    anolyte_tank: ElectrolyteReservoir
    catholyte_tank: ElectrolyteReservoir

    def __post_init__(self) -> None:
        if not self.anolyte_tank.is_fuel or self.catholyte_tank.is_fuel:
            raise ConfigurationError(
                "anolyte tank must be the fuel side and catholyte tank the "
                "oxidant side"
            )

    @property
    def state_of_charge(self) -> float:
        """System SOC: the weaker of the two tanks governs."""
        return min(
            self.anolyte_tank.state_of_charge,
            self.catholyte_tank.state_of_charge,
        )

    @property
    def deliverable_charge_c(self) -> float:
        """Charge available before either tank empties [C]."""
        return min(
            self.anolyte_tank.total_charge_c, self.catholyte_tank.total_charge_c
        )

    def step(self, current_a: float, dt_s: float) -> None:
        """Advance the loop by dt under a constant terminal current."""
        if not 0.0 < dt_s < math.inf:
            raise ConfigurationError(
                f"dt_s must be finite and > 0, got {dt_s}"
            )
        charge = current_a * dt_s
        self.anolyte_tank.draw_charge(charge)
        self.catholyte_tank.draw_charge(charge)

    def runtime_to_soc_s(self, current_a: float, min_soc: float = 0.2) -> float:
        """Time [s] until the system SOC hits ``min_soc`` at a current.

        Closed form — SOC falls linearly under constant current.
        """
        if current_a <= 0.0:
            raise ConfigurationError("current must be > 0")
        if not 0.0 <= min_soc < 1.0:
            raise ConfigurationError("min_soc must be in [0, 1)")
        usable = 0.0
        for tank in (self.anolyte_tank, self.catholyte_tank):
            total = tank._conc_ox + tank._conc_red
            margin = tank.state_of_charge - min_soc
            n_f_v = tank.electrolyte.couple.electrons * FARADAY * tank.volume_m3
            charge = max(0.0, margin) * total * n_f_v
            usable = charge if usable == 0.0 else min(usable, charge)
        return usable / current_a


def tank_volume_for_runtime(
    current_a: float,
    runtime_s: float,
    electrolyte: Electrolyte,
    as_fuel: bool,
    usable_soc_window: float = 0.8,
) -> float:
    """Reservoir volume [m^3] needed to sustain a current for a runtime.

    The flow-battery sizing rule: volume = I*t / (n*F*C_total*dSOC). This
    is the "independent dimensioning of energy capacity and power" the
    paper highlights as the technology's defining property.
    """
    if current_a <= 0.0 or runtime_s <= 0.0:
        raise ConfigurationError("current and runtime must be > 0")
    if not 0.0 < usable_soc_window <= 1.0:
        raise ConfigurationError("usable SOC window must be in (0, 1]")
    total = electrolyte.total_vanadium
    n_f = electrolyte.couple.electrons * FARADAY
    return current_a * runtime_s / (n_f * total * usable_soc_window)
