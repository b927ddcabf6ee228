"""Electrolyte recirculation state for the runtime engine.

The flow cells are a *flow battery*: the coolant stream carries the
reactants, and the deliverable energy is set by the reservoir volume and
the usable state-of-charge window
(:mod:`repro.flowcell.recirculation`). The runtime engine tracks that
storage side alongside the thermal state so long traces can run into
reactant depletion — the point where generation collapses even though the
cells themselves are fine.

:class:`ElectrolyteStateArray` gives every runtime lane a fresh
case-study loop (:func:`build_case_study_loop`) and steps all lanes'
tanks together with clamped-draw semantics: a step that would pull a
lane below the usable SOC floor :data:`MIN_SOC` delivers only the
remaining charge and marks the lane depleted (generation stops), instead
of raising mid-run. :data:`TANK_VOLUME_M3` and :data:`MIN_SOC` are read
at call time, so a probe varies them with ``monkeypatch.setattr`` on this
module.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import FARADAY
from repro.errors import ConfigurationError, OperatingPointError
from repro.flowcell.recirculation import ElectrolyteReservoir, RecirculationLoop

#: Per-tank electrolyte volume [m^3]: the 0.5 L tanks sustain the array's
#: ~6 A for on the order of an hour, so short control traces barely dent
#: the SOC (an endurance probe shrinks it to watch depletion happen).
TANK_VOLUME_M3 = 5e-4

#: Usable SOC floor in [0, 1): below it the electrolyte is treated as
#: spent (concentration overpotentials would collapse the cell voltage
#: well before the tanks are stoichiometrically empty).
MIN_SOC = 0.05


def build_case_study_loop() -> RecirculationLoop:
    """The Table II electrolyte pair as a recirculation loop of two
    :data:`TANK_VOLUME_M3` tanks."""
    from repro.casestudy.power7plus import build_array_spec

    spec = build_array_spec()
    return RecirculationLoop(
        anolyte_tank=ElectrolyteReservoir(
            spec.anolyte, TANK_VOLUME_M3, is_fuel=True
        ),
        catholyte_tank=ElectrolyteReservoir(
            spec.catholyte, TANK_VOLUME_M3, is_fuel=False
        ),
    )


class ElectrolyteStateArray:
    """Reservoir state-of-charge for many runtime lanes, as arrays.

    Builds one fresh :func:`build_case_study_loop` per lane into per-tank
    concentration arrays and advances them all with one vectorized pass
    per control interval. Each lane's arithmetic is the clamped draw of a
    single :class:`~repro.flowcell.recirculation.RecirculationLoop`: the
    usable-charge margin above :data:`MIN_SOC`, the ``(1 - 1e-12)``
    exact-supply cap that keeps a terminal draw inside both tanks, and
    the drawn-current round trip through the loop's
    ``charge = current * dt``; no reduction runs across lanes, so a lane's
    trajectory does not depend on its batch.
    """

    def __init__(self, n_lanes: int) -> None:
        if n_lanes < 1:
            raise ConfigurationError("need at least one reservoir lane")
        loop = build_case_study_loop()
        # Tank axis order: anolyte (fuel side), catholyte (oxidant side).
        tanks = (loop.anolyte_tank, loop.catholyte_tank)

        def per_tank(values) -> np.ndarray:
            return np.array(values, dtype=float)[:, None].repeat(
                n_lanes, axis=1
            )

        self._conc_ox = per_tank([tank.conc_ox for tank in tanks])
        self._conc_red = per_tank([tank.conc_red for tank in tanks])
        self._electrons_f = per_tank([
            tank.electrolyte.couple.electrons * FARADAY for tank in tanks
        ])
        self._volumes_m3 = per_tank([tank.volume_m3 for tank in tanks])
        self._is_fuel = np.array([[True], [False]]).repeat(n_lanes, axis=1)
        self._min_soc = MIN_SOC
        self._depleted = np.full(n_lanes, loop.state_of_charge <= MIN_SOC)

    @property
    def depleted(self) -> np.ndarray:
        """Per-lane boolean: which lanes exhausted their SOC window."""
        return self._depleted.copy()

    def _tank_socs(self) -> np.ndarray:
        """(n_tanks, n_lanes) charged-species fractions."""
        charged = np.where(self._is_fuel, self._conc_red, self._conc_ox)
        return charged / (self._conc_ox + self._conc_red)

    @property
    def state_of_charge(self) -> np.ndarray:
        """Per-lane system SOC (the weaker tank governs)."""
        return self._tank_socs().min(axis=0)

    def usable_charge_c(self) -> np.ndarray:
        """Per-lane charge deliverable before the SOC floor [C]."""
        totals = self._conc_ox + self._conc_red
        margins = np.maximum(0.0, self._tank_socs() - self._min_soc)
        n_f_v = self._electrons_f * self._volumes_m3
        return (margins * totals * n_f_v).min(axis=0)

    def step(self, currents_a: np.ndarray, dt_s: float) -> np.ndarray:
        """Advance every lane one step; returns the sustained currents [A].

        Lanes clamp to the usable charge and flip depleted when the
        request crosses the floor, after which they sustain zero.
        """
        if not 0.0 < dt_s < math.inf:
            raise ConfigurationError(f"dt_s must be finite and > 0, got {dt_s}")
        currents_a = np.asarray(currents_a, dtype=float)
        # Written as ``not 0 <= x < inf`` so NaN and inf fail the check
        # too: a NaN draw would otherwise sustain zero without a word.
        if not np.all((0.0 <= currents_a) & (currents_a < math.inf)):
            raise ConfigurationError(
                f"currents_a must be finite and >= 0 A, got {currents_a}"
            )
        active = ~self._depleted & (currents_a > 0.0)
        requested_c = currents_a * dt_s
        usable_c = self.usable_charge_c()
        charged = np.where(self._is_fuel, self._conc_red, self._conc_ox)
        deliverable_c = (
            self._electrons_f * charged * self._volumes_m3
        ).min(axis=0)
        exact_supply_c = (1.0 - 1e-12) * deliverable_c
        drawn_c = np.minimum(
            np.minimum(requested_c, usable_c), exact_supply_c
        )
        # A loop is handed a *current* and turns it back into a charge;
        # replay that round trip so the terminal draw rounds identically.
        drawn_a = drawn_c / dt_s
        charges_c = drawn_a * dt_s
        apply = active & (drawn_c > 0.0)
        deltas = np.where(
            apply, charges_c / (self._electrons_f * self._volumes_m3), 0.0
        )
        signs = np.where(self._is_fuel, -1.0, 1.0)
        new_red = self._conc_red + signs * deltas
        new_ox = self._conc_ox - signs * deltas
        if np.any(apply & ((new_red < 0.0) | (new_ox < 0.0))):
            raise OperatingPointError(
                "reservoir exhausted: a lane's drawn charge exceeds the "
                "charge available in its tanks"
            )
        self._conc_red = np.where(apply, new_red, self._conc_red)
        self._conc_ox = np.where(apply, new_ox, self._conc_ox)
        self._depleted |= active & (requested_c >= usable_c)
        return np.where(active, drawn_a, 0.0)
