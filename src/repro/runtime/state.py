"""Electrolyte recirculation state for the runtime engine.

The flow cells are a *flow battery*: the coolant stream carries the
reactants, and the deliverable energy is set by the reservoir volume and
the usable state-of-charge window
(:mod:`repro.flowcell.recirculation`). The runtime engine tracks that
storage side alongside the thermal state so long traces can run into
reactant depletion — the point where generation collapses even though the
cells themselves are fine.

:class:`ElectrolyteState` wraps a
:class:`~repro.flowcell.recirculation.RecirculationLoop` with the
clamped-draw semantics a time stepper needs: a step that would pull the
system below the usable SOC floor delivers only the remaining charge and
marks the state depleted (generation stops), instead of raising mid-run.
The runtime engine steps its lanes' states together as an
:class:`ElectrolyteStateArray` and writes the result back at the end of
a run; :meth:`ElectrolyteState.step` is the scalar reference the array
form is tested against.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.constants import FARADAY
from repro.errors import ConfigurationError, OperatingPointError
from repro.flowcell.recirculation import ElectrolyteReservoir, RecirculationLoop


def build_case_study_loop(volume_m3: float = 5e-4) -> RecirculationLoop:
    """The Table II electrolyte pair as a recirculation loop.

    ``volume_m3`` is the per-tank volume; the 0.5 L default sustains the
    array's ~6 A for on the order of an hour, so short control traces
    barely dent the SOC while endurance studies can shrink it to watch
    depletion happen.
    """
    from repro.casestudy.power7plus import build_array_spec

    spec = build_array_spec()
    return RecirculationLoop(
        anolyte_tank=ElectrolyteReservoir(spec.anolyte, volume_m3, is_fuel=True),
        catholyte_tank=ElectrolyteReservoir(
            spec.catholyte, volume_m3, is_fuel=False
        ),
    )


class ElectrolyteState:
    """Reservoir state-of-charge tracked along a runtime trace.

    Parameters
    ----------
    loop:
        The recirculation loop to track (defaults to the case-study loop
        from :func:`build_case_study_loop`).
    min_soc:
        Usable SOC floor in [0, 1): below it the electrolyte is treated
        as spent (concentration overpotentials would collapse the cell
        voltage well before the tanks are stoichiometrically empty).
    """

    def __init__(
        self,
        loop: "RecirculationLoop | None" = None,
        min_soc: float = 0.05,
    ) -> None:
        if not 0.0 <= min_soc < 1.0:
            raise ConfigurationError(
                f"min_soc must be in [0, 1), got {min_soc}"
            )
        self.loop = loop if loop is not None else build_case_study_loop()
        self.min_soc = float(min_soc)
        self.initial_soc = self.loop.state_of_charge
        self._depleted = self.initial_soc <= self.min_soc

    @property
    def state_of_charge(self) -> float:
        """System SOC (the weaker tank governs)."""
        return self.loop.state_of_charge

    @property
    def depleted(self) -> bool:
        """Whether the usable SOC window has been exhausted."""
        return self._depleted

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
        current actually sustained [A].

        A step that would cross the SOC floor delivers only the usable
        remainder and marks the state depleted; once depleted, the
        sustained current is zero.
        """
        # Written as ``not 0 < x < inf`` so NaN and inf fail the check too.
        if not 0.0 < dt_s < math.inf:
            raise ConfigurationError(f"dt_s must be finite and > 0, got {dt_s}")
        if current_a < 0.0:
            raise ConfigurationError(
                f"discharge current must be >= 0, got {current_a}"
            )
        if self._depleted or current_a == 0.0:
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
            self._depleted = True
        return drawn_c / dt_s


class ElectrolyteStateArray:
    """Reservoir state-of-charge for many runtime lanes, as arrays.

    Snapshots a batch of (optional) :class:`ElectrolyteState` lanes into
    per-tank concentration arrays and advances them all with one
    vectorized pass of the scalar :meth:`ElectrolyteState.step`
    arithmetic per control interval. Every expression — the usable-charge
    margin, the ``(1 - 1e-12)`` exact-supply cap (the PR 5 ulp fix, in
    array form), the drawn-current round trip through the loop's
    ``charge = current * dt`` — keeps the scalar's operation order, so
    lane trajectories are bit-identical to stepping each scalar state
    alone, depletion flags included.

    Lanes passed as ``None`` have no reservoir: their current passes
    through unchanged and their SOC reads nan. The scalar states are read
    at construction; afterwards the arrays are the source of truth until
    :meth:`write_back` copies them into the scalar states again.
    """

    #: Tank axis order: anolyte (fuel side), catholyte (oxidant side).
    _TANKS = ("anolyte_tank", "catholyte_tank")

    def __init__(self, states: "Sequence[ElectrolyteState | None]") -> None:
        if not states:
            raise ConfigurationError("need at least one reservoir lane")
        self._has_reservoir = np.array(
            [state is not None for state in states], dtype=bool
        )
        self._states = list(states)
        n_lanes = len(states)
        n_tanks = len(self._TANKS)
        # Placeholder tanks for reservoir-less lanes: one mole of a
        # half-charged single-electron couple in a unit volume. Never
        # drawn from (the has-reservoir mask gates every update); they
        # only keep the array expressions finite.
        self._conc_ox = np.full((n_tanks, n_lanes), 0.5)
        self._conc_red = np.full((n_tanks, n_lanes), 0.5)
        self._electrons_f = np.full((n_tanks, n_lanes), FARADAY)
        self._volumes_m3 = np.ones((n_tanks, n_lanes))
        self._is_fuel = np.array([[True], [False]]).repeat(n_lanes, axis=1)
        self._min_socs = np.zeros(n_lanes)
        self._depleted = np.zeros(n_lanes, dtype=bool)
        for lane, state in enumerate(states):
            if state is None:
                continue
            self._min_socs[lane] = state.min_soc
            self._depleted[lane] = state.depleted
            for t, name in enumerate(self._TANKS):
                tank = getattr(state.loop, name)
                self._conc_ox[t, lane] = tank.conc_ox
                self._conc_red[t, lane] = tank.conc_red
                self._electrons_f[t, lane] = (
                    tank.electrolyte.couple.electrons * FARADAY
                )
                self._volumes_m3[t, lane] = tank.volume_m3

    @property
    def depleted(self) -> np.ndarray:
        """Per-lane boolean: which lanes exhausted their SOC window."""
        return self._depleted.copy()

    def write_back(self) -> None:
        """Copy every lane's tank concentrations and depleted flag back to
        the :class:`ElectrolyteState` it was built from."""
        for lane, state in enumerate(self._states):
            if state is None:
                continue
            for t, name in enumerate(self._TANKS):
                getattr(state.loop, name).set_concentrations(
                    self._conc_ox[t, lane], self._conc_red[t, lane]
                )
            state._depleted = bool(self._depleted[lane])

    def _tank_socs(self) -> np.ndarray:
        """(n_tanks, n_lanes) charged-species fractions."""
        charged = np.where(self._is_fuel, self._conc_red, self._conc_ox)
        return charged / (self._conc_ox + self._conc_red)

    @property
    def state_of_charge(self) -> np.ndarray:
        """Per-lane system SOC (weaker tank governs; nan without tanks)."""
        socs = self._tank_socs().min(axis=0)
        return np.where(self._has_reservoir, socs, np.nan)

    def usable_charge_c(self) -> np.ndarray:
        """Per-lane charge deliverable before the SOC floor [C]."""
        totals = self._conc_ox + self._conc_red
        margins = np.maximum(0.0, self._tank_socs() - self._min_socs)
        n_f_v = self._electrons_f * self._volumes_m3
        return (margins * totals * n_f_v).min(axis=0)

    def step(self, currents_a: np.ndarray, dt_s: float) -> np.ndarray:
        """Advance every lane one step; returns the sustained currents [A].

        Reservoir lanes clamp to the usable charge and flip depleted when
        the request crosses the floor (after which they sustain zero);
        reservoir-less lanes pass their current through unchanged.
        """
        if not 0.0 < dt_s < math.inf:
            raise ConfigurationError(f"dt_s must be finite and > 0, got {dt_s}")
        currents_a = np.asarray(currents_a, dtype=float)
        if np.any(self._has_reservoir & (currents_a < 0.0)):
            raise ConfigurationError("discharge currents must be >= 0")
        active = self._has_reservoir & ~self._depleted & (currents_a > 0.0)
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
        # The scalar path hands the loop a *current* and the loop turns
        # it back into a charge; replay that round trip so the terminal
        # draw rounds identically.
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
        return np.where(
            self._has_reservoir, np.where(active, drawn_a, 0.0), currents_a
        )
