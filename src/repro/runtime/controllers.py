"""Closed-loop flow control and DVFS-style thermal throttling.

The paper modulates one coolant stream at runtime so it meets the chip's
cooling *and* power-delivery demands as workload varies. This module holds
the decision-making side of that loop, in two halves:

- the *policies* — plain parameter records with constructor validation:

  - :class:`FixedFlow` — the open-loop baseline: a constant flow command
    (the paper's nominal 676 ml/min operating point as a controller);
  - :class:`PIDFlowController` — tracks the :data:`TARGET_PEAK_C`
    peak-junction-temperature setpoint below the 85 degC limit by
    modulating total flow. Because pumping power grows ~quadratically
    with flow while generation is nearly flat, holding the chip *just*
    cool enough is also the net-energy-optimal policy (bench A15); the PI
    law turns that static observation into a runtime one;

- the *control law* — :class:`VectorFlowControllers` packs a batch of
  policies into numpy lane arrays and holds the only implementation of
  the PI update; :class:`VectorThrottleGovernors` is the safety net a
  DVFS governor provides on every lane: when the thermal limit is
  violated, activity is scaled down with hysteresis until the chip
  recovers. A single scenario is a one-lane batch.

The setpoint, actuator range, trip and release temperatures and throttle
scale are module constants, read at call time, so a probe varies one with
``monkeypatch.setattr`` on this module. Every command is computed from
the previous step's outcome — the runtime engine never lets a controller
peek at the future — and ``reset()`` restores the initial state so one
lane array can run many traces.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.metrics import DEFAULT_TEMPERATURE_LIMIT_C
from repro.errors import ConfigurationError

#: Junction-temperature limit the governor defends [degC] — the shared
#: server-silicon limit of :mod:`repro.core.metrics` (the same number
#: the sweep evaluators' feasibility verdicts use). A lane trips its
#: throttle at or above it.
TEMPERATURE_LIMIT_C = DEFAULT_TEMPERATURE_LIMIT_C

#: Peak below which a tripped governor releases its throttle [degC]: the
#: hysteresis guard band under :data:`TEMPERATURE_LIMIT_C`, shared with
#: the fleet chip table's throttle model.
RELEASE_PEAK_C = 80.0

#: Activity multiplier of a throttled lane, in (0, 1).
THROTTLE_SCALE = 0.7

#: The PID's peak-temperature setpoint [degC]: a few kelvin below
#: :data:`TEMPERATURE_LIMIT_C` so transients peak inside it.
TARGET_PEAK_C = 78.0

#: The PID's actuator range [ml/min]; commands clamp to it.
MIN_FLOW_ML_MIN = 60.0
MAX_FLOW_ML_MIN = 1352.0


class FixedFlow:
    """Open-loop constant flow — the paper's static operating point."""

    def __init__(self, flow_ml_min: float) -> None:
        # Written as ``not 0 < x < inf`` so NaN and inf fail the checks too.
        if not 0.0 < flow_ml_min < math.inf:
            raise ConfigurationError(
                f"flow_ml_min must be finite and > 0 ml/min, got {flow_ml_min}"
            )
        #: The flow commanded on every step [ml/min].
        self.initial_flow_ml_min = float(flow_ml_min)


class PIDFlowController:
    """PI on peak junction temperature, actuating total flow.

    The error is ``peak - TARGET_PEAK_C``: a hot chip raises the command,
    a cold one lowers it toward :data:`MIN_FLOW_ML_MIN`, shedding pumping
    power. The integral term uses conditional anti-windup — it freezes
    whenever the command is clamped and integrating would push it further
    into the clamp — so recovery after a burst is not delayed by a
    wound-up term. The update itself runs in
    :class:`VectorFlowControllers`.

    Parameters
    ----------
    initial_flow_ml_min:
        Command before the first observation, inside the actuator range
        [:data:`MIN_FLOW_ML_MIN`, :data:`MAX_FLOW_ML_MIN`].
    kp / ki:
        Gains in ml/min per K and ml/min per K.s.
    """

    def __init__(
        self,
        initial_flow_ml_min: float,
        kp: float = 40.0,
        ki: float = 60.0,
    ) -> None:
        for name, gain in (("kp", kp), ("ki", ki)):
            if not 0.0 <= gain < math.inf:
                raise ConfigurationError(
                    f"{name} must be finite and >= 0, got {gain}"
                )
        if not MIN_FLOW_ML_MIN <= initial_flow_ml_min <= MAX_FLOW_ML_MIN:
            raise ConfigurationError(
                f"initial_flow_ml_min={initial_flow_ml_min:g} outside the "
                f"actuator range [{MIN_FLOW_ML_MIN:g}, {MAX_FLOW_ML_MIN:g}] "
                "ml/min"
            )
        self.kp = float(kp)
        self.ki = float(ki)
        self.initial_flow_ml_min = float(initial_flow_ml_min)


class VectorFlowControllers:
    """The flow-control law, over a batch of controller lanes.

    Packs the gains, initial commands and integrator state of many
    :class:`FixedFlow` / :class:`PIDFlowController` instances into numpy
    lane arrays so the runtime engine commands every scenario's flow in
    one vectorized update per control interval. Each lane's command
    stream depends on that lane's observations alone (no reduction runs
    across lanes), so a lane batched with others commands exactly what it
    commands in a one-lane batch — a hard requirement, because commands
    pass through flow quantization, where an ulp decides which thermal
    model a lane runs on. Fixed-flow lanes bypass the PI expression
    entirely (``initial`` is returned verbatim), even for non-finite
    observations.

    Only :class:`FixedFlow` and :class:`PIDFlowController` lanes are
    accepted; any other object raises :class:`ConfigurationError` rather
    than being run as something it is not.
    """

    def __init__(
        self, controllers: "Sequence[FixedFlow | PIDFlowController]"
    ) -> None:
        if not controllers:
            raise ConfigurationError("need at least one controller lane")
        lanes = []
        for controller in controllers:
            if isinstance(controller, PIDFlowController):
                lanes.append((
                    False, controller.kp, controller.ki,
                    controller.initial_flow_ml_min,
                ))
            elif isinstance(controller, FixedFlow):
                lanes.append((True, 0.0, 0.0, controller.initial_flow_ml_min))
            else:
                raise ConfigurationError(
                    "unsupported flow controller "
                    f"{type(controller).__name__!r}; expected FixedFlow "
                    "or PIDFlowController"
                )
        columns = list(zip(*lanes))
        self._fixed = np.array(columns[0], dtype=bool)
        self._kps, self._kis, self._initials = (
            np.array(column, dtype=float) for column in columns[1:]
        )
        self.reset()

    def __len__(self) -> int:
        return self._initials.size

    @property
    def initial_flows_ml_min(self) -> np.ndarray:
        """Per-lane commands before the first observation [ml/min]."""
        return self._initials.copy()

    def reset(self) -> None:
        """Restore every lane's initial controller state."""
        self._integrals_k_s = np.zeros_like(self._initials)

    def flow_commands(
        self, peak_temperatures_c: np.ndarray, dt_s: float
    ) -> np.ndarray:
        """Per-lane flow commands [ml/min] for the next step."""
        if not 0.0 < dt_s < math.inf:
            raise ConfigurationError(f"dt_s must be finite and > 0, got {dt_s}")
        errors = peak_temperatures_c - TARGET_PEAK_C
        candidates = self._integrals_k_s + errors * dt_s
        raw = self._initials + self._kps * errors + self._kis * candidates
        clamped = np.minimum(MAX_FLOW_ML_MIN, np.maximum(MIN_FLOW_ML_MIN, raw))
        accept = (raw == clamped) | ((raw > clamped) != (errors > 0.0))
        self._integrals_k_s = np.where(
            accept, candidates, self._integrals_k_s
        )
        return np.where(self._fixed, self._initials, clamped)


class VectorThrottleGovernors:
    """The throttle hysteresis, over a batch of lanes.

    Every lane trips at a peak at or above :data:`TEMPERATURE_LIMIT_C`,
    runs at :data:`THROTTLE_SCALE` while tripped, and releases only once
    its peak falls below :data:`RELEASE_PEAK_C`, so a lane never chatters
    around the trip point. The whole batch updates with one vectorized
    pass of the hysteresis predicate.
    """

    def __init__(self, n_lanes: int) -> None:
        if n_lanes < 1:
            raise ConfigurationError("need at least one governor lane")
        self._n_lanes = n_lanes
        self.reset()

    @property
    def throttled(self) -> np.ndarray:
        """Per-lane boolean: which lanes are currently throttling."""
        return self._throttled.copy()

    def reset(self) -> None:
        """Release every lane's throttle."""
        self._throttled = np.zeros(self._n_lanes, dtype=bool)

    def scale_commands(self, peak_temperatures_c: np.ndarray) -> np.ndarray:
        """Per-lane activity multipliers, updating the hysteresis state."""
        tripped = peak_temperatures_c >= TEMPERATURE_LIMIT_C
        released = peak_temperatures_c < RELEASE_PEAK_C
        self._throttled = tripped | (self._throttled & ~released)
        return np.where(self._throttled, THROTTLE_SCALE, 1.0)
