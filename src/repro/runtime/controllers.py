"""Closed-loop flow control and DVFS-style thermal throttling.

The paper modulates one coolant stream at runtime so it meets the chip's
cooling *and* power-delivery demands as workload varies. This module holds
the decision-making side of that loop, in two halves:

- the *policies* — plain parameter records with constructor validation:

  - :class:`FixedFlow` — the open-loop baseline: a constant flow command
    (the paper's nominal 676 ml/min operating point as a controller);
  - :class:`PIDFlowController` — tracks a peak-junction-temperature
    setpoint below the 85 degC limit by modulating total flow. Because
    pumping power grows ~quadratically with flow while generation is
    nearly flat, holding the chip *just* cool enough is also the
    net-energy-optimal policy (bench A15); the PID turns that static
    observation into a runtime one;
  - :class:`ThrottleGovernor` — the safety net a DVFS governor provides:
    when the thermal (or net-power) constraint is violated, activity is
    scaled down with hysteresis until the system recovers;

- the *control law* — :class:`VectorFlowControllers` and
  :class:`VectorThrottleGovernors` pack a batch of policies into numpy
  lane arrays and hold the only implementation of the PID update and the
  hysteresis predicate. A single scenario is a one-lane batch.

Every command is computed from the previous step's outcome — the runtime
engine never lets a controller peek at the future — and ``reset()``
restores the initial state so one lane array can run many traces.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.metrics import DEFAULT_TEMPERATURE_LIMIT_C
from repro.errors import ConfigurationError

#: Junction-temperature limit the governor defends [degC] — the shared
#: server-silicon limit of :mod:`repro.core.metrics` (the same number
#: the sweep evaluators' feasibility verdicts use).
TEMPERATURE_LIMIT_C = DEFAULT_TEMPERATURE_LIMIT_C

#: Peak below which a tripped governor releases its throttle [degC]: the
#: hysteresis guard band under :data:`TEMPERATURE_LIMIT_C`, shared with
#: the fleet chip table's throttle model.
RELEASE_PEAK_C = 80.0


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
    """PID on peak junction temperature, actuating total flow.

    The error is ``peak - target``: a hot chip raises the command, a cold
    one lowers it toward ``min_flow_ml_min``, shedding pumping power. The
    integral term uses conditional anti-windup — it freezes whenever the
    command is clamped and integrating would push it further into the
    clamp — so recovery after a burst is not delayed by a wound-up term.
    The update itself runs in :class:`VectorFlowControllers`.

    Parameters
    ----------
    target_peak_c:
        Temperature setpoint [degC]; keep a few kelvin below the 85 degC
        limit so transients peak inside it.
    kp / ki / kd:
        Gains in ml/min per K, ml/min per K.s, and ml/min per K/s.
    min_flow_ml_min / max_flow_ml_min:
        Actuator limits; commands clamp to this range.
    initial_flow_ml_min:
        Command before the first observation (defaults to the midpoint of
        the actuator range).
    """

    def __init__(
        self,
        target_peak_c: float = 78.0,
        kp: float = 40.0,
        ki: float = 60.0,
        kd: float = 0.0,
        min_flow_ml_min: float = 60.0,
        max_flow_ml_min: float = 1352.0,
        initial_flow_ml_min: "float | None" = None,
    ) -> None:
        if not 0.0 < min_flow_ml_min < math.inf:
            raise ConfigurationError(
                f"min_flow_ml_min must be finite and > 0 ml/min, got "
                f"{min_flow_ml_min}"
            )
        if not min_flow_ml_min < max_flow_ml_min < math.inf:
            raise ConfigurationError(
                f"max_flow_ml_min must be finite and > min_flow_ml_min="
                f"{min_flow_ml_min:g}, got {max_flow_ml_min}"
            )
        if not -math.inf < target_peak_c < math.inf:
            raise ConfigurationError(
                f"target_peak_c must be finite, got {target_peak_c}"
            )
        for name, gain in (("kp", kp), ("ki", ki), ("kd", kd)):
            if not 0.0 <= gain < math.inf:
                raise ConfigurationError(
                    f"{name} must be finite and >= 0, got {gain}"
                )
        if initial_flow_ml_min is None:
            initial_flow_ml_min = 0.5 * (min_flow_ml_min + max_flow_ml_min)
        if not min_flow_ml_min <= initial_flow_ml_min <= max_flow_ml_min:
            raise ConfigurationError(
                f"initial flow {initial_flow_ml_min:g} outside the actuator "
                f"range [{min_flow_ml_min:g}, {max_flow_ml_min:g}] ml/min"
            )
        self.target_peak_c = float(target_peak_c)
        self.kp = float(kp)
        self.ki = float(ki)
        self.kd = float(kd)
        self.min_flow_ml_min = float(min_flow_ml_min)
        self.max_flow_ml_min = float(max_flow_ml_min)
        self.initial_flow_ml_min = float(initial_flow_ml_min)


class ThrottleGovernor:
    """Hysteresis DVFS-style activity throttle.

    Watches the previous step's peak (and net power) and scales commanded
    activity by ``throttle_scale`` whenever the thermal limit (or,
    optionally, a minimum net-power floor) is violated; the throttle
    releases only when the peak falls below ``release_peak_c``, so the
    governor never chatters around the trip point. The hysteresis itself
    runs in :class:`VectorThrottleGovernors`.

    Parameters
    ----------
    trip_peak_c / release_peak_c:
        Throttle engages at or above ``trip_peak_c`` and disengages below
        ``release_peak_c`` (must be strictly lower).
    throttle_scale:
        Activity multiplier while throttled, in (0, 1).
    min_net_w:
        Optional net-power floor [W]; when set, a step whose net power
        falls below it also trips the throttle (the "power delivery
        demand" side of the paper's constraint pair).
    """

    def __init__(
        self,
        trip_peak_c: float = TEMPERATURE_LIMIT_C,
        release_peak_c: float = RELEASE_PEAK_C,
        throttle_scale: float = 0.7,
        min_net_w: "float | None" = None,
    ) -> None:
        # Written as ``not -inf < x < inf`` so NaN fails the checks too: a
        # NaN limit would never trip, and a NaN floor would mean no floor.
        limits = {"trip_peak_c": trip_peak_c, "release_peak_c": release_peak_c}
        if min_net_w is not None:
            limits["min_net_w"] = min_net_w
        for name, value in limits.items():
            if not -math.inf < value < math.inf:
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if release_peak_c >= trip_peak_c:
            raise ConfigurationError(
                f"release temperature ({release_peak_c:g} C) must be below "
                f"the trip temperature ({trip_peak_c:g} C)"
            )
        if not 0.0 < throttle_scale < 1.0:
            raise ConfigurationError(
                f"throttle scale must be in (0, 1), got {throttle_scale}"
            )
        self.trip_peak_c = float(trip_peak_c)
        self.release_peak_c = float(release_peak_c)
        self.throttle_scale = float(throttle_scale)
        self.min_net_w = None if min_net_w is None else float(min_net_w)


class VectorFlowControllers:
    """The flow-control law, over a batch of controller lanes.

    Packs the gains, actuator limits and integrator state of many
    :class:`FixedFlow` / :class:`PIDFlowController` instances into numpy
    lane arrays so the runtime engine commands every scenario's flow in
    one vectorized update per control interval. Each lane's command
    stream depends on that lane's observations alone (no reduction runs
    across lanes), so a lane batched with others commands exactly what it
    commands in a one-lane batch — a hard requirement, because commands
    pass through flow quantization, where an ulp decides which thermal
    model a lane runs on. Fixed-flow lanes bypass the PID expression
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
                    False,
                    controller.target_peak_c,
                    controller.kp, controller.ki, controller.kd,
                    controller.min_flow_ml_min, controller.max_flow_ml_min,
                    controller.initial_flow_ml_min,
                ))
            elif isinstance(controller, FixedFlow):
                initial = controller.initial_flow_ml_min
                lanes.append((
                    True, 0.0, 0.0, 0.0, 0.0, initial, initial, initial
                ))
            else:
                raise ConfigurationError(
                    "unsupported flow controller "
                    f"{type(controller).__name__!r}; expected FixedFlow "
                    "or PIDFlowController"
                )
        columns = list(zip(*lanes))
        self._fixed = np.array(columns[0], dtype=bool)
        (
            self._targets_c, self._kps, self._kis, self._kds,
            self._min_flows, self._max_flows, self._initials,
        ) = (np.array(column, dtype=float) for column in columns[1:])
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
        self._previous_errors_k = np.zeros_like(self._initials)
        self._has_previous = False

    def flow_commands(
        self, peak_temperatures_c: np.ndarray, dt_s: float
    ) -> np.ndarray:
        """Per-lane flow commands [ml/min] for the next step."""
        if not 0.0 < dt_s < math.inf:
            raise ConfigurationError(f"dt_s must be finite and > 0, got {dt_s}")
        errors = peak_temperatures_c - self._targets_c
        derivatives = np.zeros_like(errors)
        if self._has_previous:
            active = self._kds > 0.0
            derivatives[active] = (
                errors[active] - self._previous_errors_k[active]
            ) / dt_s
        self._previous_errors_k = errors.copy()
        self._has_previous = True

        candidates = self._integrals_k_s + errors * dt_s
        raw = (
            self._initials
            + self._kps * errors
            + self._kis * candidates
            + self._kds * derivatives
        )
        clamped = np.minimum(self._max_flows, np.maximum(self._min_flows, raw))
        accept = (raw == clamped) | ((raw > clamped) != (errors > 0.0))
        self._integrals_k_s = np.where(
            accept, candidates, self._integrals_k_s
        )
        return np.where(self._fixed, self._initials, clamped)


class VectorThrottleGovernors:
    """The throttle hysteresis, over a batch of (optional) governor lanes.

    Lanes without a governor are encoded with a ``+inf`` trip temperature
    and no net-power floor, so they can never throttle, and the whole
    batch updates with one vectorized pass of the hysteresis predicate.
    """

    def __init__(
        self, governors: "Sequence[ThrottleGovernor | None]"
    ) -> None:
        if not governors:
            raise ConfigurationError("need at least one governor lane")
        lanes = []
        for governor in governors:
            if governor is None:
                lanes.append((np.inf, 0.0, 1.0, np.nan))
            else:
                min_net = (
                    np.nan if governor.min_net_w is None
                    else governor.min_net_w
                )
                lanes.append((
                    governor.trip_peak_c,
                    governor.release_peak_c,
                    governor.throttle_scale,
                    min_net,
                ))
        (
            self._trips_c, self._releases_c, self._scales, self._min_nets_w,
        ) = (np.array(column, dtype=float) for column in zip(*lanes))
        self.reset()

    @property
    def throttled(self) -> np.ndarray:
        """Per-lane boolean: which lanes are currently throttling."""
        return self._throttled.copy()

    def reset(self) -> None:
        """Release every lane's throttle."""
        self._throttled = np.zeros(self._trips_c.size, dtype=bool)

    def scale_commands(
        self, peak_temperatures_c: np.ndarray, nets_w: np.ndarray
    ) -> np.ndarray:
        """Per-lane activity multipliers, updating the hysteresis state.

        A lane trips at ``peak >= trip`` (or net power below its floor)
        and releases only once ``peak < release`` with the floor met. A
        nan floor means "no floor" (``min_net_w=None``): nan comparisons
        are false, so such lanes trip and release on temperature alone.
        """
        has_floor = ~np.isnan(self._min_nets_w)
        tripped = (peak_temperatures_c >= self._trips_c) | (
            has_floor & (nets_w < self._min_nets_w)
        )
        release_ok = (peak_temperatures_c < self._releases_c) & (
            ~has_floor | (nets_w >= self._min_nets_w)
        )
        self._throttled = tripped | (self._throttled & ~release_ok)
        return np.where(self._throttled, self._scales, 1.0)
