"""Tests for flow controllers and the throttle governor.

The policies (:class:`FixedFlow`, :class:`PIDFlowController`,
:class:`ThrottleGovernor`) are parameter records; the control law runs in
the lane arrays. Single-controller behaviour is checked on one-lane
:class:`VectorFlowControllers` / :class:`VectorThrottleGovernors`, the
form the runtime engine runs a single scenario in.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime.controllers import (
    FixedFlow,
    PIDFlowController,
    ThrottleGovernor,
    VectorFlowControllers,
    VectorThrottleGovernors,
)


def command(lane: VectorFlowControllers, peak_c: float, dt_s: float) -> float:
    """One-lane flow command for an observed peak temperature."""
    return float(lane.flow_commands(np.array([peak_c]), dt_s)[0])


def scale(lane: VectorThrottleGovernors, peak_c: float,
          net_w: float = 5.0) -> float:
    """One-lane activity scale for an observed peak and net power."""
    return float(
        lane.scale_commands(np.array([peak_c]), np.array([net_w]))[0]
    )


class TestFixedFlow:
    def test_constant_command(self):
        controller = FixedFlow(676.0)
        assert controller.initial_flow_ml_min == 676.0
        lane = VectorFlowControllers([controller])
        assert command(lane, 90.0, 0.05) == 676.0
        assert command(lane, 20.0, 0.05) == 676.0
        assert command(lane, float("nan"), 0.05) == 676.0

    def test_rejects_nonpositive_flow(self):
        with pytest.raises(ConfigurationError):
            FixedFlow(0.0)


class TestPIDFlowController:
    def test_hot_raises_cold_lowers(self):
        lane = VectorFlowControllers([PIDFlowController(
            target_peak_c=78.0, kp=40.0, ki=0.0, initial_flow_ml_min=300.0
        )])
        hot = command(lane, 80.0, 0.05)
        lane.reset()
        cold = command(lane, 76.0, 0.05)
        assert hot > 300.0 > cold
        # Pure proportional: symmetric errors move the command
        # symmetrically.
        assert hot - 300.0 == pytest.approx(300.0 - cold)

    def test_integral_accumulates(self):
        lane = VectorFlowControllers([PIDFlowController(
            target_peak_c=78.0, kp=0.0, ki=100.0, initial_flow_ml_min=300.0
        )])
        first = command(lane, 80.0, 0.1)
        second = command(lane, 80.0, 0.1)
        assert second > first > 300.0

    def test_derivative_damps_a_rising_error(self):
        lane = VectorFlowControllers([PIDFlowController(
            target_peak_c=78.0, kp=0.0, ki=0.0, kd=10.0,
            initial_flow_ml_min=300.0,
        )])
        assert command(lane, 79.0, 0.1) == 300.0  # no slope on step one
        rising = command(lane, 81.0, 0.1)
        assert rising > 300.0  # positive error slope pushes flow up

    def test_commands_clamp_to_actuator_range(self):
        lane = VectorFlowControllers([PIDFlowController(
            target_peak_c=78.0, kp=1e6, ki=0.0,
            min_flow_ml_min=60.0, max_flow_ml_min=1352.0,
            initial_flow_ml_min=300.0,
        )])
        assert command(lane, 200.0, 0.05) == 1352.0
        assert command(lane, 0.0, 0.05) == 60.0

    def test_anti_windup_freezes_integral_in_the_clamp(self):
        lane = VectorFlowControllers([PIDFlowController(
            target_peak_c=78.0, kp=0.0, ki=1000.0,
            min_flow_ml_min=60.0, max_flow_ml_min=400.0,
            initial_flow_ml_min=300.0,
        )])
        # A long cold stretch saturates at min flow but must not wind up.
        for _ in range(50):
            assert command(lane, 40.0, 0.1) == 60.0
        wound = lane._integrals_k_s.copy()
        for _ in range(50):
            command(lane, 40.0, 0.1)
        assert np.array_equal(lane._integrals_k_s, wound)
        # Recovery is immediate once the chip runs hot again.
        for _ in range(3):
            recovered = command(lane, 85.0, 0.1)
        assert recovered > 60.0

    def test_reset_restores_initial_state(self):
        def fresh():
            return VectorFlowControllers([PIDFlowController(
                ki=100.0, kd=5.0, initial_flow_ml_min=300.0
            )])

        lane = fresh()
        command(lane, 85.0, 0.1)
        lane.reset()
        assert lane._integrals_k_s[0] == 0.0
        assert not lane._has_previous
        # A reset lane replays a fresh lane's command stream exactly.
        reference = fresh()
        for peak in (85.0, 60.0, 90.0):
            assert command(lane, peak, 0.1) == command(reference, peak, 0.1)

    @pytest.mark.parametrize("kwargs", [
        {"min_flow_ml_min": 0.0},
        {"min_flow_ml_min": 500.0, "max_flow_ml_min": 400.0},
        {"kp": -1.0},
        {"initial_flow_ml_min": 10.0},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            PIDFlowController(**kwargs)

    def test_rejects_nonpositive_dt(self):
        lane = VectorFlowControllers([PIDFlowController()])
        with pytest.raises(ConfigurationError):
            command(lane, 80.0, 0.0)


class TestVectorFlowControllers:
    def test_rejects_unknown_controller_types(self):
        """Only the two known policies become lanes: anything else would
        silently run as something it is not."""
        class Custom:
            initial_flow_ml_min = 676.0

            def flow_command(self, observation, dt_s):
                return 100.0

        with pytest.raises(ConfigurationError, match="Custom"):
            VectorFlowControllers([FixedFlow(676.0), Custom()])

    def test_rejects_an_empty_batch(self):
        with pytest.raises(ConfigurationError):
            VectorFlowControllers([])


class TestThrottleGovernor:
    def test_hysteresis_cycle(self):
        lane = VectorThrottleGovernors([ThrottleGovernor(
            trip_peak_c=85.0, release_peak_c=80.0, throttle_scale=0.7
        )])
        assert scale(lane, 84.9) == 1.0
        assert scale(lane, 85.0) == 0.7
        assert lane.throttled[0]
        # Between release and trip the throttle holds (no chatter).
        assert scale(lane, 82.0) == 0.7
        assert scale(lane, 79.9) == 1.0
        assert not lane.throttled[0]

    def test_net_power_floor_trips(self):
        lane = VectorThrottleGovernors([ThrottleGovernor(min_net_w=0.0)])
        assert scale(lane, 40.0, net_w=-1.0) == 0.7
        # Cool chip but still net-negative: stays throttled.
        assert scale(lane, 40.0, net_w=-0.5) == 0.7
        assert scale(lane, 40.0, net_w=1.0) == 1.0

    def test_reset_releases(self):
        lane = VectorThrottleGovernors([ThrottleGovernor()])
        scale(lane, 90.0)
        assert lane.throttled[0]
        lane.reset()
        assert not lane.throttled[0]

    def test_ungoverned_lane_never_throttles(self):
        lane = VectorThrottleGovernors([None])
        assert scale(lane, 1e6, net_w=-1e6) == 1.0
        assert not lane.throttled[0]

    @pytest.mark.parametrize("kwargs", [
        {"trip_peak_c": 85.0, "release_peak_c": 85.0},
        {"throttle_scale": 0.0},
        {"throttle_scale": 1.0},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            ThrottleGovernor(**kwargs)
