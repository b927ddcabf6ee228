"""Tests for flow controllers and the throttle governor.

The policies (:class:`FixedFlow`, :class:`PIDFlowController`) are
parameter records; the control law runs in the lane arrays. Single-lane
behaviour is checked on one-lane :class:`VectorFlowControllers` /
:class:`VectorThrottleGovernors`, the form the runtime engine runs a
single scenario in. The setpoint, actuator range, trip and release
temperatures and throttle scale are module constants.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.runtime import controllers
from repro.runtime.controllers import (
    FixedFlow,
    PIDFlowController,
    VectorFlowControllers,
    VectorThrottleGovernors,
)


def command(lane: VectorFlowControllers, peak_c: float, dt_s: float) -> float:
    """One-lane flow command for an observed peak temperature."""
    return float(lane.flow_commands(np.array([peak_c]), dt_s)[0])


def scale(lane: VectorThrottleGovernors, peak_c: float) -> float:
    """One-lane activity scale for an observed peak."""
    return float(lane.scale_commands(np.array([peak_c]))[0])


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
        lane = VectorFlowControllers([
            PIDFlowController(300.0, kp=40.0, ki=0.0)
        ])
        hot = command(lane, 80.0, 0.05)
        lane.reset()
        cold = command(lane, 76.0, 0.05)
        assert hot > 300.0 > cold
        # Pure proportional about the 78 C setpoint: symmetric errors
        # move the command symmetrically.
        assert hot - 300.0 == pytest.approx(300.0 - cold)

    def test_setpoint_is_read_at_call_time(self, monkeypatch):
        lane = VectorFlowControllers([
            PIDFlowController(300.0, kp=40.0, ki=0.0)
        ])
        monkeypatch.setattr(controllers, "TARGET_PEAK_C", 80.0)
        assert command(lane, 80.0, 0.05) == 300.0

    def test_integral_accumulates(self):
        lane = VectorFlowControllers([
            PIDFlowController(300.0, kp=0.0, ki=100.0)
        ])
        first = command(lane, 80.0, 0.1)
        second = command(lane, 80.0, 0.1)
        assert second > first > 300.0

    def test_commands_clamp_to_actuator_range(self):
        lane = VectorFlowControllers([
            PIDFlowController(300.0, kp=1e6, ki=0.0)
        ])
        assert command(lane, 200.0, 0.05) == 1352.0
        assert command(lane, 0.0, 0.05) == 60.0

    def test_anti_windup_freezes_integral_in_the_clamp(self, monkeypatch):
        monkeypatch.setattr(controllers, "MAX_FLOW_ML_MIN", 400.0)
        lane = VectorFlowControllers([
            PIDFlowController(300.0, kp=0.0, ki=1000.0)
        ])
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
            return VectorFlowControllers([PIDFlowController(300.0, ki=100.0)])

        lane = fresh()
        command(lane, 85.0, 0.1)
        lane.reset()
        assert lane._integrals_k_s[0] == 0.0
        # A reset lane replays a fresh lane's command stream exactly.
        reference = fresh()
        for peak in (85.0, 60.0, 90.0):
            assert command(lane, peak, 0.1) == command(reference, peak, 0.1)

    @pytest.mark.parametrize("kwargs", [
        {"initial_flow_ml_min": 676.0, "kp": -1.0},
        {"initial_flow_ml_min": 10.0},
        {"initial_flow_ml_min": 2000.0},
        {"initial_flow_ml_min": 676.0, "ki": -1.0},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            PIDFlowController(**kwargs)

    @pytest.mark.parametrize("flow", [60.0, 1352.0])
    def test_accepts_the_actuator_range_endpoints(self, flow):
        lane = VectorFlowControllers([PIDFlowController(flow, kp=0.0, ki=0.0)])
        assert lane.initial_flows_ml_min[0] == flow
        assert command(lane, 78.0, 0.05) == flow

    def test_actuator_range_is_read_at_call_time(self, monkeypatch):
        lane = VectorFlowControllers([
            PIDFlowController(300.0, kp=1e6, ki=0.0)
        ])
        monkeypatch.setattr(controllers, "MIN_FLOW_ML_MIN", 100.0)
        monkeypatch.setattr(controllers, "MAX_FLOW_ML_MIN", 500.0)
        assert command(lane, 200.0, 0.05) == 500.0
        assert command(lane, 0.0, 0.05) == 100.0

    def test_rejects_nonpositive_dt(self):
        lane = VectorFlowControllers([PIDFlowController(676.0)])
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

    def test_each_lane_matches_its_one_lane_run(self):
        """A mixed batch commands, lane by lane, exactly what each policy
        commands alone: no reduction runs across lanes."""
        def policies():
            return [
                FixedFlow(676.0),
                PIDFlowController(300.0),
                PIDFlowController(1352.0, kp=200.0, ki=0.0),
                PIDFlowController(676.0, kp=80.0, ki=10.0),
            ]

        peaks = np.array([
            [70.0, 90.0, 78.0, 60.0],
            [95.0, 40.0, 81.5, 79.0],
            [77.0, 77.0, 200.0, 0.0],
        ])
        batch = VectorFlowControllers(policies())
        singles = [VectorFlowControllers([p]) for p in policies()]
        for row in peaks:
            got = batch.flow_commands(row, 0.1)
            for lane, single in enumerate(singles):
                assert got[lane] == command(single, row[lane], 0.1), lane

    def test_initial_flows_follow_lane_order_and_are_a_copy(self):
        lane = VectorFlowControllers([
            PIDFlowController(300.0), FixedFlow(676.0)
        ])
        flows = lane.initial_flows_ml_min
        assert list(flows) == [300.0, 676.0]
        flows[:] = 0.0
        assert list(lane.initial_flows_ml_min) == [300.0, 676.0]


class TestThrottleGovernor:
    def test_hysteresis_cycle(self):
        lane = VectorThrottleGovernors(1)
        assert scale(lane, 84.9) == 1.0
        assert scale(lane, 85.0) == 0.7
        assert lane.throttled[0]
        # Between release and trip the throttle holds (no chatter).
        assert scale(lane, 82.0) == 0.7
        assert scale(lane, 79.9) == 1.0
        assert not lane.throttled[0]

    def test_limits_and_scale_are_read_at_call_time(self, monkeypatch):
        lane = VectorThrottleGovernors(1)
        monkeypatch.setattr(controllers, "TEMPERATURE_LIMIT_C", 36.0)
        monkeypatch.setattr(controllers, "RELEASE_PEAK_C", 34.0)
        monkeypatch.setattr(controllers, "THROTTLE_SCALE", 0.5)
        assert scale(lane, 36.0) == 0.5
        assert scale(lane, 35.0) == 0.5
        assert scale(lane, 33.9) == 1.0

    def test_a_peak_at_the_release_temperature_holds_the_throttle(self):
        lane = VectorThrottleGovernors(1)
        scale(lane, 85.0)
        assert scale(lane, 80.0) == 0.7
        assert lane.throttled[0]

    def test_lanes_keep_their_own_hysteresis(self):
        """Each lane of a batch trips and releases on its own peaks, as it
        does in a one-lane batch."""
        peaks = np.array([
            [84.0, 85.0, 90.0],
            [82.0, 82.0, 79.0],
            [86.0, 79.9, 82.0],
        ])
        batch = VectorThrottleGovernors(3)
        singles = [VectorThrottleGovernors(1) for _ in range(3)]
        for row in peaks:
            got = batch.scale_commands(row)
            assert list(got) == [
                scale(single, peak) for single, peak in zip(singles, row)
            ]
        assert list(batch.throttled) == [True, False, False]

    def test_throttled_is_a_copy(self):
        lane = VectorThrottleGovernors(2)
        flags = lane.throttled
        flags[:] = True
        assert not lane.throttled.any()
        assert list(lane.scale_commands(np.array([82.0, 82.0]))) == [1.0, 1.0]

    def test_reset_releases(self):
        lane = VectorThrottleGovernors(1)
        scale(lane, 90.0)
        assert lane.throttled[0]
        lane.reset()
        assert not lane.throttled[0]

    def test_rejects_an_empty_batch(self):
        with pytest.raises(ConfigurationError):
            VectorThrottleGovernors(0)
