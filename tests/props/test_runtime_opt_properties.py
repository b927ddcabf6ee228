"""Property-based invariants of the runtime and optimization subsystems.

Covers the stateful pieces PR 3/4 introduced that example-based tests
exercise only at a handful of points:

- electrolyte reservoir bookkeeping (SOC window, monotone discharge),
- the PID flow controller's conditional anti-windup,
- the throttle governor's hysteresis band (both checked on one-lane
  control-law arrays, the form the runtime engine runs them in),
- Pareto-front extraction (mutual non-domination, permutation
  invariance).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.opt.objective import Objective
from repro.opt.pareto import dominates, objective_vector, pareto_front
from repro.runtime.controllers import (
    MAX_FLOW_ML_MIN,
    MIN_FLOW_ML_MIN,
    RELEASE_PEAK_C,
    TARGET_PEAK_C,
    TEMPERATURE_LIMIT_C,
    THROTTLE_SCALE,
    PIDFlowController,
    VectorFlowControllers,
    VectorThrottleGovernors,
)
from repro.sweep.runner import SweepResult
from repro.sweep.spec import ScenarioSpec

from tests.runtime.electrolyte_oracle import ElectrolyteState, tank_loop

#: Per-tank volume of the depletable microlitre reservoirs [m^3].
TINY_TANK_M3 = 2e-8

#: The PID's starting flow in these properties: mid actuator range.
MID_FLOW_ML_MIN = 0.5 * (MIN_FLOW_ML_MIN + MAX_FLOW_ML_MIN)


def command(lane: VectorFlowControllers, peak_c: float, dt_s: float) -> float:
    """One-lane PID command for an observed peak temperature."""
    return float(lane.flow_commands(np.array([peak_c]), dt_s)[0])


def scale(lane: VectorThrottleGovernors, peak_c: float) -> float:
    """One-lane governor scale for an observed peak."""
    return float(lane.scale_commands(np.array([peak_c]))[0])


def tiny_loop():
    """A depletable reservoir pair (microlitres, not the 0.5 L default)."""
    return tank_loop(TINY_TANK_M3)


class TestElectrolyteStateProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        draws=st.lists(
            st.tuples(
                st.floats(0.0, 20.0),  # discharge current [A]
                st.floats(1e-3, 5.0),  # step length [s]
            ),
            min_size=1,
            max_size=30,
        ),
        min_soc=st.floats(0.0, 0.5),
    )
    def test_soc_window_and_monotone_discharge(self, draws, min_soc):
        """SOC stays in [0, 1] and never increases without recharge; the
        sustained current never exceeds the request; depletion latches."""
        state = ElectrolyteState(loop=tiny_loop(), min_soc=min_soc)
        previous_soc = state.state_of_charge
        assert 0.0 <= previous_soc <= 1.0
        for requested, dt in draws:
            sustained = state.step(requested, dt)
            assert 0.0 <= sustained <= requested + 1e-12
            soc = state.state_of_charge
            assert 0.0 <= soc <= 1.0
            assert soc <= previous_soc + 1e-12
            assert 0.0 <= state.fuel_utilization <= 1.0
            if state.depleted:
                # Depletion latches: all further draws sustain zero.
                assert state.step(requested, dt) == 0.0
            previous_soc = soc

    @settings(max_examples=25, deadline=None)
    @given(
        current=st.floats(1.0, 50.0),
        dt=st.floats(0.1, 2.0),
    )
    def test_soc_never_crosses_the_floor(self, current, dt):
        """Draw until depletion: the SOC floor is respected throughout.

        The microlitre tanks hold a few coulombs, so the >= 0.1 C/step
        draws below always deplete them within the loop bound.
        """
        state = ElectrolyteState(loop=tiny_loop(), min_soc=0.1)
        for _ in range(200):
            state.step(current, dt)
            if state.depleted:
                break
        assert state.depleted
        assert state.state_of_charge >= state.min_soc - 1e-9


class TestPIDAntiWindupProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        peaks=st.lists(st.floats(0.0, 200.0), min_size=1, max_size=60),
        kp=st.floats(0.0, 100.0),
        ki=st.floats(0.0, 200.0),
        dt=st.floats(1e-3, 1.0),
    )
    def test_command_and_integral_stay_bounded(self, peaks, kp, ki, dt):
        """Commands clamp to the actuator range and the integral term can
        never wind up beyond one step past the range.

        The conditional anti-windup accepts an integral update only when
        the raw command is unclamped or the update pulls back inside, so
        the stored contribution ``initial + ki * I`` stays within the
        actuator range padded by one proportional term plus one
        integration step of the worst error seen.
        """
        controller = PIDFlowController(MID_FLOW_ML_MIN, kp=kp, ki=ki)
        lane = VectorFlowControllers([controller])
        lo, hi = MIN_FLOW_ML_MIN, MAX_FLOW_ML_MIN
        worst_error = 0.0
        for peak in peaks:
            assert lo <= command(lane, peak, dt) <= hi
            worst_error = max(
                worst_error, abs(peak - TARGET_PEAK_C)
            )
            stored = (
                controller.initial_flow_ml_min
                + ki * float(lane._integrals_k_s[0])
            )
            pad = kp * worst_error + ki * worst_error * dt + 1e-9
            assert lo - pad <= stored <= hi + pad

    @settings(max_examples=25, deadline=None)
    @given(
        hot_steps=st.integers(1, 50),
        hot_peak=st.floats(100.0, 200.0),
    )
    def test_recovery_is_not_delayed_by_windup(self, hot_steps, hot_peak):
        """After any stretch of saturating-hot observations, a single
        cold observation immediately pulls the command off the clamp —
        the signature behaviour anti-windup exists for."""
        lane = VectorFlowControllers([
            PIDFlowController(MID_FLOW_ML_MIN, kp=40.0, ki=60.0)
        ])
        for _ in range(hot_steps):
            hot = command(lane, hot_peak, 0.05)
        assert hot == MAX_FLOW_ML_MIN
        recovered = command(lane, 20.0, 0.05)
        assert recovered < MAX_FLOW_ML_MIN


class TestThrottleHysteresisProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        start_throttled=st.booleans(),
        peaks=st.lists(
            st.floats(
                RELEASE_PEAK_C, TEMPERATURE_LIMIT_C,
                exclude_min=True, exclude_max=True,
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_no_chatter_inside_the_band(self, start_throttled, peaks):
        """Peaks strictly inside (release, trip) never flip the throttle
        state, whichever side it starts on — the definition of the
        hysteresis band."""
        lane = VectorThrottleGovernors(1)
        if start_throttled:
            scale(lane, 90.0)  # trip it first
            assert lane.throttled[0]
        initial = bool(lane.throttled[0])
        for peak in peaks:
            activity = scale(lane, peak)
            assert lane.throttled[0] == initial
            expected = THROTTLE_SCALE if initial else 1.0
            assert activity == expected

    @settings(max_examples=40, deadline=None)
    @given(peaks=st.lists(st.floats(0.0, 200.0), min_size=1, max_size=60))
    def test_state_changes_only_at_the_thresholds(self, peaks):
        """A trip requires peak >= trip point; a release requires peak <
        release point. No other transition exists."""
        lane = VectorThrottleGovernors(1)
        previous = bool(lane.throttled[0])
        for peak in peaks:
            scale(lane, peak)
            throttled = bool(lane.throttled[0])
            if throttled != previous:
                if throttled:
                    assert peak >= TEMPERATURE_LIMIT_C
                else:
                    assert peak < RELEASE_PEAK_C
            previous = throttled


def results_from_vectors(vectors) -> "list[SweepResult]":
    """Wrap raw (a, b) metric pairs as sweep results for the front."""
    return [
        SweepResult(
            spec=ScenarioSpec(label=str(index)),
            metrics={"a": a, "b": b},
            elapsed_s=0.0,
            from_cache=False,
        )
        for index, (a, b) in enumerate(vectors)
    ]


OBJECTIVES = (Objective("a", "max"), Objective("b", "min"))

metric_pairs = st.lists(
    st.tuples(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(-1e6, 1e6, allow_nan=False),
    ),
    min_size=1,
    max_size=25,
)


class TestParetoProperties:
    @settings(max_examples=60, deadline=None)
    @given(vectors=metric_pairs)
    def test_front_members_mutually_non_dominated(self, vectors):
        results = results_from_vectors(vectors)
        front = pareto_front(results, OBJECTIVES)
        assert front  # finite, non-empty input always yields a front
        oriented = [objective_vector(r, OBJECTIVES) for r in front]
        for i, a in enumerate(oriented):
            for j, b in enumerate(oriented):
                if i != j:
                    assert not dominates(a, b)

    @settings(max_examples=60, deadline=None)
    @given(vectors=metric_pairs)
    def test_every_excluded_point_is_dominated(self, vectors):
        results = results_from_vectors(vectors)
        front = pareto_front(results, OBJECTIVES)
        front_vectors = [objective_vector(r, OBJECTIVES) for r in front]
        front_labels = {r.spec.label for r in front}
        for result in results:
            if result.spec.label in front_labels:
                continue
            vector = objective_vector(result, OBJECTIVES)
            assert any(dominates(f, vector) for f in front_vectors)

    @settings(max_examples=60, deadline=None)
    @given(vectors=metric_pairs, seed=st.randoms(use_true_random=False))
    def test_front_invariant_under_permutation(self, vectors, seed):
        results = results_from_vectors(vectors)
        shuffled = list(results)
        seed.shuffle(shuffled)
        front = pareto_front(results, OBJECTIVES)
        shuffled_front = pareto_front(shuffled, OBJECTIVES)
        as_pairs = sorted(
            (r.metrics["a"], r.metrics["b"]) for r in front
        )
        shuffled_pairs = sorted(
            (r.metrics["a"], r.metrics["b"]) for r in shuffled_front
        )
        assert as_pairs == shuffled_pairs

    def test_nan_objective_excluded(self):
        results = results_from_vectors([(1.0, 1.0), (float("nan"), 0.0)])
        front = pareto_front(results, OBJECTIVES)
        assert [r.spec.label for r in front] == ["0"]
