"""Property-based invariants of the batched dynamic kernels (PR 8).

The batched transient/runtime path promises *structural* equivalence
with their scalar references, not just agreement at the preset grid points:

- a step response marched as one column of a lockstep batch matches the
  single-case trajectory bit for bit, for arbitrary valid (utilization,
  duration, dt) cases (the single-case run itself is held to a direct
  scalar march in ``tests/cosim/test_transient.py``);
- the vector controller/governor updates are permutation-equivariant
  over the scenario axis (no lane reads another lane's state);
- the array-form reservoir never draws past the exact tank supply and
  never produces a negative concentration — the array regression for the
  scalar ulp guard (``exact_supply = (1 - 1e-12) * deliverable``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cosim import CosimConfig, StepResponseCase, TransientCosim
from repro.cosim.batch import batched_step_responses
from repro.runtime import state
from repro.runtime.controllers import (
    FixedFlow,
    PIDFlowController,
    VectorFlowControllers,
    VectorThrottleGovernors,
)
from repro.runtime.state import ElectrolyteStateArray

from tests.runtime.electrolyte_oracle import ElectrolyteState

from .test_runtime_opt_properties import TINY_TANK_M3, tiny_loop


def tiny_array(n_lanes: int, min_soc: float) -> ElectrolyteStateArray:
    """Array lanes on the microlitre tanks at a SOC floor of ``min_soc``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(state, "TANK_VOLUME_M3", TINY_TANK_M3)
        patch.setattr(state, "MIN_SOC", min_soc)
        return ElectrolyteStateArray(n_lanes)

#: Flows/inlets drawn from a small pool so the shared polarization
#: surfaces and thermal families amortize across examples — the
#: *trajectory-shaping* knobs (utilizations, horizon, step) vary freely.
FLOWS = st.sampled_from((338.0, 676.0))
INLETS = st.sampled_from((300.0, 310.15))
UTILIZATIONS = st.floats(0.05, 1.0)


class TestBatchedStepResponseProperties:
    @settings(max_examples=8, deadline=None)
    @given(
        flow=FLOWS,
        inlet=INLETS,
        u_before=UTILIZATIONS,
        u_after=UTILIZATIONS,
        n_steps=st.integers(1, 6),
        dt_s=st.floats(0.02, 0.1),
        partial=st.booleans(),
    )
    def test_batched_matches_scalar_for_arbitrary_cases(
        self, flow, inlet, u_before, u_after, n_steps, dt_s, partial
    ):
        """One batched column reproduces the single-case trajectory:
        identical sample times, thermal samples and currents."""
        duration_s = n_steps * dt_s + (0.4 * dt_s if partial else 0.0)
        config = CosimConfig(
            total_flow_ml_min=flow,
            inlet_temperature_k=inlet,
            nx=22,
            ny=11,
        )
        case = StepResponseCase(
            config=config,
            utilization_before=u_before,
            utilization_after=u_after,
            duration_s=duration_s,
            dt_s=dt_s,
        )
        # A lockstep companion column (swapped utilizations).
        companion = StepResponseCase(
            config=config,
            utilization_before=u_after,
            utilization_after=u_before,
            duration_s=duration_s,
            dt_s=dt_s,
        )
        batched = batched_step_responses([case, companion])[0]
        scalar = TransientCosim(config).run_step_response(
            u_before, u_after, duration_s=duration_s, dt_s=dt_s
        )
        assert len(batched) == len(scalar)
        for got, ref in zip(batched, scalar):
            assert got.time_s == ref.time_s
            assert got.peak_temperature_c == ref.peak_temperature_c
            assert got.mean_coolant_c == ref.mean_coolant_c
            assert got.array_current_a == ref.array_current_a

    @settings(max_examples=8, deadline=None)
    @given(
        flow=FLOWS,
        utilizations=st.lists(
            st.tuples(UTILIZATIONS, UTILIZATIONS), min_size=2, max_size=4
        ),
        seed=st.randoms(use_true_random=False),
    )
    def test_batched_results_independent_of_case_order(
        self, flow, utilizations, seed
    ):
        """Reordering the cases permutes the trajectories and nothing
        else — lanes in a lockstep march do not interact."""
        config = CosimConfig(
            total_flow_ml_min=flow, nx=22, ny=11
        )
        cases = [
            StepResponseCase(
                config=config,
                utilization_before=u0,
                utilization_after=u1,
                duration_s=0.1,
                dt_s=0.05,
            )
            for u0, u1 in utilizations
        ]
        order = list(range(len(cases)))
        seed.shuffle(order)
        straight = batched_step_responses(cases)
        shuffled = batched_step_responses([cases[i] for i in order])
        for k, i in enumerate(order):
            assert shuffled[k] == straight[i]


class TestVectorControlPermutationEquivariance:
    @settings(max_examples=30, deadline=None)
    @given(
        gains=st.lists(
            st.tuples(
                st.booleans(),  # fixed-flow lane?
                st.floats(0.0, 100.0),  # kp
                st.floats(0.0, 200.0),  # ki
                st.floats(100.0, 1000.0),  # initial flow
            ),
            min_size=2,
            max_size=6,
        ),
        peak_rounds=st.lists(
            st.lists(st.floats(0.0, 200.0), min_size=2, max_size=6),
            min_size=1,
            max_size=8,
        ),
        dt=st.floats(1e-3, 1.0),
        seed=st.randoms(use_true_random=False),
    )
    def test_controller_updates_commute_with_lane_permutation(
        self, gains, peak_rounds, dt, seed
    ):
        """flow_commands(P(peaks)) == P(flow_commands(peaks)) for every
        lane permutation P, through arbitrary observation sequences —
        i.e. each lane's PID state evolves as if it ran alone."""
        def build():
            return [
                FixedFlow(initial) if fixed
                else PIDFlowController(
                    kp=kp, ki=ki, initial_flow_ml_min=initial
                )
                for fixed, kp, ki, initial in gains
            ]

        n = len(gains)
        order = list(range(n))
        seed.shuffle(order)
        perm = np.asarray(order)
        straight = VectorFlowControllers(build())
        permuted = VectorFlowControllers(
            [build()[i] for i in order]
        )
        for peaks in peak_rounds:
            peaks = np.asarray((peaks * n)[:n])
            a = straight.flow_commands(peaks, dt)
            b = permuted.flow_commands(peaks[perm], dt)
            assert np.array_equal(b, a[perm])

    @settings(max_examples=30, deadline=None)
    @given(
        rounds=st.lists(
            st.lists(st.floats(0.0, 200.0), min_size=2, max_size=6),
            min_size=1,
            max_size=10,
        ),
        seed=st.randoms(use_true_random=False),
    )
    def test_governor_updates_commute_with_lane_permutation(
        self, rounds, seed
    ):
        """Same equivariance for the hysteresis governors, latched
        throttle state included."""
        n = len(rounds[0])
        order = list(range(n))
        seed.shuffle(order)
        perm = np.asarray(order)
        straight = VectorThrottleGovernors(n)
        permuted = VectorThrottleGovernors(n)
        for peaks in rounds:
            peaks = np.asarray((peaks * n)[:n])
            a = straight.scale_commands(peaks)
            b = permuted.scale_commands(peaks[perm])
            assert np.array_equal(b, a[perm])
            assert np.array_equal(
                permuted.throttled, straight.throttled[perm]
            )


class TestElectrolyteStateArrayProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        n_lanes=st.integers(1, 4),
        draws=st.lists(
            st.tuples(
                st.floats(0.0, 50.0),  # requested current [A]
                st.floats(1e-3, 2.0),  # step [s]
            ),
            min_size=1,
            max_size=40,
        ),
        min_soc=st.floats(0.0, 0.5),
    )
    def test_array_draw_never_exceeds_exact_supply(
        self, n_lanes, draws, min_soc
    ):
        """Array lanes on microlitre tanks: drain them dry without ever
        tripping the negative-concentration guard, crossing the SOC
        floor, or sustaining more than requested. This is the array-form
        regression for the scalar ulp bug the ``(1 - 1e-12)`` exact-supply
        margin fixed — an unguarded array draw would raise
        ``OperatingPointError`` from inside ``step`` here."""
        array = tiny_array(n_lanes, min_soc)
        for requested, dt in draws:
            currents = np.full(n_lanes, requested)
            sustained = array.step(currents, dt)  # must not raise
            assert np.all(sustained >= 0.0)
            assert np.all(sustained <= requested + 1e-12)
            socs = array.state_of_charge
            assert np.all(socs >= 0.0)
            assert np.all(socs <= 1.0)
        if np.any(array.depleted):
            assert np.all(
                array.state_of_charge[array.depleted] >= min_soc - 1e-9
            )

    @settings(max_examples=15, deadline=None)
    @given(
        requested=st.floats(1.0, 50.0),
        dt=st.floats(0.1, 2.0),
        min_soc=st.floats(0.0, 0.5),
    )
    def test_array_matches_scalar_lane_for_lane(
        self, requested, dt, min_soc
    ):
        """Each array lane reproduces its scalar twin exactly through a
        drain-to-depletion sequence (same drawn currents, same SOC, same
        depletion step). The microlitre tanks hold a few coulombs, so
        the >= 0.1 C/step draws always deplete within the loop bound."""
        scalar = ElectrolyteState(loop=tiny_loop(), min_soc=min_soc)
        array = tiny_array(1, min_soc)
        for _ in range(200):
            ref = scalar.step(requested, dt)
            got = array.step(np.asarray([requested]), dt)
            assert float(got[0]) == ref
            assert float(array.state_of_charge[0]) == scalar.state_of_charge
            assert bool(array.depleted[0]) == scalar.depleted
            if scalar.depleted:
                break
        assert scalar.depleted
