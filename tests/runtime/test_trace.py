"""Tests for workload traces and the synthetic generators."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime.trace import (
    MAX_UTILIZATION,
    TRACE_NAMES,
    TraceSegment,
    WorkloadTrace,
    bursty_trace,
    diurnal_bursty_trace,
    diurnal_trace,
    ramp_trace,
    square_trace,
    standard_trace,
    step_trace,
)


class TestTraceSegment:
    def test_boundary_utilizations_accepted(self):
        for utilization in (0.0, 1.0, MAX_UTILIZATION):
            TraceSegment(1.0, utilization)

    @pytest.mark.parametrize("kwargs", [
        {"duration_s": 0.0, "utilization": 0.5},
        {"duration_s": -1.0, "utilization": 0.5},
        {"duration_s": 1.0, "utilization": -0.01},
        {"duration_s": 1.0, "utilization": MAX_UTILIZATION + 0.01},
        {"duration_s": 1.0, "utilization": 0.5, "workload": "nope"},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            TraceSegment(**kwargs)

    def test_named_workloads_accepted(self):
        assert TraceSegment(1.0, 0.5, "memory bound").workload == "memory bound"


class TestWorkloadTrace:
    def trace(self):
        return WorkloadTrace("t", (
            TraceSegment(0.5, 0.1),
            TraceSegment(1.0, 1.0, "memory bound"),
        ))

    def test_needs_segments(self):
        with pytest.raises(ConfigurationError):
            WorkloadTrace("empty", ())

    def test_duration_and_peak(self):
        trace = self.trace()
        assert trace.duration_s == pytest.approx(1.5)
        assert trace.peak_utilization == 1.0

    def test_segment_lookup_half_open(self):
        trace = self.trace()
        assert trace.segment_at(0.0).utilization == 0.1
        assert trace.segment_at(0.499).utilization == 0.1
        # Boundaries belong to the next segment...
        assert trace.segment_at(0.5).utilization == 1.0
        assert trace.segment_at(0.5).workload == "memory bound"
        # ...except the trace end, which the last segment closes.
        assert trace.segment_at(1.5).utilization == 1.0

    def test_lookup_outside_span_raises(self):
        trace = self.trace()
        with pytest.raises(ConfigurationError):
            trace.segment_at(-0.1).utilization
        with pytest.raises(ConfigurationError):
            trace.segment_at(1.6).utilization

    def test_iter_steps_covers_exactly(self):
        trace = self.trace()
        steps = list(trace.iter_steps(0.2))
        # Steps never straddle segment boundaries: the 0.5 s segment
        # yields 0.2 + 0.2 + 0.1.
        assert sum(dt for _, dt, _ in steps) == pytest.approx(trace.duration_s)
        assert steps[2][1] == pytest.approx(0.1)
        assert all(dt <= 0.2 + 1e-12 for _, dt, _ in steps)
        # Each step sees the segment covering its start time.
        for t_start, _, segment in steps:
            assert segment is trace.segment_at(t_start)

    def test_iter_steps_exact_multiple_has_no_sliver(self):
        trace = WorkloadTrace("t", (TraceSegment(0.5, 1.0),))
        steps = list(trace.iter_steps(0.05))
        assert len(steps) == 10
        # Bit-exact, not approximately: the runtime engine keys cached
        # transient factorizations on the step size, so full steps must
        # all carry the same float.
        assert {dt for _, dt, _ in steps} == {0.05}

    def test_iter_steps_full_steps_carry_one_float(self):
        """Regression: float accumulation across many segments must not
        manufacture near-identical step sizes (each distinct size costs
        a sparse LU factorization downstream)."""
        trace = bursty_trace(segment_s=0.25, n_segments=16)
        sizes = {dt for _, dt, _ in trace.iter_steps(0.05)}
        assert sizes == {0.05}

    def test_iter_steps_validates_dt(self):
        with pytest.raises(ConfigurationError):
            list(self.trace().iter_steps(0.0))


class TestGenerators:
    def test_step_shape(self):
        trace = step_trace(0.1, 1.0, hold_before_s=0.5, hold_after_s=1.5)
        assert trace.duration_s == pytest.approx(2.0)
        assert [s.utilization for s in trace.segments] == [0.1, 1.0]

    def test_ramp_endpoints_inclusive(self):
        trace = ramp_trace(0.2, 1.0, duration_s=2.0, n_segments=5)
        utils = [s.utilization for s in trace.segments]
        assert utils[0] == pytest.approx(0.2)
        assert utils[-1] == pytest.approx(1.0)
        assert utils == sorted(utils)

    def test_ramp_needs_two_segments(self):
        with pytest.raises(ConfigurationError):
            ramp_trace(n_segments=1)

    def test_square_duty_cycle(self):
        trace = square_trace(0.1, 1.0, period_s=1.0, duty=0.25, n_cycles=2)
        assert trace.duration_s == pytest.approx(2.0)
        high = sum(s.duration_s for s in trace.segments if s.utilization == 1.0)
        assert high == pytest.approx(0.5)

    def test_square_validates(self):
        with pytest.raises(ConfigurationError):
            square_trace(duty=1.0)
        with pytest.raises(ConfigurationError):
            square_trace(n_cycles=0)

    def test_bursty_deterministic_per_seed(self):
        assert bursty_trace(seed=3) == bursty_trace(seed=3)
        assert bursty_trace(seed=3) != bursty_trace(seed=4)

    def test_bursty_always_has_a_burst(self):
        # Probability 0 would yield a flat trace; the guard promotes the
        # most burst-prone draw instead.
        trace = bursty_trace(burst_probability=0.0, n_segments=8, seed=1)
        assert trace.peak_utilization == 1.0
        assert sum(1 for s in trace.segments if s.utilization == 1.0) == 1

    def test_diurnal_trough_to_trough(self):
        trace = diurnal_trace(0.2, 1.0, n_segments=8)
        utils = [s.utilization for s in trace.segments]
        # Starts and ends near the trough, peaks mid-cycle.
        assert utils[0] < 0.4
        assert utils[-1] < 0.4
        assert max(utils) > 0.9
        assert all(0.2 <= u <= 1.0 for u in utils)

    def test_diurnal_bursty_rides_the_diurnal_envelope(self):
        """Bursts only ever *add* load on top of the plain diurnal
        cycle, clipped to the utilization ceiling."""
        base = diurnal_trace(0.15, 0.85, n_segments=16)
        busy = diurnal_bursty_trace(seed=3)
        assert len(busy.segments) == len(base.segments)
        for quiet, burst in zip(base.segments, busy.segments):
            assert quiet.utilization <= burst.utilization <= MAX_UTILIZATION
        # The seed must fire at least one burst somewhere.
        assert any(
            burst.utilization > quiet.utilization
            for quiet, burst in zip(base.segments, busy.segments)
        )

    def test_diurnal_bursty_deterministic_per_seed(self):
        assert diurnal_bursty_trace(seed=3) == diurnal_bursty_trace(seed=3)
        assert diurnal_bursty_trace(seed=3) != diurnal_bursty_trace(seed=4)

    def test_diurnal_bursty_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            diurnal_bursty_trace(burst_probability=1.5)
        with pytest.raises(ConfigurationError):
            diurnal_bursty_trace(burst_boost=-0.1)
        with pytest.raises(ConfigurationError):
            diurnal_bursty_trace(n_segments=1)

    def test_standard_trace_registry(self):
        assert TRACE_NAMES == (
            "bursty", "diurnal", "diurnal-bursty", "ramp", "square", "step"
        )
        for name in TRACE_NAMES:
            assert standard_trace(name).segments
        with pytest.raises(ConfigurationError, match="bursty"):
            standard_trace("nope")

    def test_standard_trace_seed_only_moves_bursty(self):
        assert standard_trace("step", seed=1) == standard_trace("step", seed=2)
        for name in ("bursty", "diurnal-bursty"):
            assert standard_trace(name, seed=1) != standard_trace(
                name, seed=2
            )
