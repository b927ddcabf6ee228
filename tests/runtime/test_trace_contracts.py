"""Contract tests every named standard trace must honour.

The runtime engine, the ``runtime`` sweep preset and the CLI's
``--trace`` flag all resolve traces by name through
:func:`~repro.runtime.trace.standard_trace`; each registered name is
checked here for the properties those callers rely on.
"""

import math

import pytest

from repro.runtime.trace import MAX_UTILIZATION, TRACE_NAMES, standard_trace

#: Step size of the runtime engine's default control period.
DT_S = 0.05


@pytest.fixture(params=TRACE_NAMES)
def name(request):
    return request.param


def test_trace_carries_its_registry_name(name):
    assert standard_trace(name).name == name


def test_deterministic_per_seed(name):
    assert standard_trace(name, seed=11) == standard_trace(name, seed=11)


def test_utilization_within_actuator_range(name):
    trace = standard_trace(name)
    assert all(
        0.0 <= segment.utilization <= MAX_UTILIZATION
        for segment in trace.segments
    )
    assert trace.peak_utilization == max(s.utilization for s in trace.segments)


def test_steps_tile_the_span(name):
    trace = standard_trace(name)
    steps = list(trace.iter_steps(DT_S))
    assert steps[0][0] == 0.0
    for (t0, dt, _), (t1, _, _) in zip(steps, steps[1:]):
        assert t1 == pytest.approx(t0 + dt, abs=1e-12)
    assert math.fsum(dt for _, dt, _ in steps) == pytest.approx(
        trace.duration_s, rel=1e-12
    )


def test_each_step_sees_the_segment_at_its_midpoint(name):
    trace = standard_trace(name)
    for t_start, dt, segment in trace.iter_steps(DT_S):
        assert trace.segment_at(t_start + 0.5 * dt) is segment


def test_span_endpoints_map_to_first_and_last_segment(name):
    trace = standard_trace(name)
    assert trace.segment_at(0.0) is trace.segments[0]
    assert trace.segment_at(trace.duration_s) is trace.segments[-1]
