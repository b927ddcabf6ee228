"""Trace-driven closed-loop runtime engine.

The static layers of the library answer "where does the system settle"
(:mod:`repro.cosim`) and "which design point is best" (:mod:`repro.opt`);
this package answers the paper's *runtime* claim — one coolant stream
modulated online so it keeps meeting the chip's cooling and
power-delivery demands as workload varies:

- :mod:`repro.runtime.trace` — piecewise workload schedules and the
  synthetic generators (step, ramp, square, bursty, diurnal);
- :mod:`repro.runtime.controllers` — flow-control policies (fixed, PI
  on peak junction temperature) and the lane-array control law that runs
  them, with the hysteresis throttle governor every lane runs;
- :mod:`repro.runtime.state` — electrolyte reservoir state-of-charge
  along a trace (the flow-battery storage side), one fresh case-study
  reservoir per lane;
- :mod:`repro.runtime.engine` — :class:`BatchedRuntimeEngine`, the one
  stepper tying them together: it advances one or many scenario lanes
  per control interval (vector controllers, array SOC, thermal steps
  sharing one kept model per flow) into :class:`RuntimeResult` time series
  with energy/thermal KPIs. A single scenario is a one-lane run.

The ``runtime`` sweep evaluator, the ``runtime-pid`` optimization preset
and the ``repro runtime`` CLI command are thin wrappers over this
package; bench A16 asserts its headline result (closed-loop flow control
beats the paper's fixed nominal flow on net energy without violating the
85 degC junction limit).
"""

from repro.runtime.controllers import (
    FixedFlow,
    PIDFlowController,
    VectorFlowControllers,
    VectorThrottleGovernors,
)
from repro.runtime.engine import (
    BatchedRuntimeEngine,
    RuntimeConfig,
    RuntimeResult,
    RuntimeSample,
)
from repro.runtime.state import ElectrolyteStateArray, build_case_study_loop
from repro.runtime.trace import (
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

__all__ = [
    "TRACE_NAMES",
    "BatchedRuntimeEngine",
    "ElectrolyteStateArray",
    "FixedFlow",
    "PIDFlowController",
    "RuntimeConfig",
    "RuntimeResult",
    "RuntimeSample",
    "VectorFlowControllers",
    "VectorThrottleGovernors",
    "TraceSegment",
    "WorkloadTrace",
    "build_case_study_loop",
    "bursty_trace",
    "diurnal_bursty_trace",
    "diurnal_trace",
    "ramp_trace",
    "square_trace",
    "standard_trace",
    "step_trace",
]
