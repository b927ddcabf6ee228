"""Workload traces: piecewise schedules the runtime engine executes.

The paper's central claim is *dynamic*: one coolant stream is modulated at
runtime so it simultaneously meets the chip's cooling and power-delivery
demands as the workload varies. A :class:`WorkloadTrace` is the workload
side of that story — a piecewise-constant schedule of operating points
(named :class:`~repro.casestudy.workloads.Workload` scenarios scaled by a
utilization factor) that :class:`~repro.runtime.engine.BatchedRuntimeEngine`
steps through while its controllers modulate flow and activity.

Synthetic generators cover the standard shapes a power-management study
needs: ``step`` (the bench A14 scenario as a trace), ``ramp`` (staircase
load growth), ``square`` (periodic batch duty cycle), ``bursty``
(seeded random bursts over a base load — deterministic for a given seed,
so traces memoize through the sweep cache), ``diurnal`` (a sinusoidal
day/night cycle compressed to the thermal time scale) and
``diurnal-bursty`` (the diurnal envelope with seeded flash-crowd bursts —
the fleet traffic model's default aggregate shape).

Utilization factors live in the same ``[0, 1.5]`` range as
:class:`~repro.casestudy.workloads.Workload` activity factors: ``1.0`` is
the full-load corner, values above it model short boost excursions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.casestudy.workloads import WORKLOAD_NAMES
from repro.errors import ConfigurationError

#: Utilization ceiling shared with Workload activity factors (boost range).
MAX_UTILIZATION = 1.5


@dataclass(frozen=True)
class TraceSegment:
    """One piecewise-constant stretch of a workload trace.

    Parameters
    ----------
    duration_s:
        How long the segment lasts (> 0).
    utilization:
        Uniform scaling of the workload's power map, in
        ``[0, MAX_UTILIZATION]`` (1.0 = the workload as defined, above
        1.0 = boost).
    workload:
        Named scenario from
        :func:`repro.casestudy.workloads.standard_workloads` whose power
        map the segment scales.
    """

    duration_s: float
    utilization: float
    workload: str = "full load"

    def __post_init__(self) -> None:
        # Written as ``not 0 < x < inf`` so NaN and inf fail the check too.
        if not 0.0 < self.duration_s < math.inf:
            raise ConfigurationError(
                f"duration_s must be finite and > 0 s, got {self.duration_s}"
            )
        if not 0.0 <= self.utilization <= MAX_UTILIZATION:
            raise ConfigurationError(
                f"utilization must be in [0, {MAX_UTILIZATION}], got "
                f"{self.utilization}"
            )
        if self.workload not in WORKLOAD_NAMES:
            raise ConfigurationError(
                f"unknown workload {self.workload!r}; expected one of "
                f"{WORKLOAD_NAMES}"
            )


@dataclass(frozen=True)
class WorkloadTrace:
    """A named piecewise-constant workload schedule.

    Segments are laid end to end starting at t = 0; segment ``i`` covers
    ``[start_i, start_i + duration_i)`` and the final segment is closed on
    the right, so every time in ``[0, duration_s]`` maps to exactly one
    segment.
    """

    name: str
    segments: "tuple[TraceSegment, ...]"

    def __post_init__(self) -> None:
        if not self.segments:
            raise ConfigurationError("a trace needs at least one segment")
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def duration_s(self) -> float:
        """Total trace length [s]."""
        return sum(segment.duration_s for segment in self.segments)

    @property
    def peak_utilization(self) -> float:
        """Largest utilization any segment commands."""
        return max(segment.utilization for segment in self.segments)

    def segment_at(self, time_s: float) -> TraceSegment:
        """The segment covering ``time_s`` (validated against the span)."""
        if not 0.0 <= time_s <= self.duration_s:
            raise ConfigurationError(
                f"time {time_s:g} s outside the trace span "
                f"[0, {self.duration_s:g}] s"
            )
        start = 0.0
        for segment in self.segments:
            start += segment.duration_s
            if time_s < start:
                return segment
        return self.segments[-1]

    def iter_steps(self, dt_s: float) -> "Iterator[tuple[float, float, TraceSegment]]":
        """``(t_start, step_dt, segment)`` covering the trace exactly.

        Steps are at most ``dt_s`` long and never straddle a segment
        boundary, so every step sees one constant operating point and the
        last step of each segment lands exactly on its boundary. Full
        steps carry ``dt_s`` *bit-exactly* (no float-accumulation
        jitter), with at most one shorter remainder step per segment —
        the runtime engine keys cached transient factorizations on the
        step size, so a trace must not manufacture near-identical sizes.
        """
        if not 0.0 < dt_s < math.inf:
            raise ConfigurationError(f"dt_s must be finite and > 0, got {dt_s}")
        start = 0.0
        for segment in self.segments:
            # Same float guard as the step-response stepper
            # (repro.cosim.batch.batched_step_responses): an exact
            # multiple (e.g. 0.25 / 0.05) yields only full steps rather
            # than growing a sliver remainder.
            n_full = int(segment.duration_s / dt_s + 1e-9)
            remainder = segment.duration_s - n_full * dt_s
            if remainder <= 1e-9 * dt_s:
                remainder = 0.0
            for i in range(n_full):
                yield start + i * dt_s, dt_s, segment
            if remainder > 0.0:
                yield start + n_full * dt_s, remainder, segment
            start += segment.duration_s


# -- synthetic generators ---------------------------------------------------------


def step_trace(
    utilization_before: float = 0.1,
    utilization_after: float = 1.0,
    hold_before_s: float = 0.5,
    hold_after_s: float = 1.5,
    workload: str = "full load",
) -> WorkloadTrace:
    """A single utilization step — the A14 step response as a trace."""
    return WorkloadTrace("step", (
        TraceSegment(hold_before_s, utilization_before, workload),
        TraceSegment(hold_after_s, utilization_after, workload),
    ))


def ramp_trace(
    utilization_start: float = 0.1,
    utilization_end: float = 1.0,
    duration_s: float = 2.0,
    n_segments: int = 8,
    workload: str = "full load",
) -> WorkloadTrace:
    """A staircase ramp between two utilizations (inclusive endpoints)."""
    if n_segments < 2:
        raise ConfigurationError("a ramp needs at least two segments")
    span = utilization_end - utilization_start
    return WorkloadTrace("ramp", tuple(
        TraceSegment(
            duration_s / n_segments,
            utilization_start + span * i / (n_segments - 1),
            workload,
        )
        for i in range(n_segments)
    ))


def square_trace(
    utilization_low: float = 0.1,
    utilization_high: float = 1.0,
    period_s: float = 1.0,
    duty: float = 0.5,
    n_cycles: int = 3,
    workload: str = "full load",
) -> WorkloadTrace:
    """A periodic batch duty cycle: high for ``duty`` of each period."""
    if not 0.0 < duty < 1.0:
        raise ConfigurationError(f"duty must be in (0, 1), got {duty}")
    if n_cycles < 1:
        raise ConfigurationError("need at least one cycle")
    segments = []
    for _ in range(n_cycles):
        segments.append(TraceSegment(duty * period_s, utilization_high, workload))
        segments.append(TraceSegment((1.0 - duty) * period_s, utilization_low, workload))
    return WorkloadTrace("square", tuple(segments))


def bursty_trace(
    base_utilization: float = 0.15,
    burst_utilization: float = 1.0,
    burst_probability: float = 0.35,
    segment_s: float = 0.25,
    n_segments: int = 16,
    seed: int = 7,
    workload: str = "full load",
) -> WorkloadTrace:
    """Seeded random bursts over a base load.

    The burst pattern is drawn from ``random.Random(seed)``, so the same
    seed always yields the same trace — bursty scenarios stay memoizable
    through the sweep cache. At least one burst is guaranteed (the draw
    with the highest propensity is promoted if none fired), so the trace
    is never degenerate.
    """
    if not 0.0 <= burst_probability <= 1.0:
        raise ConfigurationError(
            f"burst probability must be in [0, 1], got {burst_probability}"
        )
    if n_segments < 1:
        raise ConfigurationError("need at least one segment")
    rng = random.Random(seed)
    draws = [rng.random() for _ in range(n_segments)]
    bursts = [draw < burst_probability for draw in draws]
    if not any(bursts):
        bursts[draws.index(min(draws))] = True
    return WorkloadTrace("bursty", tuple(
        TraceSegment(
            segment_s,
            burst_utilization if burst else base_utilization,
            workload,
        )
        for burst in bursts
    ))


def diurnal_trace(
    utilization_min: float = 0.15,
    utilization_max: float = 1.0,
    period_s: float = 4.0,
    n_segments: int = 16,
    workload: str = "full load",
) -> WorkloadTrace:
    """One sinusoidal day/night cycle, staircase-discretised.

    The cycle starts and ends at the minimum (night); a real diurnal
    period is compressed to the thermal time scale so the engine sees the
    same shape without hour-long integrations.
    """
    if n_segments < 2:
        raise ConfigurationError("a diurnal cycle needs at least two segments")
    mid = 0.5 * (utilization_min + utilization_max)
    amplitude = 0.5 * (utilization_max - utilization_min)
    segments = []
    for i in range(n_segments):
        # Segment-centre phase, one full cycle starting at the trough.
        phase = 2.0 * math.pi * (i + 0.5) / n_segments
        utilization = mid - amplitude * math.cos(phase)
        segments.append(TraceSegment(period_s / n_segments, utilization, workload))
    return WorkloadTrace("diurnal", tuple(segments))


def diurnal_bursty_trace(
    utilization_min: float = 0.15,
    utilization_max: float = 0.85,
    burst_boost: float = 0.35,
    burst_probability: float = 0.3,
    period_s: float = 4.0,
    n_segments: int = 16,
    seed: int = 7,
    workload: str = "full load",
) -> WorkloadTrace:
    """A diurnal envelope with seeded bursts riding on top.

    The fleet traffic model's default aggregate shape: the day/night
    sinusoid of :func:`diurnal_trace` carries the predictable demand
    swing, while seeded random bursts (``random.Random(seed)``, so the
    trace memoizes like ``bursty``) model flash crowds. Boosted segments
    are clipped to ``MAX_UTILIZATION``.
    """
    if n_segments < 2:
        raise ConfigurationError("a diurnal cycle needs at least two segments")
    if not 0.0 <= burst_probability <= 1.0:
        raise ConfigurationError(
            f"burst probability must be in [0, 1], got {burst_probability}"
        )
    if burst_boost < 0.0:
        raise ConfigurationError(f"burst boost must be >= 0, got {burst_boost}")
    mid = 0.5 * (utilization_min + utilization_max)
    amplitude = 0.5 * (utilization_max - utilization_min)
    rng = random.Random(seed)
    segments = []
    for i in range(n_segments):
        # Segment-centre phase, one full cycle starting at the trough
        # (same discretisation as diurnal_trace).
        phase = 2.0 * math.pi * (i + 0.5) / n_segments
        utilization = mid - amplitude * math.cos(phase)
        if rng.random() < burst_probability:
            utilization = min(utilization + burst_boost, MAX_UTILIZATION)
        segments.append(TraceSegment(period_s / n_segments, utilization, workload))
    return WorkloadTrace("diurnal-bursty", tuple(segments))


#: Named builders for the sweep/CLI layers: every entry is deterministic
#: given (name, seed), which is exactly what ScenarioSpec memoization
#: needs. Only ``bursty`` and ``diurnal-bursty`` consume the seed.
_TRACE_BUILDERS: "dict[str, Callable[[int], WorkloadTrace]]" = {
    "step": lambda seed: step_trace(),
    "ramp": lambda seed: ramp_trace(),
    "square": lambda seed: square_trace(),
    "bursty": lambda seed: bursty_trace(seed=seed),
    "diurnal": lambda seed: diurnal_trace(),
    "diurnal-bursty": lambda seed: diurnal_bursty_trace(seed=seed),
}

#: Names accepted by :func:`standard_trace` (and the ``trace`` spec field).
TRACE_NAMES = tuple(sorted(_TRACE_BUILDERS))


def standard_trace(name: str, seed: int = 7) -> WorkloadTrace:
    """Build one of the named standard traces (deterministic per seed)."""
    try:
        builder = _TRACE_BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown trace {name!r}; available: {TRACE_NAMES}"
        ) from None
    return builder(seed)
