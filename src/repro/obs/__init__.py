"""``repro.obs`` — span tracing, counters, and solver health metrics.

A pure-stdlib observability layer threaded through the sweep, opt,
runtime, and fleet stacks. Nothing records unless a session is started,
and every instrumentation site pays exactly one module-global check
when observability is off — the overhead contract that
``benchmarks/bench_a20_obs_overhead.py`` enforces (<2% on the flow
preset with tracing disabled).

Usage::

    from repro import obs

    obs.start()
    ...                      # run sweeps / engines as usual
    session = obs.stop()
    session.write_trace("trace.json")      # Chrome trace-event format
    session.write_metrics("metrics.json")  # sectioned snapshot

Call sites use the module facade (``obs.span(...)``, ``obs.inc(...)``,
``obs.observe(...)``, ``obs.gauge(...)``) with literal metric names;
the RPL306 lint rule cross-checks those names against the catalog in
``docs/observability.md`` in both directions.

The metric snapshot separates deterministic sections (byte-stable
across runs) from warmth-dependent and wall-clock sections — see
:mod:`repro.obs.metrics` for the contract.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional

from repro.obs.metrics import (
    DETERMINISTIC_SECTIONS,
    MetricsRegistry,
    deterministic_sections,
    dumps,
)
from repro.obs.trace import MAX_SPANS, Tracer

__all__ = [
    "COUNTER_NAMES",
    "DETERMINISTIC_SECTIONS",
    "MAX_SPANS",
    "MetricsRegistry",
    "ObsSession",
    "Tracer",
    "deterministic_sections",
    "dumps",
    "enabled",
    "gauge",
    "inc",
    "observe",
    "session",
    "snapshot",
    "span",
    "start",
    "stop",
]


#: Every deterministic counter the stack emits, preloaded to zero when a
#: session starts: the snapshot's counter key set is therefore identical
#: whatever subset of the stack a run exercises (a plain ``repro
#: runtime`` still reports ``sweep.cache.hits: 0``), which keeps the
#: byte-stability contract about *values*, not key presence. RPL306
#: cross-checks this tuple against the ``obs.inc`` call sites and the
#: catalog in ``docs/observability.md``.
COUNTER_NAMES = (
    "fleet.allocation.iterations",
    "fleet.steps",
    "opt.cache_hits",
    "opt.evaluations",
    "opt.rounds",
    "runtime.steps",
    "runtime.throttled_steps",
    "runtime.violation_steps",
    "serve.errors",
    "serve.jobs",
    "surface.interpolations",
    "sweep.cache.corrupt",
    "sweep.cache.evictions",
    "sweep.cache.hits",
    "sweep.cache.misses",
    "sweep.evaluations",
    "thermal.gmres.iterations",
    "thermal.steady.anchored_solves",
    "thermal.steady.factorizations",
    "thermal.steady.fallbacks",
    "thermal.steady.projected_solves",
    "thermal.steady.reanchors",
    "thermal.transient.column_steps",
)


class ObsSession:
    """One observability session: a tracer plus a metrics registry."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.tracer.registry = self.metrics
        for name in COUNTER_NAMES:
            self.metrics.counters[name] = 0

    def snapshot(self) -> "dict[str, Any]":
        return self.metrics.snapshot()

    def write_trace(self, path: "str | Path") -> Path:
        """Write the span tree as Chrome trace-event JSON."""
        target = Path(path)
        payload = dumps(self.tracer.chrome_trace())
        target.write_text(payload, encoding="utf-8")
        return target

    def write_metrics(self, path: "str | Path") -> Path:
        """Write the sectioned metrics snapshot as JSON."""
        target = Path(path)
        target.write_text(dumps(self.snapshot()), encoding="utf-8")
        return target


class _NoopSpan:
    """Shared do-nothing context manager for disabled sessions."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NOOP = _NoopSpan()

#: The active session, or ``None`` when observability is off. Every
#: facade function guards on this single global — the whole cost of an
#: instrumentation site while disabled.
_session: "Optional[ObsSession]" = None


def enabled() -> bool:
    """Whether an observability session is currently recording."""
    return _session is not None


def session() -> "Optional[ObsSession]":
    """The active session, or ``None``."""
    return _session


def start() -> ObsSession:
    """Install (and return) a fresh recording session."""
    global _session
    _session = ObsSession()
    return _session


def stop() -> "Optional[ObsSession]":
    """Detach and return the active session (``None`` if already off)."""
    global _session
    current = _session
    _session = None
    return current


def span(name: str, **attrs: "Any") -> "Any":
    """A context manager timing one named span (no-op when disabled)."""
    current = _session
    if current is None:
        return _NOOP
    return current.tracer.span(name, attrs)


def inc(name: str, value: int = 1, warm: bool = False) -> None:
    """Add to a counter (``warm=True`` for cache-warmth-dependent ones)."""
    current = _session
    if current is not None:
        current.metrics.inc(name, value, warm=warm)


def observe(name: str, value: int, warm: bool = False) -> None:
    """Record one integer histogram sample."""
    current = _session
    if current is not None:
        current.metrics.observe(name, value, warm=warm)


def gauge(name: str, value: float) -> None:
    """Set a last-write-wins gauge."""
    current = _session
    if current is not None:
        current.metrics.gauge(name, value)


def snapshot() -> "dict[str, Any]":
    """The active session's metrics snapshot (empty sections when off)."""
    current = _session
    if current is None:
        return MetricsRegistry().snapshot()
    return current.snapshot()
