"""Named counters, gauges, and histograms with a deterministic contract.

A :class:`MetricsRegistry` is the in-process store behind the
``repro.obs`` facade. Its snapshot is a plain ``dict`` split into
sections with different stability guarantees:

``counters`` / ``histograms``
    Deterministic: integer counts derived only from the work itself
    (scenarios evaluated, control steps run, solver columns factored).
    Byte-stable across runs — the determinism suite serialises exactly
    these two sections.

``warm``
    Counts that depend on process cache warmth (polarization-surface
    node builds, kept thermal-model misses). Real signal for perf
    debugging, but legitimately different between a cold and a warm
    process, so they live outside the deterministic contract.

``gauges``
    Last-write-wins observations (lane counts, table sizes). Excluded
    from the byte-stability contract: "last" is a report of the final
    call, not an aggregate of the work.

``timings``
    Wall-clock aggregates fed by the span tracer (``perf_counter``
    deltas). Never deterministic; determinism tests mask this section.

Counter and histogram values are integers, so their sums are exact — no
float-summation order sensitivity.
"""

from __future__ import annotations

import json
from typing import Any

#: Snapshot sections covered by the byte-stability contract.
DETERMINISTIC_SECTIONS: "tuple[str, ...]" = ("counters", "histograms")


def _add_sample(
    into: "dict[str, dict[str, int]]", name: str, sample: int
) -> None:
    bucket = into.get(name)
    if bucket is None:
        into[name] = {
            "count": 1, "total": sample, "min": sample, "max": sample
        }
        return
    bucket["count"] += 1
    bucket["total"] += sample
    bucket["min"] = min(bucket["min"], sample)
    bucket["max"] = max(bucket["max"], sample)


class MetricsRegistry:
    """Mutable metric store; one per observability session."""

    def __init__(self) -> None:
        self.counters: "dict[str, int]" = {}
        self.histograms: "dict[str, dict[str, int]]" = {}
        self.warm_counters: "dict[str, int]" = {}
        self.warm_histograms: "dict[str, dict[str, int]]" = {}
        self.gauges: "dict[str, float]" = {}
        self.timings: "dict[str, dict[str, float]]" = {}
        #: Total mutation calls received — the A20 overhead bench uses
        #: this to bound the instrumentation call volume of a workload.
        self.operations = 0

    def inc(self, name: str, value: int = 1, warm: bool = False) -> None:
        """Add ``value`` to the counter ``name``."""
        self.operations += 1
        store = self.warm_counters if warm else self.counters
        store[name] = store.get(name, 0) + int(value)

    def observe(self, name: str, value: int, warm: bool = False) -> None:
        """Record one integer sample into the histogram ``name``."""
        self.operations += 1
        store = self.warm_histograms if warm else self.histograms
        _add_sample(store, name, int(value))

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        self.operations += 1
        self.gauges[name] = value

    def timing(self, name: str, duration_s: float) -> None:
        """Accumulate one wall-clock duration under ``name``."""
        self.operations += 1
        bucket = self.timings.get(name)
        if bucket is None:
            self.timings[name] = {"count": 1, "total_s": duration_s}
        else:
            bucket["count"] += 1
            bucket["total_s"] += duration_s

    def snapshot(self) -> "dict[str, Any]":
        """A deep-copied, JSON-ready view of every section."""
        return {
            "counters": dict(self.counters),
            "histograms": {
                name: dict(fields)
                for name, fields in self.histograms.items()
            },
            "gauges": dict(self.gauges),
            "warm": {
                "counters": dict(self.warm_counters),
                "histograms": {
                    name: dict(fields)
                    for name, fields in self.warm_histograms.items()
                },
            },
            "timings": {
                name: dict(fields) for name, fields in self.timings.items()
            },
        }


def deterministic_sections(snapshot: "dict[str, Any]") -> "dict[str, Any]":
    """The byte-stable subset of a snapshot (counters + histograms)."""
    return {key: snapshot[key] for key in DETERMINISTIC_SECTIONS}


def dumps(snapshot: "dict[str, Any]") -> str:
    """Serialise a snapshot byte-stably (sorted keys, 2-space indent)."""
    return json.dumps(snapshot, sort_keys=True, indent=2) + "\n"
