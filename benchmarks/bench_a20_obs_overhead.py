"""Ablation A20 — the observability layer's disabled-cost contract.

``repro.obs`` promises that instrumentation is free when nobody asked
for it: every call site pays one module-global ``None`` check while no
session is recording (see the overhead contract in
docs/observability.md). This bench pins that promise numerically on the
A17 flow preset, with a methodology chosen to be robust to CI timing
noise — comparing two wall-clock runs of the same workload would need
the runs themselves to be stable to better than 2%, which shared CI
runners do not guarantee. Instead:

1. time the preset once with observability fully off (``T_off``),
2. run it once *enabled* to count the instrumentation call volume
   ``N`` (registry mutations + two facade touches per span),
3. micro-benchmark the per-call disabled cost ``c`` over a large batch
   of no-op facade calls,

and assert ``N * c < 2% * T_off``. Every term overestimates the true
overhead: ``c`` includes the timing loop's own bookkeeping, and ``N``
double-counts spans to cover the ``obs.enabled()`` fast-path checks in
the engine wrappers.
"""

import os
import time

from benchmarks.conftest import artifact, emit, obs_artifacts
from repro import obs
from repro.core.report import format_table
from repro.sweep import SweepRunner, get_preset
from repro.sweep.evaluators import _peak_temperature_c, clear_array_curves

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Grid density of the reference workload (the A17 flow preset).
POINTS = 8 if SMOKE else 16

#: Acceptance ceiling: disabled instrumentation adds < 2%.
MAX_OVERHEAD_FRACTION = 0.02

#: No-op facade calls in the per-call cost micro-benchmark.
MICROBENCH_CALLS = 200_000


def _cold_run(specs) -> float:
    """Wall time of one serial flow-preset run with every cache cold."""
    _peak_temperature_c.cache_clear()
    clear_array_curves()
    runner = SweepRunner()
    start = time.perf_counter()
    runner.run(specs)
    return time.perf_counter() - start


def _disabled_call_cost() -> float:
    """Per-call wall cost of a facade call with no session recording."""
    assert not obs.enabled()
    start = time.perf_counter()
    for _ in range(MICROBENCH_CALLS):
        obs.inc("a20.noop")
    return (time.perf_counter() - start) / MICROBENCH_CALLS


def test_a20_disabled_observability_overhead(benchmark):
    specs = get_preset("flow").expand(POINTS)

    # The autouse bench session would make the reference run *enabled*;
    # this bench measures the disabled path, so detach it first.
    obs.stop()

    def off_run():
        return _cold_run(specs)

    t_off_s = benchmark.pedantic(off_run, rounds=1, iterations=1)
    per_call_s = _disabled_call_cost()

    # Count the call volume by running the same workload instrumented.
    obs.start()
    try:
        _cold_run(specs)
        session = obs.session()
        operations = session.metrics.operations
        spans = sum(
            int(bucket["count"]) for bucket in session.metrics.timings.values()
        )
        obs_artifacts("A20")
    finally:
        obs.stop()

    n_calls = operations + 2 * spans
    overhead_s = n_calls * per_call_s
    fraction = overhead_s / t_off_s

    emit(
        f"A20 — disabled observability overhead on the 'flow' preset "
        f"({len(specs)} scenarios)",
        format_table(
            ["quantity", "value"],
            [
                ["uninstrumented wall [s]", t_off_s],
                ["facade calls (bound)", float(n_calls)],
                ["per-call disabled cost [ns]", per_call_s * 1e9],
                ["overhead bound [s]", overhead_s],
                ["overhead fraction", fraction],
            ],
        ),
    )
    artifact("A20", {
        "t_off_s": t_off_s,
        "facade_calls": float(n_calls),
        "per_call_disabled_ns": per_call_s * 1e9,
        "overhead_bound_s": overhead_s,
        "overhead_fraction": fraction,
    })
    # The contract: even a generous upper bound on what the disabled
    # layer can cost stays far inside 2% of the uninstrumented run.
    assert fraction < MAX_OVERHEAD_FRACTION
