"""Pluggable evaluation backends for the sweep engine.

A backend answers one question — *how does a batch of unique, uncached
scenarios get evaluated?* — so :class:`~repro.sweep.runner.SweepRunner`
can keep its contract (dedup, memoization, input-order results) while the
execution strategy varies:

- :class:`SerialBackend` — evaluate in-process, one scenario at a time
  through the scalar evaluators: the independent oracle.
- :class:`VectorizedBackend` — group compatible scenarios and evaluate
  them through the batch kernels of :mod:`repro.sweep.vectorized`: one
  polarization march per batch, one thermal factorization per scenario
  family (stacked right-hand sides + one shared Krylov space).
  Evaluators without a batch kernel go through the serial path, so
  *any* scenario mix is accepted. This is the production path.

Both produce the same metrics for the same specs — within
:data:`~repro.sweep.vectorized.EQUIVALENCE_RTOL`, bit for bit where a
kernel shares every piece with its serial evaluator (see
:mod:`repro.sweep.vectorized`) — and both are selectable by name from the
Python API (``SweepRunner(backend="vectorized")``) and the CLI (``repro
sweep --backend vectorized``). ``tests/sweep/test_backends.py`` holds the
oracle-vs-kernel contract; ``benchmarks/bench_a17_backend_speedup.py``
asserts the vectorized backend's speedup over the serial oracle on the
flow and geometry presets.
"""

from __future__ import annotations

import time
from typing import Sequence, Tuple

from repro import obs
from repro.errors import ConfigurationError
from repro.sweep.evaluators import Evaluator
from repro.sweep.spec import ScenarioSpec

#: One unit of work: a resolved evaluator callable plus its spec.
EvaluationTask = Tuple[Evaluator, ScenarioSpec]

#: Names accepted by :func:`get_backend` / ``SweepRunner(backend=...)``.
BACKEND_NAMES = ("serial", "vectorized")


def _timed_evaluate(
    task: EvaluationTask,
) -> "tuple[dict[str, float], float]":
    """Evaluate one task, returning (metrics, seconds)."""
    evaluator, spec = task
    start = time.perf_counter()
    with obs.span("sweep.evaluate", evaluator=spec.evaluator):
        metrics = evaluator(spec)
    obs.inc("sweep.evaluations")
    return metrics, time.perf_counter() - start


class EvaluationBackend:
    """Interface: evaluate unique scenario tasks, preserving order.

    Implementations must return one ``(metrics, elapsed_s)`` pair per
    task, in task order, and must not reorder, drop or deduplicate —
    the runner owns those concerns.
    """

    #: Registry name of the backend (``serial`` or ``vectorized``).
    name: str

    def evaluate(
        self, tasks: "Sequence[EvaluationTask]"
    ) -> "list[tuple[dict[str, float], float]]":
        raise NotImplementedError


class SerialBackend(EvaluationBackend):
    """In-process, one-at-a-time evaluation — the reference semantics."""

    name = "serial"

    def evaluate(
        self, tasks: "Sequence[EvaluationTask]"
    ) -> "list[tuple[dict[str, float], float]]":
        return [_timed_evaluate(task) for task in tasks]


class VectorizedBackend(EvaluationBackend):
    """Grouped, numpy-batched evaluation of compatible scenarios.

    Tasks are partitioned by evaluator name; names with a batch kernel
    (see :data:`repro.sweep.vectorized.BATCH_KERNELS`) are evaluated as
    whole groups, everything else one at a time, as :class:`SerialBackend`
    does. Per-scenario ``elapsed_s`` is the group's wall time split
    evenly — total sweep time stays meaningful even though scenarios are
    no longer priced individually.
    """

    name = "vectorized"

    def evaluate(
        self, tasks: "Sequence[EvaluationTask]"
    ) -> "list[tuple[dict[str, float], float]]":
        from repro.sweep.vectorized import BATCH_KERNELS

        groups: "dict[str, list[int]]" = {}
        passthrough: "list[int]" = []
        for index, (_, spec) in enumerate(tasks):
            if spec.evaluator in BATCH_KERNELS:
                groups.setdefault(spec.evaluator, []).append(index)
            else:
                passthrough.append(index)

        results: "list[tuple[dict[str, float], float] | None]"
        results = [None] * len(tasks)
        for name, indices in groups.items():
            specs = [tasks[index][1] for index in indices]
            start = time.perf_counter()
            with obs.span("sweep.batch", evaluator=name, size=len(indices)):
                metrics = BATCH_KERNELS[name](specs)
            obs.observe("sweep.batch.size", len(indices))
            obs.inc("sweep.evaluations", len(indices))
            share = (time.perf_counter() - start) / len(indices)
            for index, scenario_metrics in zip(indices, metrics):
                results[index] = (scenario_metrics, share)
        for index in passthrough:
            results[index] = _timed_evaluate(tasks[index])
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]


def get_backend(
    backend: "str | EvaluationBackend | None",
) -> EvaluationBackend:
    """Resolve a backend argument (name, instance or None) to an instance.

    ``None`` is serial. A name from :data:`BACKEND_NAMES` builds the
    corresponding backend.
    """
    if isinstance(backend, EvaluationBackend):
        return backend
    if backend is None or backend == "serial":
        return SerialBackend()
    if backend == "vectorized":
        return VectorizedBackend()
    raise ConfigurationError(
        f"unknown backend {backend!r}; available: {BACKEND_NAMES}"
    )
