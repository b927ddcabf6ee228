"""Evaluation backends for the sweep engine.

A backend answers one question — *how wide are the batches that unique,
uncached scenarios are evaluated in?* — so
:class:`~repro.sweep.runner.SweepRunner` can keep its contract (dedup,
memoization, input-order results) while the batching varies. Both run
the one loop, :func:`evaluate_batches`, which groups scenarios by
evaluator and calls each registered evaluator
(:mod:`repro.sweep.evaluators`) on its batches:

- :class:`VectorizedBackend` — one call per evaluator group: one
  polarization march per batch, one thermal factorization per scenario
  family (stacked right-hand sides + one shared Krylov space). This is
  the default.
- :class:`SerialBackend` — batches of one: each scenario is evaluated on
  its own, with nothing shared across scenarios.

Both produce the same metrics for the same specs — within
:data:`~repro.sweep.vectorized.EQUIVALENCE_RTOL`, bit for bit where an
evaluator's batch members share no floating-point work (see
:mod:`repro.sweep.vectorized`) — and both are selectable by name from the
Python API (``SweepRunner(backend="serial")``) and the CLI (``repro
sweep --backend serial``). ``tests/sweep/test_backends.py`` holds the
batch-of-one-vs-batch contract; ``benchmarks/bench_a17_backend_speedup.py``
races the two widths on the flow and geometry presets.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro import obs
from repro.errors import ConfigurationError
from repro.sweep.evaluators import get_evaluator
from repro.sweep.spec import ScenarioSpec

#: Names accepted by :func:`get_backend` / ``SweepRunner(backend=...)``.
BACKEND_NAMES = ("serial", "vectorized")


def evaluate_batches(
    specs: "Sequence[ScenarioSpec]", width: "int | None",
) -> "list[tuple[dict[str, float], float]]":
    """Evaluate specs through their registered evaluators, in batches.

    Specs are grouped by evaluator name, and each group is handed to its
    evaluator in batches of at most ``width`` specs (``None``: the whole
    group). Returns one ``(metrics, elapsed_s)`` pair per spec, in spec
    order; ``elapsed_s`` is the batch's wall time split evenly.
    """
    groups: "dict[str, list[int]]" = {}
    for index, spec in enumerate(specs):
        groups.setdefault(spec.evaluator, []).append(index)

    results: "list[tuple[dict[str, float], float] | None]"
    results = [None] * len(specs)
    for name, indices in groups.items():
        evaluate = get_evaluator(name)
        step = width or len(indices)
        for first in range(0, len(indices), step):
            batch = indices[first:first + step]
            start = time.perf_counter()
            with obs.span("sweep.batch", evaluator=name, size=len(batch)):
                metrics = evaluate([specs[index] for index in batch])
            obs.observe("sweep.batch.size", len(batch))
            obs.inc("sweep.evaluations", len(batch))
            share = (time.perf_counter() - start) / len(batch)
            for index, scenario_metrics in zip(batch, metrics):
                results[index] = (scenario_metrics, share)
    assert all(result is not None for result in results)
    return results  # type: ignore[return-value]


class EvaluationBackend:
    """Interface: evaluate unique scenarios, preserving order.

    Implementations must return one ``(metrics, elapsed_s)`` pair per
    spec, in spec order, and must not reorder, drop or deduplicate —
    the runner owns those concerns.
    """

    #: Registry name of the backend (``serial`` or ``vectorized``).
    name: str
    #: Most specs one evaluator call receives (``None``: a whole group).
    width: "int | None" = None

    def evaluate(
        self, specs: "Sequence[ScenarioSpec]"
    ) -> "list[tuple[dict[str, float], float]]":
        raise NotImplementedError


class SerialBackend(EvaluationBackend):
    """Batches of one: every scenario evaluated on its own."""

    name = "serial"
    width = 1

    def evaluate(
        self, specs: "Sequence[ScenarioSpec]"
    ) -> "list[tuple[dict[str, float], float]]":
        return evaluate_batches(specs, self.width)


class VectorizedBackend(EvaluationBackend):
    """One batch per evaluator group: the default."""

    name = "vectorized"
    width = None

    def evaluate(
        self, specs: "Sequence[ScenarioSpec]"
    ) -> "list[tuple[dict[str, float], float]]":
        return evaluate_batches(specs, self.width)


def get_backend(
    backend: "str | EvaluationBackend | None",
) -> EvaluationBackend:
    """Resolve a backend argument (name, instance or None) to an instance.

    ``None`` is vectorized. A name from :data:`BACKEND_NAMES` builds the
    corresponding backend.
    """
    if isinstance(backend, EvaluationBackend):
        return backend
    if backend is None or backend == "vectorized":
        return VectorizedBackend()
    if backend == "serial":
        return SerialBackend()
    raise ConfigurationError(
        f"unknown backend {backend!r}; available: {BACKEND_NAMES}"
    )
