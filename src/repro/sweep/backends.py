"""Pluggable evaluation backends for the sweep engine.

A backend answers one question — *how does a batch of unique, uncached
scenarios get evaluated?* — so :class:`~repro.sweep.runner.SweepRunner`
can keep its contract (dedup, memoization, input-order results) while the
execution strategy varies:

- :class:`SerialBackend` — evaluate in-process, one scenario at a time.
- :class:`ProcessBackend` — fan out over a ``concurrent.futures`` process
  pool (the historical ``n_workers > 1`` path, extracted verbatim).
- :class:`VectorizedBackend` — group compatible scenarios and evaluate
  them through the batch kernels of :mod:`repro.sweep.vectorized`: one
  polarization march per batch, one thermal factorization per scenario
  family (stacked right-hand sides + anchored GMRES). Evaluators without
  a batch kernel fall back to a configurable backend (serial by
  default), so *any* scenario mix is accepted.

All three produce the same metrics for the same specs — serial and
process bit-identically (same pure functions, different scheduling),
vectorized within :data:`~repro.sweep.vectorized.EQUIVALENCE_RTOL` (bit
for bit where a kernel shares every piece with its serial evaluator; see
:mod:`repro.sweep.vectorized`) — and
all three are selectable by name from the Python API
(``SweepRunner(backend="vectorized")``) and the CLI (``repro sweep
--backend vectorized``). ``tests/sweep/test_backends.py`` holds the
equivalence matrix; ``benchmarks/bench_a17_backend_speedup.py`` asserts
the vectorized backend's speedup over the process pool on the flow and
geometry presets.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from typing import Sequence, Tuple

from repro import obs
from repro.errors import ConfigurationError
from repro.sweep.evaluators import Evaluator
from repro.sweep.spec import ScenarioSpec

#: One unit of work: a resolved evaluator callable plus its spec. The
#: evaluator is resolved by the caller (in the parent process), so
#: registrations outside :mod:`repro.sweep.evaluators` survive spawn and
#: forkserver start methods.
EvaluationTask = Tuple[Evaluator, ScenarioSpec]

#: Names accepted by :func:`get_backend` / ``SweepRunner(backend=...)``.
BACKEND_NAMES = ("serial", "process", "vectorized")


def _timed_evaluate(
    task: EvaluationTask,
) -> "tuple[dict[str, float], float]":
    """Evaluate one task, returning (metrics, seconds).

    Module-level so :class:`ProcessPoolExecutor` can pickle it by
    reference.
    """
    evaluator, spec = task
    start = time.perf_counter()
    with obs.span("sweep.evaluate", evaluator=spec.evaluator):
        metrics = evaluator(spec)
    obs.inc("sweep.evaluations")
    return metrics, time.perf_counter() - start


def _observed_evaluate(
    task: EvaluationTask,
) -> "tuple[dict[str, float], float, dict[str, object]]":
    """Worker-side evaluate that also returns a metrics snapshot.

    Used by :class:`ProcessBackend` when an observability session is
    active in the parent: each worker records into a fresh session of
    its own and ships the mergeable snapshot back with the result (span
    *records* stay worker-local; only metric aggregates merge).
    Module-level for picklability, like :func:`_timed_evaluate`.
    """
    obs.start()
    try:
        metrics, elapsed = _timed_evaluate(task)
    finally:
        session = obs.stop()
    assert session is not None
    return metrics, elapsed, session.snapshot()


class EvaluationBackend:
    """Interface: evaluate unique scenario tasks, preserving order.

    Implementations must return one ``(metrics, elapsed_s)`` pair per
    task, in task order, and must not reorder, drop or deduplicate —
    the runner owns those concerns.
    """

    #: Registry name of the backend (``serial``, ``process``, ...).
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


class ProcessBackend(EvaluationBackend):
    """Process-pool fan-out of independent scenario evaluations.

    Workers run the same pure evaluator functions on the same specs, so
    results are bit-identical to :class:`SerialBackend`; only the
    scheduling differs. Single-task batches (and ``n_workers=1``) skip
    the pool entirely.
    """

    name = "process"

    def __init__(self, n_workers: int = 2) -> None:
        if n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1")
        self.n_workers = n_workers

    def evaluate(
        self, tasks: "Sequence[EvaluationTask]"
    ) -> "list[tuple[dict[str, float], float]]":
        if self.n_workers > 1 and len(tasks) > 1:
            workers = min(self.n_workers, len(tasks))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                if obs.enabled():
                    # Workers record into their own sessions and return
                    # mergeable snapshots; merging in task order keeps
                    # the parent's deterministic sections byte-stable
                    # regardless of pool scheduling (merge is exact
                    # integer addition, see repro.obs.metrics).
                    observed = list(pool.map(_observed_evaluate, tasks))
                    for _, _, worker_snapshot in observed:
                        obs.merge(worker_snapshot)
                    return [
                        (metrics, elapsed)
                        for metrics, elapsed, _ in observed
                    ]
                return list(pool.map(_timed_evaluate, tasks))
        return [_timed_evaluate(task) for task in tasks]


class VectorizedBackend(EvaluationBackend):
    """Grouped, numpy-batched evaluation of compatible scenarios.

    Tasks are partitioned by evaluator name; names with a batch kernel
    (see :data:`repro.sweep.vectorized.BATCH_KERNELS`) are evaluated as
    whole groups, everything else goes through ``fallback``. Per-scenario
    ``elapsed_s`` is the group's wall time split evenly — total sweep
    time stays meaningful even though scenarios are no longer priced
    individually.
    """

    name = "vectorized"

    def __init__(self, fallback: "EvaluationBackend | None" = None) -> None:
        self.fallback = fallback if fallback is not None else SerialBackend()

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
        if passthrough:
            evaluated = self.fallback.evaluate(
                [tasks[index] for index in passthrough]
            )
            for index, outcome in zip(passthrough, evaluated):
                results[index] = outcome
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]


def get_backend(
    backend: "str | EvaluationBackend | None", n_workers: int = 1
) -> EvaluationBackend:
    """Resolve a backend argument (name, instance or None) to an instance.

    ``None`` keeps the runner's historical behaviour: serial for
    ``n_workers == 1``, a process pool otherwise. A name from
    :data:`BACKEND_NAMES` builds the corresponding backend —
    ``"process"`` sized by ``n_workers`` (minimum 2, so selecting the
    process backend always actually fans out).
    """
    if isinstance(backend, EvaluationBackend):
        return backend
    if backend is None:
        if n_workers > 1:
            return ProcessBackend(n_workers)
        return SerialBackend()
    if backend == "serial":
        return SerialBackend()
    if backend == "process":
        return ProcessBackend(max(2, n_workers))
    if backend == "vectorized":
        return VectorizedBackend()
    raise ConfigurationError(
        f"unknown backend {backend!r}; available: {BACKEND_NAMES}"
    )
