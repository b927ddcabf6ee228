"""Batched execution of scenario sweeps.

:class:`SweepRunner` turns a list of :class:`~repro.sweep.spec.ScenarioSpec`
(or a :class:`~repro.sweep.spec.SweepGrid`) into
:class:`SweepResult` records. It deduplicates physically identical specs,
memoizes evaluations in the content-addressed
:class:`repro.store.ResultStore`, in-memory with an optional shared disk
directory safe for concurrent multi-process writers — and hands
the remaining unique work to an
:class:`~repro.sweep.backends.EvaluationBackend`, which picks the batch
width: one batch per evaluator group (vectorized, the default) or
batches of one (serial); see :mod:`repro.sweep.backends`.

Results come back in input order regardless of backend, and the two
widths agree within :data:`repro.sweep.vectorized.EQUIVALENCE_RTOL`.
A runner solves a batch-dependent result (``batch_exact=False``) that
the store has evicted again in the batch it first solved it in, so a
replayed run returns its first run's bytes whatever the store evicted.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from repro import obs
from repro.errors import ConfigurationError
from repro.store import ResultStore
from repro.sweep.backends import EvaluationBackend, get_backend
from repro.sweep.evaluators import batch_exact, get_evaluator
from repro.sweep.spec import ScenarioSpec, SweepGrid


#: Batch-dependent results whose batch a runner remembers, so it can
#: solve them again in that batch once the store has evicted them.
REMEMBERED_KEYS = 4096


@dataclass(frozen=True)
class SweepResult:
    """One evaluated scenario."""

    spec: ScenarioSpec
    metrics: "dict[str, float]"
    elapsed_s: float
    from_cache: bool

    def record(self) -> "dict[str, object]":
        """Flat spec-fields + metrics dict for CSV/JSON export.

        A metric that collides with a spec field name is prefixed with
        ``metric_`` rather than silently overwriting the input column.
        """
        row: "dict[str, object]" = {
            name: getattr(self.spec, name)
            for name in self.spec.field_names()
        }
        for name, value in self.metrics.items():
            key = f"metric_{name}" if name in row else name
            row[key] = value
        return row


class SweepResults(Sequence):
    """Ordered collection of :class:`SweepResult` with export helpers."""

    def __init__(self, results: "Sequence[SweepResult]") -> None:
        self._results = tuple(results)

    def __len__(self) -> int:
        return len(self._results)

    def __getitem__(self, index):
        picked = self._results[index]
        if isinstance(index, slice):
            return SweepResults(picked)
        return picked

    def __iter__(self) -> "Iterator[SweepResult]":
        return iter(self._results)

    # -- views -------------------------------------------------------------------

    def records(self) -> "list[dict[str, object]]":
        """Flat export records, one per scenario, in input order."""
        return [result.record() for result in self._results]

    def metric(self, name: str) -> "list[float]":
        """One metric across all scenarios.

        Raises if any result lacks it (mixed-evaluator sweeps share only
        some metrics); the error lists the metrics common to every
        result.
        """
        try:
            return [result.metrics[name] for result in self._results]
        except KeyError:
            common = set(self._results[0].metrics)
            for result in self._results[1:]:
                common &= set(result.metrics)
            raise ConfigurationError(
                f"metric {name!r} not present in every result; metrics "
                f"common to all results: {sorted(common)}"
            ) from None

    def varying_fields(self) -> "list[str]":
        """Spec fields that take more than one value across the sweep."""
        names = []
        for name in ScenarioSpec.field_names():
            values = {getattr(r.spec, name) for r in self._results}
            if len(values) > 1:
                names.append(name)
        return names

    def table(self, columns: "list[str] | None" = None) -> str:
        """Aligned text table of the sweep.

        Default columns: the spec fields that actually vary, then every
        metric (in first-result order).
        """
        from repro.core.report import format_table

        if not self._results:
            return "(empty sweep)"
        if columns is None:
            # Metric columns via the record's naming, so metrics that
            # collide with spec fields show as metric_<name>, matching
            # the exports.
            spec_fields = set(ScenarioSpec.field_names())
            first = self._results[0].record()
            columns = self.varying_fields() + [
                key for key in first if key not in spec_fields
            ]
        rows = [
            [record.get(column, "") for column in columns]
            for record in self.records()
        ]
        return format_table(list(columns), rows)

    # -- persistence ------------------------------------------------------------------

    def save_csv(self, path: "str | Path") -> Path:
        """Write the records as CSV; returns the path written."""
        from repro.io import save_csv

        return save_csv(self.records(), path)

    def save_json(self, path: "str | Path") -> Path:
        """Write the records as JSON; returns the path written."""
        from repro.io import save_json

        return save_json(self.records(), path)

    @property
    def total_elapsed_s(self) -> float:
        """Summed evaluation wall time (cache hits contribute zero)."""
        return sum(result.elapsed_s for result in self._results)


class SweepRunner:
    """Executes scenario batches with dedup and memoization.

    Parameters
    ----------
    cache:
        Shared :class:`~repro.store.ResultStore`, keyed on
        :meth:`ScenarioSpec.cache_key`; defaults to a fresh in-memory
        store per runner.
    backend:
        Evaluation strategy for unique, uncached specs: a backend name
        (``"serial"``, ``"vectorized"``), an
        :class:`~repro.sweep.backends.EvaluationBackend` instance, or
        ``None`` for vectorized. See :mod:`repro.sweep.backends`.
    """

    def __init__(
        self,
        cache: "ResultStore | None" = None,
        backend: "str | EvaluationBackend | None" = None,
    ) -> None:
        self.cache = cache if cache is not None else ResultStore()
        self.backend = get_backend(backend)
        #: The keys of the batch each batch-dependent result was solved
        #: in, by the result's key (the latest REMEMBERED_KEYS results).
        self._solved_with: "dict[str, frozenset[str]]" = {}

    def run(
        self, scenarios: "Sequence[ScenarioSpec] | SweepGrid"
    ) -> SweepResults:
        """Evaluate every scenario, returning results in input order.

        Accepts either an explicit spec list or a
        :class:`~repro.sweep.spec.SweepGrid` (expanded against a default
        base spec). Physically identical specs are evaluated once; a
        spec already in the cache is not evaluated at all, so reusing a
        runner (or sharing its store) across studies makes
        overlapping grids nearly free — this is what the
        :mod:`repro.opt` refinement loop builds on.

        Example
        -------
        >>> from repro.sweep import ScenarioSpec, SweepGrid, SweepRunner
        >>> runner = SweepRunner()
        >>> grid = SweepGrid.from_dict(
        ...     {"total_flow_ml_min": [338.0, 676.0]})
        >>> results = runner.run(grid.expand(ScenarioSpec()))
        >>> [round(r.metrics["peak_temperature_c"], 1) for r in results]
        [46.3, 42.0]
        >>> runner.run(grid.expand(ScenarioSpec()))[0].from_cache
        True
        """
        if isinstance(scenarios, SweepGrid):
            specs = scenarios.expand()
        else:
            specs = list(scenarios)
        if not obs.enabled():
            return self._run_specs(specs)
        before = self.cache.stats()
        with obs.span(
            "sweep.run", scenarios=len(specs), backend=self.backend.name
        ):
            results = self._run_specs(specs)
        after = self.cache.stats()
        # Deltas, not totals: a shared cache may carry counts from
        # earlier runs. Always emitted (even when zero) so the counter
        # set itself is identical across runs and backends.
        obs.inc("sweep.cache.hits", after["hits"] - before["hits"])
        obs.inc("sweep.cache.misses", after["misses"] - before["misses"])
        obs.inc("sweep.cache.corrupt", after["corrupt"] - before["corrupt"])
        obs.inc("sweep.cache.evictions", after["evicted"] - before["evicted"])
        return results

    def _run_specs(self, specs: "list[ScenarioSpec]") -> SweepResults:
        results: "list[SweepResult | None]" = [None] * len(specs)

        # Group physically identical specs, then consult the cache once
        # per unique key (so in-run duplicates don't inflate the miss
        # count) and partition into hits and pending work.
        by_key: "dict[str, list[int]]" = {}
        for index, spec in enumerate(specs):
            by_key.setdefault(spec.cache_key(), []).append(index)

        pending: "dict[str, list[int]]" = {}
        for key, indices in by_key.items():
            cached = self.cache.get(key)
            if cached is not None:
                for index in indices:
                    results[index] = SweepResult(
                        specs[index], dict(cached), 0.0, True
                    )
            else:
                # Fail fast on an unknown evaluator before any work runs.
                get_evaluator(specs[indices[0]].evaluator)
                pending[key] = indices

        for batch, claimed in self._batches(specs, by_key, pending):
            evaluated = self.backend.evaluate(
                [specs[by_key[key][0]] for key in batch]
            )
            for key, (metrics, elapsed) in zip(batch, evaluated):
                if key not in claimed:
                    continue  # a rider: a hit, or answered by another call
                self.cache.put(key, metrics)
                for repeat, index in enumerate(pending[key]):
                    results[index] = SweepResult(
                        specs[index],
                        dict(metrics),
                        elapsed if repeat == 0 else 0.0,
                        from_cache=repeat > 0,
                    )

        assert all(result is not None for result in results)
        return SweepResults(results)  # type: ignore[arg-type]

    def _batches(
        self,
        specs: "list[ScenarioSpec]",
        by_key: "dict[str, list[int]]",
        pending: "dict[str, list[int]]",
    ) -> "list[tuple[list[str], set[str]]]":
        """The backend calls that answer the misses, as ``(keys, claimed)``
        pairs: the keys of one call's specs, in input order, and the
        misses among them that the call answers.

        A batch-dependent evaluator's floats depend on the batch a spec
        is solved in (:func:`~repro.sweep.evaluators.register_evaluator`).
        A miss this runner solved before (the store has evicted it since)
        is solved again in the batch it was solved in, when that whole
        batch is part of this run; its other members, hits included,
        ride along. So a replayed run returns its first run's bytes
        whatever the store evicted. Every other miss goes into one last
        call, as it always did.
        """
        fresh = list(pending)
        if self.backend.width is not None:
            return [(fresh, set(fresh))]  # batches of one depend on nothing

        again: "dict[frozenset[str], set[str]]" = {}
        for key in pending:
            batch = self._solved_with.get(key)
            if batch is not None and batch.issubset(by_key):
                again.setdefault(batch, set()).add(key)
        repeated: "set[str]" = set().union(*again.values())
        fresh = [key for key in fresh if key not in repeated]
        calls = [
            ([key for key in by_key if key in batch], claimed)
            for batch, claimed in again.items()
        ]
        calls.append((fresh, set(fresh)))

        groups: "dict[str, list[str]]" = {}
        for key in fresh:
            name = specs[by_key[key][0]].evaluator
            if not batch_exact(name):
                groups.setdefault(name, []).append(key)
        for keys in groups.values():
            solved_with = frozenset(keys)
            for key in keys:
                self._solved_with.pop(key, None)
                self._solved_with[key] = solved_with
        while len(self._solved_with) > REMEMBERED_KEYS:
            del self._solved_with[next(iter(self._solved_with))]
        return calls
