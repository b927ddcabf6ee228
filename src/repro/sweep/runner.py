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

Results come back in input order regardless of backend, and a spec's
metrics are the same bits at either width and in any batch, so a
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
from repro.sweep.evaluators import get_evaluator
from repro.sweep.spec import ScenarioSpec, SweepGrid


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

        evaluated = self.backend.evaluate(
            [specs[indices[0]] for indices in pending.values()]
        )
        for (key, indices), (metrics, elapsed) in zip(
            pending.items(), evaluated
        ):
            self.cache.put(key, metrics)
            for repeat, index in enumerate(indices):
                results[index] = SweepResult(
                    specs[index],
                    dict(metrics),
                    elapsed if repeat == 0 else 0.0,
                    from_cache=repeat > 0,
                )

        assert all(result is not None for result in results)
        return SweepResults(results)  # type: ignore[arg-type]
