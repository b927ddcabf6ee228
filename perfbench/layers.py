"""Per-layer timing from outside the program, plus the repro.obs counters.

:class:`LayerTracer` wraps the public entry point of each physics and
service layer (a class method or a module function) with a timer. Each
call records its wall time and its *self* time: the wall time minus the
wrapped calls nested inside it on the same thread. Nothing under
``src/`` changes; the wrappers are installed at run time in the traced
run only, and :func:`layer_metrics` folds their totals together with
the existing ``repro.obs`` counters into the per-layer ledger.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Any, Callable

from perfbench.stats import tail_percentile

#: (module, class or None, attribute, span name). Functions that callers
#: import inside their bodies are patched on their defining module;
#: ``repro.serve.jobs`` and ``repro.serve.server`` bind theirs at import
#: time, so those names are patched where they are bound.
ENTRY_POINTS = (
    ("repro.thermal.batch", "AnchoredSteadySolver", "solve", "thermal.steady"),
    ("repro.thermal.batch", "AnchoredSteadySolver", "solve_columns",
     "thermal.steady"),
    ("repro.thermal.batch", "AnchoredTransientSolver", "step_columns",
     "thermal.transient"),
    ("repro.thermal.model", "ThermalModel", "__init__", "thermal.model"),
    ("repro.thermal.model", "ThermalModel", "warm", "thermal.model"),
    ("repro.flowcell.batch", None, "batched_polarization_curves",
     "flowcell.batch_march"),
    ("repro.flowcell.porous", "FlowThroughPorousCell", "polarization_curve",
     "flowcell.scalar_march"),
    ("repro.cosim.surface", "PolarizationSurface", "warm_nodes",
     "cosim.surface_warm"),
    ("repro.cosim.surface", "PolarizationSurface", "currents_at",
     "cosim.surface_query"),
    ("repro.cosim.batch", None, "batched_step_responses",
     "cosim.step_response"),
    ("repro.runtime.engine", "BatchedRuntimeEngine", "run", "runtime.run"),
    ("repro.fleet.chip", "ChipTable", "build", "fleet.table_build"),
    ("repro.fleet.fleet", "FleetEngine", "run", "fleet.rollup"),
    ("repro.opt.refine", "Optimizer", "run", "opt.run"),
    ("repro.sweep.runner", "SweepRunner", "run", "sweep.run"),
    ("repro.sweep.backends", "VectorizedBackend", "evaluate", "sweep.kernel"),
    ("repro.store.core", "ResultStore", "get", "store.get"),
    ("repro.store.core", "ResultStore", "put", "store.put"),
    ("repro.io", None, "csv_dumps", "io.encode"),
    ("repro.io", None, "dumps", "io.encode"),
    ("repro.serve.jobs", None, "csv_dumps", "io.encode"),
    ("repro.serve.jobs", None, "dumps", "io.encode"),
    ("repro.serve.server", None, "run_job", "serve.run_job"),
)

#: Span name -> layer, for the share column of the table.
LAYER_OF = {
    span: span.split(".")[0] for *_, span in ENTRY_POINTS
}


class LayerTracer:
    """Thread-safe call timer for wrapped entry points."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: span -> [calls, wall_s, self_s]
        self.totals: "dict[str, list[float]]" = {}
        #: span -> per-call wall times [s] (for percentiles)
        self.calls: "dict[str, list[float]]" = {}
        #: batched_polarization_curves: curves marched per call
        self.batch_curves = 0
        self._restore: "list[tuple[Any, str, Any]]" = []

    def copy_totals(self) -> "dict[str, list[float]]":
        """The per-span totals so far, as an independent copy."""
        with self._lock:
            return {span: list(row) for span, row in self.totals.items()}

    def _stack(self) -> "list[float]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: str, wall_s: float, self_s: float) -> None:
        with self._lock:
            totals = self.totals.setdefault(span, [0, 0.0, 0.0])
            totals[0] += 1
            totals[1] += wall_s
            totals[2] += self_s
            self.calls.setdefault(span, []).append(wall_s)

    def wrap(self, span: str, fn: "Callable[..., Any]") -> "Callable[..., Any]":
        tracer = self

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if span == "flowcell.batch_march":
                with tracer._lock:
                    tracer.batch_curves += len(args[0])
            stack = tracer._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += wall
                tracer._record(span, wall, wall - children)

        return timed

    def install(self) -> "LayerTracer":
        """Patch every entry point; :meth:`uninstall` puts them back."""
        for module_name, class_name, attr, span in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(
                module, class_name
            )
            original = owner.__dict__[attr] if class_name else getattr(
                owner, attr
            )
            if isinstance(original, classmethod):
                patched: Any = classmethod(
                    self.wrap(span, original.__func__)
                )
            else:
                patched = self.wrap(span, original)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, patched)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def self_s(self, span: str) -> float:
        return float(self.totals.get(span, [0, 0.0, 0.0])[2])

    def wall_s(self, span: str) -> float:
        return float(self.totals.get(span, [0, 0.0, 0.0])[1])

    def count(self, span: str) -> int:
        return int(self.totals.get(span, [0, 0.0, 0.0])[0])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _hist_mean(snapshot: "dict[str, Any]", name: str) -> float:
    for section in (snapshot["histograms"], snapshot["warm"]["histograms"]):
        if name in section:
            fields = section[name]
            return _ratio(fields["total"], fields["count"])
    return 0.0


def layer_metrics(
    tracer: LayerTracer,
    snapshot: "dict[str, Any]",
    serve_waits_ms: "list[float] | None" = None,
) -> "dict[str, float]":
    """The per-layer ledger: wrapped-call times and obs counters."""
    counters = snapshot["counters"]
    warm = snapshot["warm"]["counters"]
    anchored = counters["thermal.steady.anchored_solves"]
    attempts = (
        anchored + counters["thermal.steady.reanchors"]
        + counters["thermal.steady.fallbacks"]
    )
    hits = counters["sweep.cache.hits"]
    misses = counters["sweep.cache.misses"]
    run_ms = [1000.0 * s for s in tracer.calls.get("serve.run_job", [])]
    waits = serve_waits_ms or []
    return {
        "thermal.steady_solve_s": tracer.self_s("thermal.steady"),
        "thermal.steady.factorizations":
            counters["thermal.steady.factorizations"],
        "thermal.gmres.iterations": counters["thermal.gmres.iterations"],
        "thermal.gmres_per_solve":
            _ratio(counters["thermal.gmres.iterations"], anchored),
        "thermal.anchor_ratio": _ratio(anchored, attempts),
        "thermal.steady.fallbacks": counters["thermal.steady.fallbacks"],
        "thermal.transient_step_s": tracer.self_s("thermal.transient"),
        "thermal.transient.column_steps":
            counters["thermal.transient.column_steps"],
        "thermal.model_s": tracer.self_s("thermal.model"),
        "flowcell.batch_march_s": tracer.self_s("flowcell.batch_march"),
        "flowcell.batch_curves": tracer.batch_curves,
        "flowcell.scalar_march_s": tracer.self_s("flowcell.scalar_march"),
        "flowcell.scalar_curves": tracer.count("flowcell.scalar_march"),
        "cosim.surface_warm_s": tracer.self_s("cosim.surface_warm"),
        "cosim.surface_query_s": tracer.self_s("cosim.surface_query"),
        "cosim.step_response_s": tracer.self_s("cosim.step_response"),
        "surface.node_builds": warm.get("surface.node_builds", 0),
        "surface.nodes_warmed": warm.get("surface.nodes_warmed", 0),
        "surface.interpolations": counters["surface.interpolations"],
        "runtime.run_s": tracer.self_s("runtime.run"),
        "runtime.steps": counters["runtime.steps"],
        "runtime.lane_group.size":
            _hist_mean(snapshot, "runtime.lane_group.size"),
        "fleet.table_build_s": tracer.wall_s("fleet.table_build"),
        "fleet.rollup_s": tracer.self_s("fleet.rollup"),
        "fleet.allocation.iterations":
            counters["fleet.allocation.iterations"],
        "fleet.steps": counters["fleet.steps"],
        "opt.self_s": tracer.self_s("opt.run"),
        "opt.rounds": counters["opt.rounds"],
        "opt.evaluations": counters["opt.evaluations"],
        "opt.cache_ratio": _ratio(
            counters["opt.cache_hits"],
            counters["opt.cache_hits"] + counters["opt.evaluations"],
        ),
        "sweep.self_s": tracer.self_s("sweep.run"),
        "sweep.kernel_s": tracer.self_s("sweep.kernel"),
        "sweep.evaluations": counters["sweep.evaluations"],
        "sweep.batch.size": _hist_mean(snapshot, "sweep.batch.size"),
        "store.get_s": tracer.self_s("store.get"),
        "store.put_s": tracer.self_s("store.put"),
        "store.gets": tracer.count("store.get"),
        "store.puts": tracer.count("store.put"),
        "store.hit_ratio": _ratio(hits, hits + misses),
        "store.corrupt": counters["sweep.cache.corrupt"],
        "serve.queue_wait_p50_ms": _percentile_or_zero(waits, 0.5),
        "serve.queue_wait_p90_ms": _percentile_or_zero(waits, 0.9),
        "serve.run_p50_ms": _percentile_or_zero(run_ms, 0.5),
        "serve.errors": counters["serve.errors"],
        "io.encode_s": tracer.self_s("io.encode"),
    }


def _percentile_or_zero(samples: "list[float]", q: float) -> float:
    """Serve percentiles on workloads without served jobs read 0."""
    return tail_percentile(samples, q) if samples else 0.0


def subtract_totals(
    totals: "dict[str, list[float]]", earlier: "dict[str, list[float]]"
) -> "dict[str, list[float]]":
    """Per-span totals recorded after ``earlier`` was copied."""
    zero = [0, 0.0, 0.0]
    return {
        span: [a - b for a, b in zip(row, earlier.get(span, zero))]
        for span, row in totals.items()
        if row[0] > earlier.get(span, zero)[0]
    }


def layer_rows(
    totals: "dict[str, list[float]]", wall_s: float, units: int
) -> "list[dict[str, Any]]":
    """One row per wrapped span of ``totals`` (a tracer's, or a part of
    them): self time, share of wall, calls per unit."""
    rows = []
    for span in sorted(totals):
        calls, _, self_s = totals[span]
        rows.append({
            "span": span,
            "layer": LAYER_OF[span],
            "self_s": self_s,
            "share": _ratio(self_s, wall_s),
            "calls_per_unit": _ratio(calls, units),
        })
    return rows


def layer_shares(rows: "list[dict[str, Any]]") -> "dict[str, float]":
    """Self-time share of wall per layer, largest first."""
    shares: "dict[str, float]" = {}
    for row in rows:
        shares[row["layer"]] = shares.get(row["layer"], 0.0) + row["share"]
    return dict(sorted(shares.items(), key=lambda item: -item[1]))
