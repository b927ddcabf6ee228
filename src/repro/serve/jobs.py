"""Job handlers: one per job kind, shared by ``repro serve`` and the CLI.

Each handler resolves its params against :data:`_SCHEMAS`, the one
table of defaults, builds the spec or preset, runs it on the given
:class:`~repro.sweep.runner.SweepRunner` and returns the in-process
:class:`Job`. The ``sweep``, ``optimize``, ``runtime`` and ``fleet``
commands map their flags onto these params, call :func:`execute` and
print from the job; the server calls :func:`run_job`, which turns the
job into a plain JSON-able payload that always includes:

- ``records`` — the flat result rows an in-process run would export;
- ``csv`` / ``json`` — the exact export text (``repro.io.csv_dumps`` /
  ``repro.io.dumps``), so a client writing these strings produces
  byte-identical files to ``results.save_csv()`` / ``save_json()``;
- ``store`` (where the store participates) — the hit/miss/corrupt/
  evicted deltas this job induced, which is how a client asserts "warm
  replay did zero evaluations".

Parameters are validated against an explicit per-kind schema: an
unknown parameter is a hard error (silently ignoring a typo like
``point=8`` would return the wrong design space with a 200-OK face).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.errors import ConfigurationError
from repro.io import csv_dumps, dumps

#: Allowed parameters and defaults, per job kind. ``...`` marks a
#: required parameter.
_SCHEMAS: "dict[str, dict[str, Any]]" = {
    "sweep": {"preset": ..., "points": None},
    "optimize": {"preset": ..., "rounds": None},
    "runtime": {
        "trace": "bursty", "controller": "pid", "flow_ml_min": 676.0,
        "seed": 7, "kp": 40.0, "ki": 60.0,
    },
    "fleet": {
        "chips": 8, "policy": "greedy", "supply_per_chip_ml_min": 40.0,
        "trace": "diurnal-bursty", "seed": 7, "skew": 0.35,
    },
}


@dataclass(frozen=True)
class Job:
    """One job run in process.

    ``subject`` is what ran (the sweep or optimization preset, the
    workload trace, the :class:`~repro.fleet.FleetSpec`), ``result`` the
    engine's answer, ``export`` the object whose ``records()`` /
    ``save_csv()`` / ``save_json()`` are the job's rows (the result
    itself, or an optimization's frontier) and ``summary`` the kind's
    own payload fields.
    """

    params: "dict[str, Any]"
    subject: Any
    result: Any
    export: Any
    summary: "dict[str, Any]"


def _resolve(kind: str, params: "dict[str, Any]") -> "dict[str, Any]":
    """Merge request params over the kind's defaults, strictly."""
    schema = _SCHEMAS[kind]
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise ConfigurationError(
            f"unknown {kind} parameter(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(schema))}"
        )
    resolved = dict(schema)
    resolved.update(params)
    missing = sorted(
        name for name, value in resolved.items() if value is ...
    )
    if missing:
        raise ConfigurationError(
            f"{kind} job requires parameter(s): {', '.join(missing)}"
        )
    return resolved


def _sweep_job(params: "dict[str, Any]", runner: Any) -> Job:
    from repro.sweep import get_preset

    preset = get_preset(params["preset"])
    specs = preset.expand(params["points"])
    results = runner.run(specs)
    return Job(params, preset, results, results, {
        "preset": preset.name,
        "scenarios": len(specs),
        "evaluated_s": results.total_elapsed_s,
    })


def _optimize_job(params: "dict[str, Any]", runner: Any) -> Job:
    from repro.opt import get_preset

    preset = get_preset(params["preset"])
    result = preset.optimizer(
        runner=runner, max_rounds=params["rounds"]
    ).run()
    return Job(params, preset, result, result.frontier, {
        "preset": preset.name,
        "rounds": len(result.rounds),
        "stop_reason": result.stop_reason,
        "n_evaluated": result.n_evaluated,
        "n_cached": result.n_cached,
    })


def _runtime_job(params: "dict[str, Any]", runner: Any) -> Job:
    from repro.sweep import ScenarioSpec
    from repro.sweep.evaluators import run_runtime_scenarios

    (trace, result), = run_runtime_scenarios([ScenarioSpec(
        evaluator="runtime",
        trace=params["trace"],
        trace_seed=params["seed"],
        controller=params["controller"],
        total_flow_ml_min=params["flow_ml_min"],
        pid_kp=params["kp"],
        pid_ki=params["ki"],
    )])
    return Job(params, trace, result, result, {
        "trace": trace.name, "kpis": result.kpis(),
    })


def _fleet_job(params: "dict[str, Any]", runner: Any) -> Job:
    from repro.fleet import FleetEngine, FleetSpec

    spec = FleetSpec(
        n_chips=params["chips"],
        policy=params["policy"],
        supply_per_chip_ml_min=params["supply_per_chip_ml_min"],
        trace=params["trace"],
        trace_seed=params["seed"],
        skew=params["skew"],
    )
    result = FleetEngine(spec, runner=runner).run()
    return Job(params, spec, result, result, {
        "chips": spec.n_chips, "policy": spec.policy, "kpis": result.kpis(),
    })


_HANDLERS = {
    "sweep": _sweep_job,
    "optimize": _optimize_job,
    "runtime": _runtime_job,
    "fleet": _fleet_job,
}


def execute(kind: str, params: "dict[str, Any]", runner: Any) -> Job:
    """Run one job of ``kind`` on ``runner``; ``params`` override the
    kind's defaults in :data:`_SCHEMAS`."""
    handler = _HANDLERS.get(kind)
    if handler is None:
        raise ConfigurationError(
            f"unknown job kind {kind!r}; expected one of "
            + ", ".join(sorted(_HANDLERS))
        )
    return handler(_resolve(kind, params), runner)


def run_job(
    kind: str, params: "dict[str, Any]", runner: Any
) -> "dict[str, Any]":
    """Execute one job against the shared runner; returns the result
    payload (see the module docstring for the common keys)."""
    with obs.span("serve.job", kind=kind):
        before = runner.cache.stats()
        job = execute(kind, params, runner)
        records = job.export.records()
        payload = {
            "kind": kind,
            **job.summary,
            "records": records,
            "csv": csv_dumps(records),
            "json": dumps(records) + "\n",
        }
        # The runtime job runs its one lane directly, not through the
        # store, so it has no store delta to report.
        if kind != "runtime":
            after = runner.cache.stats()
            payload["store"] = {
                name: after[name] - before[name] for name in after
            }
        return payload
