"""Job handlers: the server side of one submitted request.

Each handler is the API-level twin of the matching CLI command — same
presets, same engines, same exporters — run against the server's shared
:class:`~repro.sweep.runner.SweepRunner`. Handlers return plain
JSON-able dicts that always include:

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


def _store_delta(
    before: "dict[str, int]", after: "dict[str, int]"
) -> "dict[str, int]":
    return {name: after[name] - before[name] for name in after}


def _sweep_job(params: "dict[str, Any]", runner: Any) -> "dict[str, Any]":
    from repro.sweep import get_preset

    preset = get_preset(params["preset"])
    specs = preset.expand(params["points"])
    before = runner.cache.stats()
    results = runner.run(specs)
    records = results.records()
    return {
        "kind": "sweep",
        "preset": preset.name,
        "scenarios": len(specs),
        "evaluated_s": results.total_elapsed_s,
        "records": records,
        "csv": csv_dumps(records),
        "json": dumps(records) + "\n",
        "store": _store_delta(before, runner.cache.stats()),
    }


def _optimize_job(params: "dict[str, Any]", runner: Any) -> "dict[str, Any]":
    from repro.opt import get_preset

    preset = get_preset(params["preset"])
    before = runner.cache.stats()
    result = preset.optimizer(
        runner=runner, max_rounds=params["rounds"]
    ).run()
    records = result.frontier.records()
    return {
        "kind": "optimize",
        "preset": preset.name,
        "rounds": len(result.rounds),
        "stop_reason": result.stop_reason,
        "n_evaluated": result.n_evaluated,
        "n_cached": result.n_cached,
        "records": records,
        "csv": csv_dumps(records),
        "json": dumps(records) + "\n",
        "store": _store_delta(before, runner.cache.stats()),
    }


def _runtime_job(params: "dict[str, Any]", runner: Any) -> "dict[str, Any]":
    from repro.sweep import ScenarioSpec
    from repro.sweep.evaluators import run_runtime_scenario

    trace, result = run_runtime_scenario(ScenarioSpec(
        evaluator="runtime",
        trace=params["trace"],
        trace_seed=params["seed"],
        controller=params["controller"],
        total_flow_ml_min=params["flow_ml_min"],
        pid_kp=params["kp"],
        pid_ki=params["ki"],
    ))
    records = result.records()
    return {
        "kind": "runtime",
        "trace": trace.name,
        "kpis": result.kpis(),
        "records": records,
        "csv": csv_dumps(records),
        "json": dumps(records) + "\n",
    }


def _fleet_job(params: "dict[str, Any]", runner: Any) -> "dict[str, Any]":
    from repro.fleet import FleetEngine, FleetSpec

    spec = FleetSpec(
        n_chips=params["chips"],
        policy=params["policy"],
        supply_per_chip_ml_min=params["supply_per_chip_ml_min"],
        trace=params["trace"],
        trace_seed=params["seed"],
        skew=params["skew"],
    )
    before = runner.cache.stats()
    result = FleetEngine(spec, runner=runner).run()
    records = result.records()
    return {
        "kind": "fleet",
        "chips": spec.n_chips,
        "policy": spec.policy,
        "kpis": result.kpis(),
        "records": records,
        "csv": csv_dumps(records),
        "json": dumps(records) + "\n",
        "store": _store_delta(before, runner.cache.stats()),
    }


_HANDLERS = {
    "sweep": _sweep_job,
    "optimize": _optimize_job,
    "runtime": _runtime_job,
    "fleet": _fleet_job,
}


def run_job(
    kind: str, params: "dict[str, Any]", runner: Any
) -> "dict[str, Any]":
    """Execute one job against the shared runner; returns the result
    payload (see the module docstring for the common keys)."""
    handler = _HANDLERS.get(kind)
    if handler is None:
        raise ConfigurationError(
            f"unknown job kind {kind!r}; expected one of "
            + ", ".join(sorted(_HANDLERS))
        )
    with obs.span("serve.job", kind=kind):
        return handler(_resolve(kind, params), runner)
