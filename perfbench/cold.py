"""One repetition of a cold workload, in a fresh interpreter.

Run by ``perfbench/run.py`` as ``python -m perfbench.cold``; prints one
JSON object with the repetition's timings, counts and check failures.
Every process-wide cache of the program starts empty here, and the
result store is a fresh directory, so the optimize step costs what a
cold ``repro optimize <preset>`` costs.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import sys
import time

from perfbench import inputs
from perfbench.calibrate import calibration_s, speed_factor

#: Scenarios re-run on the serial backend per step after timing.
ORACLE_PER_STEP = {"steady-sweep": 2, "dynamic-sweep": 1, "fleet-table": 3}

#: Paper goldens (tests/integration/test_paper_goldens.py pins the same).
GOLDEN_OPTIMUM_FLOW_ML_MIN = (55.0, 63.0)
GOLDEN_NET_AT_OPTIMUM_W = 7.19
GOLDEN_NOMINAL_PEAK_C = 42.0
TEMPERATURE_LIMIT_C = 85.0


def _specs(step: "dict[str, object]") -> list:
    from repro.sweep import ScenarioSpec, get_preset

    if "preset" in step:
        return [
            spec.replace(**step["override"])
            for spec in get_preset(step["preset"]).expand()
        ]
    return [ScenarioSpec(**fields) for fields in step["specs"]]


def golden_failures(
    workload: str, opt, steps: "dict[str, object]", runner
) -> list:
    """Paper-golden checks on the optimize step and the sweep results."""
    from repro.sweep import ScenarioSpec

    failures = []
    best = opt.best
    if best is None:
        return [f"{workload}: optimizer found no feasible point"]
    metrics, spec = best.metrics, best.spec
    if workload == "steady-sweep":
        lo, hi = GOLDEN_OPTIMUM_FLOW_ML_MIN
        if not lo <= spec.total_flow_ml_min <= hi:
            failures.append(f"optimum at {spec.total_flow_ml_min} ml/min")
        if abs(metrics["net_w"] - GOLDEN_NET_AT_OPTIMUM_W) > 0.1:
            failures.append(f"net at optimum {metrics['net_w']} W")
        if not metrics["peak_temperature_c"] < TEMPERATURE_LIMIT_C:
            failures.append(f"peak at optimum {metrics['peak_temperature_c']}")
        # The golden is pinned at the preset raster, not the sweep's.
        nominal = runner.run([ScenarioSpec(total_flow_ml_min=676.0)])
        peak = nominal[0].metrics["peak_temperature_c"]
        if abs(peak - GOLDEN_NOMINAL_PEAK_C) > 0.5:
            failures.append(f"nominal peak {peak} C")
    elif workload == "dynamic-sweep":
        if not metrics["peak_temperature_c"] <= TEMPERATURE_LIMIT_C:
            failures.append(f"tuned PID peak {metrics['peak_temperature_c']}")
    elif workload == "fleet-table":
        if spec.fleet_policy != "greedy" or abs(
            spec.supply_per_chip_ml_min - 32.0
        ) > 0.5:
            failures.append(
                f"fleet optimum {spec.fleet_policy} @ "
                f"{spec.supply_per_chip_ml_min} ml/min"
            )
    for name, results in steps.items():
        for result in results:
            if not all(
                isinstance(v, (int, float)) and not math.isinf(v)
                for v in result.metrics.values()
            ):
                failures.append(f"{name}: non-finite metric")
    return [f"{workload}: {failure}" for failure in failures]


def metrics_agree(reference: dict, other: dict, rtol: float) -> bool:
    """Equal metric sets, values within ``rtol`` (relative and absolute),
    NaN matching NaN — the equivalence rule the backend tests use."""
    if set(reference) != set(other):
        return False
    for name, ref in reference.items():
        got = other[name]
        if isinstance(ref, float) and math.isnan(ref):
            if not (isinstance(got, float) and math.isnan(got)):
                return False
        elif abs(got - ref) > rtol * abs(ref) + rtol:
            return False
    return True


def oracle_failures(workload: str, seed: int, opt, steps: dict) -> list:
    """Re-run a seeded sample on the serial backend; count mismatches."""
    from repro.sweep import SweepRunner
    from repro.sweep.vectorized import EQUIVALENCE_RTOL

    rng = random.Random(f"oracle:{workload}:{seed}")
    per_step = ORACLE_PER_STEP[workload]
    sample = [rng.choice(list(opt.evaluated))]
    for results in steps.values():
        sample += rng.sample(list(results), per_step)
    serial = SweepRunner(backend="serial").run([r.spec for r in sample])
    return [
        f"{workload}: serial oracle disagrees at {fast.spec}"
        for fast, slow in zip(sample, serial)
        if not metrics_agree(slow.metrics, fast.metrics, EQUIVALENCE_RTOL)
    ]


def run_rep(
    workload: str, seed: int, spawned_at: float, store: str,
    trace: bool, oracle: bool,
) -> "dict[str, object]":
    from repro.opt import get_preset as get_opt_preset
    from repro.store import ResultStore
    from repro.sweep import SweepRunner

    plan = inputs.cold_plan(workload, seed)
    step_specs = {step["name"]: _specs(step) for step in plan["steps"]}
    runner = SweepRunner(
        cache=ResultStore(directory=store), backend="vectorized"
    )
    optimizer = get_opt_preset(plan["optimize"]).optimizer(runner=runner)
    setup_s = time.monotonic() - spawned_at

    tracer = None
    if trace:
        from repro import obs
        from perfbench.layers import LayerTracer

        tracer = LayerTracer().install()
        obs.start()

    # Each step sits between two calibrations (see perfbench.calibrate).
    # A step that raises is timed up to the raise and all its scenarios
    # count as failed.
    calibrations = [calibration_s()]
    failures = []
    walls, requested, misses, steps = {}, {}, {}, {}
    start = time.perf_counter()
    try:
        opt = optimizer.run()
        requested["optimize"] = sum(r.n_scenarios for r in opt.rounds)
    except Exception as error:  # noqa: BLE001 - reported, not hidden
        opt = None
        requested["optimize"] = 1
        failures.append(f"{workload}: optimize raised {error!r}")
    walls["optimize"] = time.perf_counter() - start
    calibrations.append(calibration_s())
    for name, specs in step_specs.items():
        before = runner.cache.misses
        start = time.perf_counter()
        try:
            steps[name] = runner.run(specs)
        except Exception as error:  # noqa: BLE001 - reported, not hidden
            failures += [f"{workload}: {name} raised {error!r}"] * len(specs)
        walls[name] = time.perf_counter() - start
        calibrations.append(calibration_s())
        misses[name] = runner.cache.misses - before
        requested[name] = len(specs)
    timed_s = sum(walls.values())
    factors = {
        name: speed_factor(calibrations[i], calibrations[i + 1])
        for i, name in enumerate(walls)
    }
    # The program's own per-scenario time of every evaluated (not
    # cached) scenario of the sweep steps: its batch's wall split evenly.
    elapsed = {
        name: [r.elapsed_s for r in results if not r.from_cache]
        for name, results in steps.items()
    }

    out: "dict[str, object]" = {
        "setup_s": setup_s,
        "walls": walls,
        "factors": factors,
        "requested": requested,
        "misses": misses,
        "elapsed": elapsed,
        "timed_s": timed_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        from repro import obs
        from perfbench.layers import layer_metrics, layer_rows

        session = obs.stop()
        tracer.uninstall()
        units = sum(requested.values())
        out["layers"] = layer_metrics(tracer, session.snapshot())
        out["tables"] = [("timed steps", timed_s, "scenario",
                          layer_rows(tracer.totals, timed_s, units))]

    start = time.perf_counter()
    if not failures:
        failures = golden_failures(workload, opt, steps, runner)
        if oracle:
            failures += oracle_failures(workload, seed, opt, steps)
    out["oracle_s"] = time.perf_counter() - start
    out["failures"] = failures
    return out


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=inputs.COLD_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--oracle", type=int, default=0)
    args = parser.parse_args(argv)
    result = run_rep(
        args.workload, args.seed, args.spawned_at, args.store,
        bool(args.trace), bool(args.oracle),
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
