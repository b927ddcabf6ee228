#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload steady-sweep --seed 1 \\
        --seconds 25 --trace 0

``--workload all`` runs the four workloads in turn. ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` also runs one traced
pass that times each layer's public entry points and prints the
per-layer table. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full result, with the environment, the input digest and the layer
table, is also written under ``.bench_out/results/``. See README.md in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: BLAS pinned to one thread here and in every child process.
BLAS_THREADS = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
#: Longest one cold repetition may take before the run gives up on it.
REP_TIMEOUT_S = 170.0


def _require_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program at {ROOT / 'src' / 'repro'}; run from "
            "a checkout of the repository",
            file=sys.stderr,
        )
        sys.exit(2)


def child_env() -> "dict[str, str]":
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def scratch_dir() -> str:
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(prefix="store-", dir=OUT / "tmp")


def environment(seed: int) -> "dict[str, object]":
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        **BLAS_THREADS,
    }


# -- cold workloads -----------------------------------------------------------


def cold_rep(
    workload: str, seed: int, trace: bool, oracle: bool
) -> "dict[str, object]":
    """One repetition in a fresh interpreter with an empty store."""
    store = scratch_dir()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.cold",
             "--workload", workload, "--seed", str(seed),
             "--spawned-at", repr(time.monotonic()), "--store", store,
             "--trace", str(int(trace)), "--oracle", str(int(oracle))],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=REP_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(store, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{workload} repetition exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibrated_s(rep: "dict[str, object]") -> float:
    """A repetition's timed steps in calibrated seconds."""
    return sum(
        wall * rep["factors"][name] for name, wall in rep["walls"].items()
    )


def cold_metrics(reps: "list[dict[str, object]]") -> "dict[str, float]":
    """End-to-end metrics of a cold workload from speed-calibrated step
    times (see :mod:`perfbench.calibrate`).

    Throughputs and the optimize time are medians over repetitions. A
    job is one cold study, as a fresh ``repro`` command runs it: set-up
    plus every step. The latency percentiles pool the program's own
    per-scenario times of every evaluated scenario of the sweep steps
    of every repetition, each scaled by its step's speed factor. Set-up
    time and memory are raw.
    """
    from statistics import median

    from perfbench.stats import tail_percentile

    def calibrated(rep: "dict[str, object]", name: str) -> float:
        return rep["walls"][name] * rep["factors"][name]

    sweeps = [name for name in reps[0]["walls"] if name != "optimize"]
    latencies = [
        1000.0 * elapsed * rep["factors"][name]
        for rep in reps
        for name, values in rep["elapsed"].items()
        for elapsed in values
    ]
    return {
        "setup_s": median([rep["setup_s"] for rep in reps]),
        "time_to_optimum_s": median([
            calibrated(rep, "optimize") for rep in reps
        ]),
        "scenarios_per_s": median([
            sum(rep["misses"][name] for name in sweeps)
            / sum(calibrated(rep, name) for name in sweeps)
            for rep in reps
        ]),
        "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps]),
        "jobs_per_s": median([
            1.0 / (rep["setup_s"] + calibrated_s(rep)) for rep in reps
        ]),
        "job_p50_ms": tail_percentile(latencies, 0.5),
        "job_p90_ms": tail_percentile(latencies, 0.9),
    }


def run_cold(
    workload: str, seed: int, seconds: float, trace: bool
) -> "dict[str, object]":
    from statistics import median

    from perfbench.stats import MIN_P90_SAMPLES

    reps = []
    spent = 0.0
    samples = 0
    while True:
        start = time.perf_counter()
        rep = cold_rep(workload, seed, trace=False, oracle=not reps)
        spent += time.perf_counter() - start - rep["oracle_s"]
        reps.append(rep)
        samples += sum(len(values) for values in rep["elapsed"].values())
        # Start another repetition only if it should end in time, or if
        # the latency percentiles still lack samples.
        if spent + spent / len(reps) > seconds and samples >= MIN_P90_SAMPLES:
            break

    result = {
        "metrics": cold_metrics(reps),
        "attempted": sum(
            sum(rep["requested"].values()) for rep in reps
        ),
        "failures": [f for rep in reps for f in rep["failures"]],
        "latency_samples": samples,
        "repetitions": [
            {key: rep[key] for key in ("setup_s", "walls", "factors")}
            for rep in reps
        ],
    }
    if trace:
        traced = cold_rep(workload, seed, trace=True, oracle=False)
        untraced = median([calibrated_s(rep) for rep in reps])
        result["layers"] = traced["layers"]
        result["layers"]["trace.overhead_frac"] = (
            calibrated_s(traced) / untraced - 1.0
        )
        result["tables"] = traced["tables"]
        result["failures"] += traced["failures"]
    return result


# -- serve-mix ----------------------------------------------------------------


def run_serve(seed: int, seconds: float, trace: bool) -> "dict[str, object]":
    from perfbench import serve_mix

    result = serve_mix.run_untraced(
        str(ROOT), scratch_dir, child_env(), seed, seconds
    )
    if trace:
        store = scratch_dir()
        try:
            traced = serve_mix.run_traced(store, seed, seconds)
        finally:
            shutil.rmtree(store, ignore_errors=True)
        per_job = result["calibrated_s"] / result["jobs"]
        traced_per_job = traced["calibrated_s"] / traced["jobs"]
        result["layers"] = traced["layers"]
        result["layers"]["trace.overhead_frac"] = traced_per_job / per_job - 1
        result["tables"] = traced["tables"]
        result["failures"] += traced["failures"]
    return result


# -- reporting ----------------------------------------------------------------


def load_spec() -> "dict[str, object]":
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result_line(
    result: "dict[str, object]", trace: bool, spec: "dict[str, object]"
) -> "dict[str, object]":
    """The result line: every declared metric, by name."""
    section = "per_layer" if trace else "end_to_end"
    values = result["layers"] if trace else result["metrics"]
    failed = len(result["failures"])
    return {
        "correct": failed == 0,
        "attempted": max(int(result["attempted"]), 1),
        "failed": failed,
        "metrics": {
            metric["name"]: {
                "value": float(values[metric["name"]]),
                "unit": metric["unit"],
            }
            for metric in spec[section]
        },
    }


def print_report(
    workload: str, seed: int, digest: str, env: "dict[str, object]",
    result: "dict[str, object]", spec: "dict[str, object]",
) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"== {workload}  seed {seed}  inputs {digest}")
    print("   " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in result["metrics"].items():
        print(f"   {name:<20} {value:14.6g} {units[name]}")
    print(f"   {'latency samples':<20} {result['latency_samples']:14d}")
    attempted, failed = result["attempted"], len(result["failures"])
    print(f"   {'failed_frac':<20} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted})")
    for failure in result["failures"][:10]:
        print(f"   FAILED: {failure}")
    if failed > 10:
        print(f"   ... and {failed - 10} more")
    if "layers" not in result:
        return
    from perfbench.layers import layer_shares

    print(f"-- layers (tracing overhead "
          f"{100 * result['layers']['trace.overhead_frac']:+.1f}%)")
    for title, wall_s, unit, rows in result["tables"]:
        print(f"   {title}: traced wall {wall_s:.3f} s")
        print(f"   {'span':<24} {'self_s':>10} {'share':>8} "
              f"{'calls/' + unit:>16}")
        for row in rows:
            print(f"   {row['span']:<24} {row['self_s']:10.4f} "
                  f"{100 * row['share']:7.1f}% "
                  f"{row['calls_per_unit']:16.3f}")
        shares = ", ".join(
            f"{layer} {100 * share:.1f}%"
            for layer, share in layer_shares(rows).items()
        )
        print(f"   by layer: {shares}")
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, value in result["layers"].items():
        print(f"   {name:<32} {value:14.6g} {layer_units[name]}")


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool
) -> "dict[str, object]":
    from perfbench import inputs

    spec = load_spec()
    digest = inputs.digest(workload, seed)
    env = environment(seed)
    if workload == "serve-mix":
        result = run_serve(seed, seconds, trace)
    else:
        result = run_cold(workload, seed, seconds, trace)
    print_report(workload, seed, digest, env, result, spec)
    line = result_line(result, trace, spec)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    saved = OUT / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    saved.write_text(json.dumps({
        "workload": workload, "inputs": digest, "environment": env,
        "result": line, **result,
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return line


def main(argv: "list[str] | None" = None) -> int:
    _require_program()
    os.environ.update(BLAS_THREADS)  # before numpy loads in this process
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import inputs

    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = (
        inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    )
    for workload in workloads:
        line = run_workload(workload, args.seed, args.seconds,
                            bool(args.trace))
        print(json.dumps(line, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
