"""Tests of the benchmark itself: inputs, statistics, checks, metric names.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import cold, inputs, run, serve_mix
from repro.obs import COUNTER_NAMES
from perfbench.layers import LayerTracer, layer_metrics
from perfbench.stats import tail_percentile

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def names(section: str) -> "set[str]":
    return {metric["name"] for metric in SPEC[section]}


# -- seeded inputs ------------------------------------------------------------


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_digest(workload):
    assert inputs.digest(workload, 5) == inputs.digest(workload, 5)
    assert inputs.plan(workload, 5) == inputs.plan(workload, 5)
    assert inputs.digest(workload, 5) != inputs.digest(workload, 6)


def test_serve_misses_are_disjoint_across_clients():
    clients = inputs.serve_plan(inputs.DEFAULT_SEED)["clients"]
    points = [
        {job[1]["points"] for job in jobs if inputs.expected_misses(job)}
        for jobs in clients
    ]
    assert all(len(p) == inputs.SERVE_MISSES_PER_CLIENT for p in points)
    assert not points[0] & points[1]


def test_serve_misses_spread_over_the_loop_and_fleet_jobs_run():
    for jobs in inputs.serve_plan(inputs.DEFAULT_SEED)["clients"]:
        slots = [i for i, job in enumerate(jobs) if inputs.expected_misses(job)]
        stratum = inputs.MISS_SPAN // inputs.SERVE_MISSES_PER_CLIENT
        assert [slot // stratum for slot in slots] == list(range(len(slots)))
        fleet = [job for job in jobs if job[0] == "fleet"]
        assert 0.1 < len(fleet) / len(jobs) < 0.2
        assert all(inputs.expected_misses(job) == 0 for job in fleet)


# -- statistics ---------------------------------------------------------------


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError):
        tail_percentile(list(range(99)), 0.9)
    assert tail_percentile(list(range(1, 101)), 0.9) == 90
    with pytest.raises(ValueError):
        tail_percentile(list(range(19)), 0.5)
    assert tail_percentile(list(range(1, 21)), 0.5) == 10


# -- failures raise failed_frac -----------------------------------------------


def failed_frac(result: "dict[str, object]") -> float:
    line = run.result_line(
        {**result, "metrics": dict.fromkeys(names("end_to_end"), 1.0)},
        trace=False, spec=SPEC,
    )
    return line["failed"] / line["attempted"]


def test_wrong_scenario_value_fails_the_oracle():
    from repro.sweep import ScenarioSpec, SweepRunner

    results = SweepRunner(backend="vectorized").run(
        [ScenarioSpec(total_flow_ml_min=flow) for flow in (338.0, 676.0)]
    )
    opt = SimpleNamespace(evaluated=list(results))
    clean = cold.oracle_failures("steady-sweep", 1, opt, {"flow": results})
    assert clean == []
    results[0].metrics["net_w"] *= 1.001
    wrong = cold.oracle_failures("steady-sweep", 1, opt, {"flow": results})
    assert wrong
    assert failed_frac({"attempted": 2, "failures": wrong}) > 0


def test_served_byte_mismatch_fails_the_job():
    from repro.serve import BackgroundServer

    jobs = [["sweep", {"preset": "flow", "points": 4}],
            list(serve_mix.OPTIMUM_JOB)]
    with BackgroundServer() as server:
        fill = [serve_mix.submit(server.port, job) for job in jobs]
    failures, attempted = serve_mix.check_jobs(fill, [], seed=1)
    assert failures == []
    done = fill[0].events[-1]
    done["result"]["csv"] = done["result"]["csv"].replace(",", ";", 1)
    failures, attempted = serve_mix.check_jobs(fill, [], seed=1)
    assert any("served bytes" in failure for failure in failures)
    assert failed_frac({"attempted": attempted, "failures": failures}) > 0


# -- metric names -------------------------------------------------------------


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(inputs.WORKLOADS)
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in SPEC[section]:
            assert NAME.match(entry["name"]), entry
            assert "unit" not in entry or UNIT.match(entry["unit"]), entry
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_printed_metrics_are_declared():
    reps = [
        {"setup_s": 0.5, "walls": {"optimize": 1.0, "flow": 2.0},
         "factors": {"optimize": 1.0, "flow": 0.9},
         "requested": {"optimize": 20, "flow": 80},
         "misses": {"flow": 80}, "timed_s": 3.0, "peak_rss_mb": 100.0,
         "elapsed": {"flow": [0.025] * 80}}
    ] * 2
    assert set(run.cold_metrics(reps)) == names("end_to_end")
    loop = [
        serve_mix.TimedJob(
            ["sweep", {"preset": "flow", "points": 6}], 0.0,
            {"queued": 0.001, "started": 0.002, "done": 0.01},
            [{"event": "done",
              "result": {"store": {"hits": 2, "misses": 4}}}],
        )
    ] * 100
    loop[0] = serve_mix.TimedJob(serve_mix.OPTIMUM_JOB, 0.0, loop[1].marks)
    served = set(serve_mix.summarize(loop, [(1.0, 1.0)]))
    served |= {"setup_s", "peak_rss_mb"}
    assert served == names("end_to_end")
    snapshot = {
        "counters": dict.fromkeys(COUNTER_NAMES, 0),
        "histograms": {}, "warm": {"counters": {}, "histograms": {}},
    }
    layers = set(layer_metrics(LayerTracer(), snapshot))
    assert layers | {"trace.overhead_frac"} == names("per_layer")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
