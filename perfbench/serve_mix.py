"""The serve-mix workload: a closed loop of clients against ``repro serve``.

Set-up spawns ``repro serve --port 0 --backend vectorized --store DIR``
(several times, keeping the last server, so set-up time is a median)
and warm-fills the replay set; its fleet job builds the chip table
cold. Then ``SERVE_CLIENTS`` threads of this process each send their
seeded job list, one job at a time with no think time, until the run's
seconds are over and at least ``MIN_P90_SAMPLES`` jobs are done. Every
check runs after the loop, so client work never delays the next
request.

The traced variant hosts the server in this process
(:class:`repro.serve.BackgroundServer`) so its calls can be wrapped.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from perfbench import inputs
from perfbench.calibrate import calibration_s, speed_factor
from perfbench.cold import (
    GOLDEN_NET_AT_OPTIMUM_W,
    GOLDEN_OPTIMUM_FLOW_ML_MIN,
    TEMPERATURE_LIMIT_C,
    metrics_agree,
)
from perfbench.stats import MIN_P90_SAMPLES, tail_percentile

#: Server spawns per run; set-up time takes the median spawn-to-ready.
SPAWNS = 3
OPTIMUM_JOB = ["optimize", {"preset": "flow-optimum"}]
#: Closed-loop segment length [s]; a calibration runs between segments.
SEGMENT_S = 3.0
#: Longest closed loop of the traced pass [s]; it only feeds the ledger.
TRACED_LOOP_S = 10.0
#: Miss records, and chip-table points, re-run on the serial backend
#: after the loop.
ORACLE_RECORDS = 4
ORACLE_TABLE_POINTS = 2

_LISTENING = re.compile(r"listening on [^\s]+:(\d+)")


@dataclass
class TimedJob:
    """One submitted job: its events and client-side event times."""

    job: "list[Any]"
    sent_at: float
    marks: "dict[str, float]" = field(default_factory=dict)
    events: "list[dict[str, Any]]" = field(default_factory=list)
    #: Closed-loop segment the job ran in (its speed calibration).
    segment: int = 0

    @property
    def latency_ms(self) -> float:
        end = self.marks.get("done", self.marks.get("error", self.sent_at))
        return 1000.0 * (end - self.sent_at)

    @property
    def wait_ms(self) -> float:
        return 1000.0 * (self.marks["started"] - self.marks["queued"])


def submit(port: int, job: "list[Any]") -> TimedJob:
    from repro.serve import ServeClient

    kind, params = job
    timed = TimedJob(job, time.perf_counter())
    for event in ServeClient("127.0.0.1", port).stream(kind, **params):
        timed.marks.setdefault(event["event"], time.perf_counter())
        timed.events.append(event)
    return timed


def result_of(timed: TimedJob) -> "dict[str, Any] | None":
    for event in timed.events:
        if event.get("event") == "done":
            return event.get("result")
    return None


def spawn_server(root: str, store: str, env: "dict[str, str]"):
    """Start ``repro serve``; returns (process, port, spawn-to-ready s)."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--backend", "vectorized", "--store", store],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    ready_s = time.monotonic() - start
    match = _LISTENING.search(line)
    if match is None:
        stop_server(proc)
        raise RuntimeError(f"repro serve did not start: {line!r}")
    return proc, int(match.group(1)), ready_s


def stop_server(proc: subprocess.Popen) -> None:
    """Interrupt the server and wait for it to exit."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def peak_rss_mb(pid: int) -> float:
    """High-water resident set of a live process [MB] (Linux)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def warm_fill(port: int, replays: "list[list[Any]]") -> "list[TimedJob]":
    return [submit(port, job) for job in replays]


def closed_loop(
    port: int, clients: "list[list[list[Any]]]", seconds: float
) -> "tuple[list[TimedJob], list[tuple[float, float]]]":
    """Run the client threads in segments of ``SEGMENT_S``.

    Between segments every client is idle while this thread times a
    calibration (see :mod:`perfbench.calibrate`). Returns every job and,
    per segment, its wall time and speed factor.
    """
    threads_n = min(len(clients), os.cpu_count() or 1)
    done: "list[TimedJob]" = []
    lock = threading.Lock()
    gate = threading.Barrier(threads_n + 1, timeout=120.0)
    state = {"deadline": 0.0, "segment": 0, "stop": False}

    def client(jobs: "Iterator[list[Any]]") -> None:
        while True:
            gate.wait()
            if state["stop"]:
                return
            while time.perf_counter() < state["deadline"]:
                timed = submit(port, next(jobs))
                timed.segment = state["segment"]
                with lock:
                    done.append(timed)
            gate.wait()

    threads = [
        threading.Thread(target=client, args=(inputs.client_jobs(jobs),))
        for jobs in clients[:threads_n]
    ]
    for thread in threads:
        thread.start()
    segments: "list[tuple[float, float]]" = []
    before = calibration_s()
    try:
        while (sum(wall for wall, _ in segments) < seconds
               or len(done) < MIN_P90_SAMPLES):
            state["segment"] = len(segments)
            start = time.perf_counter()
            state["deadline"] = start + SEGMENT_S
            gate.wait()  # release the clients
            gate.wait()  # every client finished its last job
            wall = time.perf_counter() - start
            after = calibration_s()
            segments.append((wall, speed_factor(before, after)))
            before = after
    finally:
        state["stop"] = True
        gate.wait()
        for thread in threads:
            thread.join()
    return done, segments


def exports_match(
    result: "dict[str, Any]", orders: "dict[str, list[str]]"
) -> bool:
    """Served CSV/JSON text equals the in-process export of its records.

    The wire sorts keys; the in-process export keeps the spec fields,
    then the evaluator's metrics, in their own order.
    """
    from repro.io import csv_dumps, dumps

    records = result["records"]
    ordered = [
        {key: record[key] for key in orders[record["evaluator"]]}
        for record in records
        if set(record) == set(orders[record["evaluator"]])
    ]
    return (
        len(ordered) == len(records)
        and result["csv"] == csv_dumps(ordered)
        and result["json"] == dumps(records) + "\n"
    )


def check_jobs(
    fill: "list[TimedJob]", loop: "list[TimedJob]", seed: int,
    store: "str | None" = None,
) -> "tuple[list[str], int]":
    """Every correctness check of a serve-mix run.

    ``store`` is the server's store directory, which the in-process
    fleet reference reads its chip table from (needed only when fleet
    jobs ran). Returns the failures (at most one per job, plus golden
    and oracle misses) and the number of checked operations.
    """
    orders, failures, oracled = serial_reference(fill, loop, seed)
    fleet_exports, fleet_failures, fleet_oracled = fleet_reference(
        fill + loop, seed, store
    )
    failures += fleet_failures
    reference: "dict[str, tuple[str, str, list[Any]]]" = {}
    in_loop = [False] * len(fill) + [True] * len(loop)
    for timed, looped in zip(fill + loop, in_loop):
        name = f"{timed.job[0]} {timed.job[1]}"
        result = result_of(timed)
        if result is None:
            failures.append(f"{name}: job ended in error")
            continue
        problems = []
        records = result["records"]
        key = repr(timed.job)
        first = reference.setdefault(
            key, (result["csv"], result["json"], records)
        )
        if first[:2] != (result["csv"], result["json"]):
            problems.append("replay bytes changed")
        elif first[2] is records and not (
            fleet_exports[key] == (result["csv"], result["json"])
            if timed.job[0] == "fleet" else exports_match(result, orders)
        ):
            # Identical replays share the verdict of the first one.
            problems.append("served bytes differ from the in-process export")
        expected = inputs.expected_misses(timed.job)
        if looped and result["store"]["misses"] != expected:
            problems.append(
                f"{result['store']['misses']} store misses, expected "
                f"{expected}"
            )
        if problems:
            failures.append(f"{name}: {'; '.join(problems)}")
    optimum = next(
        (result_of(t) for t in fill if t.job == OPTIMUM_JOB), None
    )
    if optimum is not None:
        best = optimum["records"][0]
        lo, hi = GOLDEN_OPTIMUM_FLOW_ML_MIN
        if not (lo <= best["total_flow_ml_min"] <= hi
                and abs(best["net_w"] - GOLDEN_NET_AT_OPTIMUM_W) <= 0.1
                and best["peak_temperature_c"] < TEMPERATURE_LIMIT_C):
            failures.append(f"flow-optimum golden missed: {best}")
    checked = len(fill) + len(loop) + oracled + fleet_oracled + 1
    return failures, checked


def serial_reference(
    fill: "list[TimedJob]", loop: "list[TimedJob]", seed: int
) -> "tuple[dict[str, list[str]], list[str], int]":
    """Serial in-process runs behind the sweep-record checks.

    One served record per evaluator gives the in-process column order;
    a seeded sample of miss records is the serial oracle, which must
    agree within ``EQUIVALENCE_RTOL``. Returns (column order per
    evaluator, oracle failures, records the oracle re-ran).
    """
    from repro.sweep import ScenarioSpec, SweepRunner
    from repro.sweep.vectorized import EQUIVALENCE_RTOL

    fields = ScenarioSpec.field_names()
    per_evaluator: "dict[str, dict[str, Any]]" = {}
    misses = []
    for timed in fill + loop:
        result = result_of(timed)
        if timed.job[0] == "fleet" or result is None:
            continue
        for record in result["records"]:
            per_evaluator.setdefault(record["evaluator"], record)
            if inputs.expected_misses(timed.job):
                misses.append(record)
    sample = random.Random(f"oracle:serve-mix:{seed}").sample(
        misses, min(ORACLE_RECORDS, len(misses))
    )
    served = list(per_evaluator.values()) + sample
    serial = SweepRunner(backend="serial").run(
        [ScenarioSpec(**{f: r[f] for f in fields}) for r in served]
    )
    orders = {
        name: list(result.record())
        for name, result in zip(per_evaluator, serial)
    }
    failures = []
    for record, slow in zip(sample, serial[len(per_evaluator):]):
        expected = {k: v for k, v in slow.record().items() if k not in fields}
        got = {k: v for k, v in record.items() if k not in fields}
        if not metrics_agree(expected, got, EQUIVALENCE_RTOL):
            failures.append(f"serial oracle disagrees at {record}")
    return orders, failures, len(sample)


def fleet_spec(params: "dict[str, Any]"):
    """The :class:`repro.fleet.FleetSpec` a fleet job's parameters name."""
    from repro.fleet import FleetSpec

    return FleetSpec(
        n_chips=params["chips"], policy=params["policy"],
        supply_per_chip_ml_min=params["supply_per_chip_ml_min"],
        trace=params["trace"], trace_seed=params["seed"],
        skew=params["skew"],
    )


def fleet_reference(
    jobs: "list[TimedJob]", seed: int, store: "str | None"
) -> "tuple[dict[str, tuple[str, str]], list[str], int]":
    """In-process twins of the served fleet jobs.

    Each distinct fleet job runs again in this process against the
    server's store, so it reads the same chip table; its CSV/JSON export
    is what the served text must equal. A seeded sample of chip-table
    points is the serial oracle for the table itself. Returns (export
    text per job, oracle failures, table points the oracle re-ran).
    """
    distinct = {repr(t.job): t.job for t in jobs if t.job[0] == "fleet"}
    if not distinct:
        return {}, [], 0
    if store is None:
        raise ValueError("fleet jobs need the server's store directory")
    from repro.fleet import FleetEngine
    from repro.io import csv_dumps, dumps
    from repro.store import ResultStore
    from repro.sweep import SweepRunner
    from repro.sweep.vectorized import EQUIVALENCE_RTOL

    runner = SweepRunner(
        cache=ResultStore(directory=store), backend="vectorized"
    )
    exports = {}
    for key, job in distinct.items():
        records = FleetEngine(fleet_spec(job[1]), runner=runner).run().records()
        exports[key] = (csv_dumps(records), dumps(records) + "\n")

    spec = fleet_spec(inputs.FLEET_JOB[1])
    base = spec.table_base_spec()
    points = [
        base.replace(total_flow_ml_min=float(flow), utilization=float(util))
        for flow in spec.supply().flow_levels()
        for util in spec.utilization_levels()
    ]
    sample = random.Random(f"oracle:serve-mix-fleet:{seed}").sample(
        points, ORACLE_TABLE_POINTS
    )
    hits_before = runner.cache.hits
    stored = runner.run(sample)
    serial = SweepRunner(backend="serial").run(sample)
    failures = [
        f"serial oracle disagrees at chip-table point {fast.spec}"
        for fast, slow in zip(stored, serial)
        if not metrics_agree(slow.metrics, fast.metrics, EQUIVALENCE_RTOL)
    ]
    if runner.cache.hits - hits_before != len(sample):
        failures.append("chip-table points missing from the server's store")
    return exports, failures, len(sample)


def summarize(
    loop: "list[TimedJob]", segments: "list[tuple[float, float]]"
) -> "dict[str, float]":
    """Loop metrics from speed-calibrated times.

    Throughputs are totals over the loop: the miss sweeps sit in its
    first two thirds, so a median over segments would fall on the edge
    between segments with and without them. Latency percentiles are
    the median over the loop's segments of each segment's figure, so a
    stretch of slow machine moves one segment, not the run; they use
    the segments that hold enough jobs for a p90 (all jobs pooled if
    none does). A job's scenarios are its store lookups (hits and
    misses); time to optimum is the latency of the ``flow-optimum``
    jobs, the wait for the answer to the paper's design question.
    """
    loop_s = sum(wall * factor for wall, factor in segments)
    latencies = [t.latency_ms * segments[t.segment][1] for t in loop]
    answered = sum(
        result["store"]["hits"] + result["store"]["misses"]
        for result in map(result_of, loop) if result is not None
    )
    jobs: "list[list[float]]" = [[] for _ in segments]
    for timed, latency in zip(loop, latencies):
        jobs[timed.segment].append(latency)
    tails = [
        segment for segment in jobs if len(segment) >= MIN_P90_SAMPLES
    ] or [latencies]
    return {
        "jobs_per_s": len(loop) / loop_s,
        "job_p50_ms": statistics.median(
            tail_percentile(tail, 0.5) for tail in tails
        ),
        "job_p90_ms": statistics.median(
            tail_percentile(tail, 0.9) for tail in tails
        ),
        "scenarios_per_s": answered / loop_s,
        "time_to_optimum_s": statistics.median([
            latency / 1000.0
            for t, latency in zip(loop, latencies) if t.job == OPTIMUM_JOB
        ]),
    }


def run_untraced(
    root: str, scratch, env: "dict[str, str]", seed: int, seconds: float
) -> "dict[str, Any]":
    plan = inputs.serve_plan(seed)
    ready = []
    for spawn in range(SPAWNS):
        store = scratch()
        proc, port, ready_s = spawn_server(root, store, env)
        ready.append(ready_s)
        if spawn < SPAWNS - 1:
            stop_server(proc)
            shutil.rmtree(store, ignore_errors=True)
    try:
        start = time.perf_counter()
        fill = warm_fill(port, plan["replays"])
        fill_s = time.perf_counter() - start
        fill_rss = peak_rss_mb(proc.pid)
        loop, segments = closed_loop(port, plan["clients"], seconds)
        rss = peak_rss_mb(proc.pid)
        stop_server(proc)
        start = time.perf_counter()
        failures, attempted = check_jobs(fill, loop, seed, store)
        check_s = time.perf_counter() - start
    finally:
        stop_server(proc)
        shutil.rmtree(store, ignore_errors=True)
    metrics = summarize(loop, segments)
    # The fill is one ~20 s cold chip-table build: calibrations at its
    # two ends did not track the machine across it, so it stays raw.
    metrics["setup_s"] = statistics.median(ready) + fill_s
    metrics["peak_rss_mb"] = rss
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "calibrated_s": sum(wall * factor for wall, factor in segments),
        "jobs": len(loop),
        "latency_samples": len(loop),
        "phases_s": {"spawns": sum(ready), "fill": fill_s,
                     "loop": sum(wall for wall, _ in segments),
                     "checks": check_s},
        "fill_rss_mb": fill_rss,
        "segments": [
            [wall, factor, sum(t.segment == i for t in loop)]
            for i, (wall, factor) in enumerate(segments)
        ],
    }


def run_traced(store: str, seed: int, seconds: float) -> "dict[str, Any]":
    """One traced pass with the server in this process.

    The ledger covers the warm fill (the cold chip-table build) and the
    closed loop; the layer table shows the two apart.
    """
    from repro import obs
    from repro.serve import BackgroundServer, ResultServer
    from repro.store import ResultStore
    from repro.sweep import SweepRunner

    from perfbench.layers import (
        LayerTracer, layer_metrics, layer_rows, subtract_totals,
    )

    plan = inputs.serve_plan(seed)
    tracer = LayerTracer().install()
    obs.start()
    try:
        runner = SweepRunner(
            cache=ResultStore(directory=store), backend="vectorized"
        )
        with BackgroundServer(ResultServer(runner)) as server:
            start = time.perf_counter()
            fill = warm_fill(server.port, plan["replays"])
            fill_s = time.perf_counter() - start
            fill_totals = tracer.copy_totals()
            loop, segments = closed_loop(
                server.port, plan["clients"], min(seconds, TRACED_LOOP_S)
            )
    finally:
        session = obs.stop()
        tracer.uninstall()
    waits = [t.wait_ms for t in loop if "started" in t.marks]
    loop_s = sum(wall for wall, _ in segments)
    loop_totals = subtract_totals(tracer.totals, fill_totals)
    return {
        "layers": layer_metrics(tracer, session.snapshot(), waits),
        "tables": [
            ("warm fill", fill_s, "job",
             layer_rows(fill_totals, fill_s, len(fill))),
            ("closed loop", loop_s, "job",
             layer_rows(loop_totals, loop_s, len(loop))),
        ],
        "calibrated_s": sum(wall * factor for wall, factor in segments),
        "jobs": len(loop),
        "failures": check_jobs(fill, loop, seed, store)[0],
    }
