"""Ablation A21 — the shared result store and the ``repro serve`` path.

The store/serve layer (docs/service.md) promises three things this
bench pins end to end:

- **Warm replay is free.** A sweep against a store directory another
  *process* already filled performs zero evaluations, finishes far
  faster than the cold run, and exports byte-identical CSV — the
  entry format preserves metric order across the disk round trip.
- **Eviction holds the budget.** With ``max_disk_entries`` /
  ``max_disk_bytes`` set, the directory never ends a run over budget,
  and evicted entries simply re-evaluate on next use.
- **Served bytes are in-process bytes.** A job submitted through
  ``repro serve`` returns the exact export text an in-process run
  writes, and a second submission replays warm with zero evaluations.

``REPRO_BENCH_SMOKE=1`` shrinks the grid so CI runs the whole matrix on
every push.
"""

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

from benchmarks.conftest import SMOKE, artifact, emit
from repro.core.report import format_table
from repro.serve import BackgroundServer, ResultServer, ServeClient, write_artifacts
from repro.store import ResultStore
from repro.sweep import SweepRunner, get_preset

#: Grid density of the reference workload (the A17/A20 flow preset).
POINTS = 8 if SMOKE else 16

#: Replay must beat the cold run by at least this factor — file reads
#: against solver runs; the real ratio is orders of magnitude.
MIN_REPLAY_SPEEDUP = 3.0


def _cold_fill(args):
    """Cold sweep in a separate process: fill the store, return timing.

    Module-level so :class:`ProcessPoolExecutor` can pickle it by name —
    the point is that the *filling* process and the *replaying* process
    share nothing but the directory. The pool spawns its worker: a forked
    one would inherit the caches earlier benches left warm in this
    process, and its "cold" fill would not be cold.
    """
    directory, points = args
    runner = SweepRunner(cache=ResultStore(directory))
    specs = get_preset("flow").expand(points)
    start = time.perf_counter()
    results = runner.run(specs)
    elapsed_s = time.perf_counter() - start
    from repro.io import csv_dumps

    return elapsed_s, runner.cache.stats(), csv_dumps(results.records())


def test_a21_warm_replay_across_processes(tmp_path):
    directory = str(tmp_path / "store")
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        cold_s, cold_stats, cold_csv = pool.submit(
            _cold_fill, (directory, POINTS)
        ).result()
    assert cold_stats["misses"] == POINTS  # the filler evaluated everything

    from repro.io import csv_dumps

    runner = SweepRunner(cache=ResultStore(directory))
    specs = get_preset("flow").expand(POINTS)
    start = time.perf_counter()
    results = runner.run(specs)
    warm_s = time.perf_counter() - start

    # Zero evaluations: every scenario answered by the other process's
    # writes.
    assert runner.cache.stats() == {
        "hits": POINTS, "misses": 0, "corrupt": 0, "evicted": 0,
    }
    assert all(result.from_cache for result in results)
    # Byte-identical export, including column order, across the disk
    # round trip and the process boundary.
    warm_csv = csv_dumps(results.records())
    assert warm_csv == cold_csv
    speedup = cold_s / warm_s if warm_s > 0.0 else float("inf")
    assert speedup >= MIN_REPLAY_SPEEDUP

    emit(
        "A21 warm replay across processes (flow preset, "
        f"{POINTS} points)",
        format_table(
            ["run", "wall [s]", "evaluations"],
            [
                ["cold (child process)", f"{cold_s:.3f}",
                 cold_stats["misses"]],
                ["warm (this process)", f"{warm_s:.4f}", 0],
                ["speedup", f"{speedup:.0f}x", ""],
            ],
        ),
    )
    artifact("A21", {
        "replay_cold_s": cold_s,
        "replay_warm_s": warm_s,
        "replay_speedup": speedup,
        "replay_warm_evaluations": 0,
        "replay_points": POINTS,
    })


def test_a21_eviction_holds_budget(tmp_path):
    directory = tmp_path / "bounded"
    budget_entries = max(3, POINTS // 2)
    runner = SweepRunner(cache=ResultStore(
        directory, max_disk_entries=budget_entries,
    ))
    specs = get_preset("flow").expand(POINTS)
    runner.run(specs)

    store = runner.cache
    assert store.disk_entries() <= budget_entries
    assert store.evicted == POINTS - budget_entries

    # A byte budget sized for half the surviving entries keeps holding.
    byte_budget = store.disk_bytes() // 2
    store.max_disk_bytes = byte_budget
    store.put("refill-key", {"net_w": 1.0})
    assert store.disk_bytes() <= byte_budget

    emit(
        "A21 eviction budgets",
        format_table(
            ["budget", "configured", "observed"],
            [
                ["max_disk_entries", budget_entries,
                 store.disk_entries()],
                ["max_disk_bytes", byte_budget, store.disk_bytes()],
                ["entries evicted", "", store.evicted],
            ],
        ),
    )
    artifact("A21", {
        "eviction_budget_entries": budget_entries,
        "eviction_final_entries": store.disk_entries(),
        "eviction_evicted": store.evicted,
        "eviction_byte_budget": byte_budget,
        "eviction_final_bytes": store.disk_bytes(),
    })


def test_a21_serve_round_trip_byte_identical(tmp_path):
    preset = get_preset("flow")
    direct = SweepRunner().run(preset.expand(POINTS))
    direct_csv = direct.save_csv(tmp_path / "direct.csv").read_bytes()
    direct_json = direct.save_json(tmp_path / "direct.json").read_bytes()

    server = ResultServer(SweepRunner(cache=ResultStore(tmp_path / "s")))
    with BackgroundServer(server) as bg:
        client = ServeClient(port=bg.port)
        start = time.perf_counter()
        cold = client.submit("sweep", preset="flow", points=POINTS)
        cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm = client.submit("sweep", preset="flow", points=POINTS)
        warm_s = time.perf_counter() - start

    served = cold.require()
    paths = write_artifacts(
        served,
        csv_path=tmp_path / "served.csv",
        json_path=tmp_path / "served.json",
    )
    assert paths[0].read_bytes() == direct_csv
    assert paths[1].read_bytes() == direct_json
    # The warm submission replayed without a single evaluation.
    assert warm.require()["store"] == {
        "hits": POINTS, "misses": 0, "corrupt": 0, "evicted": 0,
    }
    assert warm.require()["csv"] == served["csv"]
    assert server.jobs_completed == 2

    emit(
        "A21 serve round trip (flow preset, "
        f"{POINTS} points)",
        format_table(
            ["submission", "wall [s]", "evaluations", "bytes == direct"],
            [
                ["cold", f"{cold_s:.3f}", served["store"]["misses"],
                 "yes"],
                ["warm", f"{warm_s:.4f}", 0, "yes"],
            ],
        ),
    )
    artifact("A21", {
        "serve_cold_s": cold_s,
        "serve_warm_s": warm_s,
        "serve_warm_evaluations": 0,
        "serve_byte_identical": True,
    })
