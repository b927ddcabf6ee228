"""Ablation A18 — rack-scale fleet co-design under a shared coolant supply.

The paper co-designs one chip with its own microfluidic supply; a rack
hosts hundreds sharing one pump budget. :mod:`repro.fleet` scales the
co-design up: a quantized per-chip operating table built through the
sweep engine, a traffic model splitting a diurnal+bursty request stream
across the fleet, and allocation policies dividing the shared flow. This
bench asserts the three headline claims of the PR:

- **scale**: the chip table behind a 1000-chip fleet evaluates through
  the vectorized backend >= 3x faster than chip-by-chip serial
  evaluation, while agreeing scenario by scenario within the documented
  :data:`~repro.sweep.vectorized.EQUIVALENCE_RTOL`;
- **allocation wins**: the greedy shared-supply allocation strictly
  beats a uniform split on fleet net energy at the same total budget,
  with the worst-chip junction at or below the 85 C limit;
- **replay is free**: re-running the ``fleet`` sweep preset against a
  warm persistent cache performs zero evaluations (extending the
  A15/A16 zero-eval replay guarantees to the fleet layer, via the new
  :meth:`~repro.store.ResultStore.stats` accounting).

It also reports, with no bound, what the roll-up itself costs: µs per
chip-step for each policy, at 8 chips and at the race's fleet size.

Every timed run starts with a cold thermal path: the vectorized kernel
caches and the process's kept thermal families are cleared per
measurement (chip tables draw no models from the runtime engine's
store). Both backends then share one family per build, so serial
evaluation no longer pays a factorization per chip state. The
polarization surfaces are deliberately warmed first — both backends
share them through one process-wide store, so the race measures the
thermal solves, not one-time surface construction.

``REPRO_BENCH_SMOKE=1`` shrinks the fleet and the utilization grid so CI
can exercise the whole matrix on every push.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import SMOKE, artifact, emit
from repro.casestudy.power7plus import clear_thermal_families
from repro.core.report import format_table
from repro.fleet import ChipTable, FleetEngine, FleetSpec, shared_fleet_runner
from repro.store import ResultStore
from repro.sweep import SweepRunner, get_preset
from repro.sweep.evaluators import clear_array_curves
from repro.sweep.vectorized import EQUIVALENCE_RTOL

#: Fleet size for the scale race (the PR's headline configuration).
N_CHIPS = 128 if SMOKE else 1000

#: Chip raster of the race: large enough that per-spec factorization
#: dominates, so the anchored multi-column solves have something to
#: amortize (nx stays a multiple of the 11 channel groups).
RACE_RASTER = dict(nx=66, ny=33)

#: Utilization quantization of the race table (the fleet's own
#: :data:`~repro.fleet.fleet.UTILIZATION_RESOLUTION` at full size).
RACE_UTIL_RESOLUTION = 0.125 if SMOKE else 0.0625

#: The race table's utilization levels over ``[0, 1]``.
RACE_UTILIZATIONS = RACE_UTIL_RESOLUTION * np.arange(
    int(round(1.0 / RACE_UTIL_RESOLUTION)) + 1
)

#: Acceptance floor for vectorized vs serial on the chip-table build.
MIN_SPEEDUP = 3.0

#: The worst-chip junction limit the allocation must respect [degC].
TEMPERATURE_LIMIT_C = 85.0

#: Timed roll-ups per (fleet size, policy); the report takes the best.
ROLLUP_REPEATS = 5


def _race_spec() -> FleetSpec:
    return FleetSpec(n_chips=N_CHIPS, **RACE_RASTER)


def _build_table(
    spec: FleetSpec, runner: SweepRunner, utilizations=RACE_UTILIZATIONS
) -> ChipTable:
    return ChipTable.build(
        flows_ml_min=spec.supply().flow_levels(),
        utilizations=utilizations,
        base=spec.table_base_spec(),
        runner=runner,
    )


def _cold_build(backend: str, spec: FleetSpec):
    """Time one chip-table build with the thermal path cold."""
    clear_array_curves()
    clear_thermal_families()
    runner = SweepRunner(backend=backend)
    start = time.perf_counter()
    table = _build_table(spec, runner)
    return time.perf_counter() - start, table, runner


def _worst_relative_deviation(a: ChipTable, b: ChipTable) -> float:
    worst = 0.0
    for name in ("peak_c", "net_w", "generated_w", "pumping_w", "current_a"):
        x, y = getattr(a, name), getattr(b, name)
        scale = np.maximum(np.abs(x), 1.0)
        worst = max(worst, float(np.max(np.abs(x - y) / scale)))
    return worst


def test_a18_fleet_scale_speedup(benchmark):
    spec = _race_spec()
    n_states = len(spec.supply().flow_levels()) * len(RACE_UTILIZATIONS)

    # Warm the polarization surfaces (shared by both backends) so the
    # race times the thermal solves, not one-time surface construction.
    _build_table(spec, SweepRunner(backend="vectorized"))

    serial_s, serial_table, _ = _cold_build("serial", spec)

    def vectorized_build():
        return _cold_build("vectorized", spec)

    vectorized_s, vectorized_table, runner = benchmark.pedantic(
        vectorized_build, rounds=1, iterations=1
    )
    speedup = serial_s / vectorized_s
    deviation = _worst_relative_deviation(serial_table, vectorized_table)

    # The fleet roll-up itself: every chip-step is a table lookup, so the
    # whole 1000-chip schedule replays from the runner's warm cache. In
    # smoke mode the race grid is coarser than the fleet's, so the fleet
    # grid's remaining levels are evaluated first, outside the timing.
    _build_table(spec, runner, spec.utilization_levels())
    start = time.perf_counter()
    result = FleetEngine(spec, runner=runner).run()
    rollup_s = time.perf_counter() - start

    emit(
        f"A18 — chip-table race behind a {N_CHIPS}-chip fleet "
        f"({n_states} operating states, {spec.nx}x{spec.ny} raster)",
        format_table(
            ["path", "wall [s]", "vs serial", "worst rel dev"],
            [
                ["serial", serial_s, 1.0, 0.0],
                ["vectorized", vectorized_s, speedup, deviation],
            ],
        ) + f"\nfleet roll-up: {rollup_s:.3f} s for {N_CHIPS} chips, "
        f"net {result.total_net_energy_j:.1f} J, worst peak "
        f"{result.worst_peak_temperature_c:.2f} C",
    )
    artifact("A18", {
        "n_chips": N_CHIPS,
        "table_states": n_states,
        "serial_s": serial_s,
        "vectorized_s": vectorized_s,
        "speedup": speedup,
        "worst_rel_dev": deviation,
        "rollup_s": rollup_s,
    })

    # Equivalence first: a fast wrong table is not a speedup.
    assert deviation <= EQUIVALENCE_RTOL
    # The headline: the vectorized path makes rack-scale tables cheap.
    assert speedup >= MIN_SPEEDUP
    # The fleet itself stayed inside the junction limit.
    assert result.worst_peak_temperature_c <= TEMPERATURE_LIMIT_C


def test_a18_allocation_beats_uniform():
    """Shared-supply allocation beats a uniform split at equal budget."""
    cache = ResultStore()
    runner = SweepRunner(cache=cache, backend="vectorized")
    results = {
        policy: FleetEngine(
            FleetSpec(policy=policy), runner=runner
        ).run()
        for policy in ("greedy", "proportional", "uniform")
    }

    emit(
        "A18 — allocation policies at the same 320 ml/min fleet budget "
        "(8 chips)",
        format_table(
            ["policy", "net [J]", "worst peak [C]", "throttled", "shed",
             "fairness"],
            [
                [policy, r.total_net_energy_j, r.worst_peak_temperature_c,
                 r.throttled_chip_time_fraction, r.shed_load_fraction,
                 r.allocation_fairness]
                for policy, r in results.items()
            ],
        ),
    )
    greedy, uniform = results["greedy"], results["uniform"]
    artifact("A18", {
        "greedy_net_j": greedy.total_net_energy_j,
        "uniform_net_j": uniform.total_net_energy_j,
        "greedy_worst_peak_c": greedy.worst_peak_temperature_c,
        "greedy_shed": greedy.shed_load_fraction,
        "uniform_shed": uniform.shed_load_fraction,
    })

    # The budget-aware policy strictly wins on fleet net energy while
    # respecting the worst-chip junction limit.
    assert greedy.total_net_energy_j > uniform.total_net_energy_j
    assert greedy.worst_peak_temperature_c <= TEMPERATURE_LIMIT_C
    # It wins by serving load, not by shedding it: less demand dropped
    # and less chip-time throttled than the uniform split.
    assert greedy.shed_load_fraction <= uniform.shed_load_fraction
    assert (
        greedy.throttled_chip_time_fraction
        <= uniform.throttled_chip_time_fraction
    )
    # The uniform split is perfectly fair by construction; the greedy
    # policy trades some fairness for energy, never all of it.
    assert uniform.allocation_fairness == pytest.approx(1.0)
    assert 0.5 <= greedy.allocation_fairness < 1.0


def test_a18_warm_fleet_preset_replay(tmp_path):
    """A warm ``fleet`` preset replay performs zero evaluations."""
    preset = get_preset("fleet")
    specs = preset.expand(3)  # 3 policies x 2 per-chip budgets

    cold_cache = ResultStore(directory=tmp_path)
    cold = SweepRunner(cache=cold_cache, backend="serial").run(specs)
    assert cold_cache.stats()["misses"] == len(specs)
    assert cold_cache.stats()["corrupt"] == 0

    # Fresh runner + fresh cache over the same directory: every fleet
    # KPI replays from disk, so neither the fleet evaluator nor the
    # shared chip-table runner does any work at all.
    inner_before = shared_fleet_runner().cache.stats()
    warm_cache = ResultStore(directory=tmp_path)
    warm = SweepRunner(cache=warm_cache, backend="serial").run(specs)

    stats = warm_cache.stats()
    emit(
        "A18 — warm fleet-preset replay",
        f"{len(specs)} scenarios; warm stats {stats}",
    )
    artifact("A18", {
        "replay_scenarios": len(specs),
        "replay_misses": stats["misses"],
        "replay_hits": stats["hits"],
    })

    assert stats["misses"] == 0
    assert stats["corrupt"] == 0
    assert stats["hits"] == len(specs)
    assert all(result.from_cache for result in warm)
    for a, b in zip(cold, warm):
        assert a.spec == b.spec
        assert b.metrics == pytest.approx(a.metrics)
    # Zero evaluations all the way down: the shared chip-table runner
    # saw no traffic during the replay.
    assert shared_fleet_runner().cache.stats() == inner_before


def test_a18_rollup_per_chip_step():
    """Report-only: the roll-up's absolute cost per chip-step, for each
    policy at 8 chips and at ``N_CHIPS``, on the default raster's warm
    chip table (read once per engine, outside the timing)."""
    runner = shared_fleet_runner()
    rows = []
    for n_chips in (8, N_CHIPS):
        for policy in ("greedy", "proportional", "uniform"):
            engine = FleetEngine(
                FleetSpec(n_chips=n_chips, policy=policy), runner=runner
            )
            engine.chip_table
            n_steps = len(engine.spec.traffic().utilization_matrix()[0])
            best_s = np.inf
            for _ in range(ROLLUP_REPEATS):
                start = time.perf_counter()
                engine.run()
                best_s = min(best_s, time.perf_counter() - start)
            rows.append([n_chips, policy, n_steps, 1e3 * best_s,
                         1e6 * best_s / (n_chips * n_steps)])

    emit(
        f"A18 — fleet roll-up cost (best of {ROLLUP_REPEATS}, warm table)",
        format_table(
            ["chips", "policy", "steps", "roll-up [ms]", "per chip-step [us]"],
            rows,
        ),
    )
    artifact("A18", {
        f"rollup_us_per_chip_step_{policy}_{n_chips}": us
        for n_chips, policy, _, _, us in rows
    })
