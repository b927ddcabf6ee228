"""Tests for the sweep runner: memoization, parallelism, export."""

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.io import load_csv, load_json
from repro.store import ResultStore
from repro.sweep import (
    ScenarioSpec,
    SweepGrid,
    SweepRunner,
    register_evaluator,
)

# A cheap arithmetic evaluator so runner mechanics are tested without
# physics solves. Registered at import, so every backend resolves it from
# the same registry. Counts the specs it evaluates.
_CALLS = {"count": 0}


@register_evaluator("_test_cheap")
def _cheap(specs):
    _CALLS["count"] += len(specs)
    return [
        {
            "double_flow": 2.0 * spec.total_flow_ml_min,
            "voltage": spec.operating_voltage_v,
        }
        for spec in specs
    ]


def cheap_specs(*flows):
    return [
        ScenarioSpec(evaluator="_test_cheap", total_flow_ml_min=flow)
        for flow in flows
    ]


class TestRunnerSerial:
    def test_results_in_input_order(self):
        results = SweepRunner().run(cheap_specs(676.0, 48.0, 1352.0))
        assert results.metric("double_flow") == [1352.0, 96.0, 2704.0]
        assert [r.from_cache for r in results] == [False, False, False]

    def test_accepts_a_grid_directly(self):
        grid = SweepGrid.from_dict({"utilization": (0.25, 0.75)})
        # Grid-direct runs expand against the default base spec, whose
        # evaluator does real physics; use explicit specs for cheap tests.
        specs = grid.expand(ScenarioSpec(evaluator="_test_cheap"))
        results = SweepRunner().run(specs)
        assert [r.spec.utilization for r in results] == [0.25, 0.75]

    def test_duplicate_specs_evaluated_once(self):
        _CALLS["count"] = 0
        runner = SweepRunner()
        results = runner.run(cheap_specs(676.0, 676.0, 676.0))
        assert _CALLS["count"] == 1
        assert results.metric("double_flow") == [1352.0] * 3
        assert [r.from_cache for r in results] == [False, True, True]
        # In-run duplicates are deduplicated before the cache is
        # consulted: one miss, not three.
        assert (runner.cache.hits, runner.cache.misses) == (0, 1)

    def test_labels_do_not_defeat_dedup(self):
        _CALLS["count"] = 0
        specs = [
            ScenarioSpec(evaluator="_test_cheap", label="a"),
            ScenarioSpec(evaluator="_test_cheap", label="b"),
        ]
        SweepRunner().run(specs)
        assert _CALLS["count"] == 1

    def test_unknown_evaluator_raises(self):
        with pytest.raises(ConfigurationError):
            SweepRunner().run([ScenarioSpec(evaluator="nope")])


class TestMemoization:
    def test_second_run_is_all_cache_hits(self):
        runner = SweepRunner()
        first = runner.run(cheap_specs(48.0, 676.0))
        second = runner.run(cheap_specs(48.0, 676.0))
        assert all(not r.from_cache for r in first)
        assert all(r.from_cache for r in second)
        assert all(r.elapsed_s == 0.0 for r in second)
        assert [r.metrics for r in first] == [r.metrics for r in second]

    def test_disk_cache_shared_across_runners(self, tmp_path):
        _CALLS["count"] = 0
        specs = cheap_specs(48.0, 676.0)
        SweepRunner(cache=ResultStore(directory=tmp_path)).run(specs)
        assert _CALLS["count"] == 2
        # A brand-new runner sharing only the directory re-uses everything.
        fresh = SweepRunner(cache=ResultStore(directory=tmp_path))
        results = fresh.run(specs)
        assert _CALLS["count"] == 2
        assert all(r.from_cache for r in results)
        assert results.metric("double_flow") == [96.0, 1352.0]

    def test_cache_counts_hits_and_misses(self):
        runner = SweepRunner()
        runner.run(cheap_specs(48.0))
        runner.run(cheap_specs(48.0))
        assert runner.cache.hits == 1
        assert runner.cache.misses == 1

    def test_mutating_a_result_does_not_poison_the_cache(self):
        runner = SweepRunner()
        first = runner.run(cheap_specs(48.0, 48.0))
        first[0].metrics["double_flow"] = -1.0
        assert first[1].metrics["double_flow"] == 96.0
        assert runner.run(cheap_specs(48.0)).metric("double_flow") == [96.0]

    def test_corrupt_cache_file_is_a_miss(self, tmp_path):
        """Regression: a truncated <hash>.json (interrupted non-atomic
        writer from another tool) used to crash the whole sweep."""
        spec = cheap_specs(48.0)[0]
        (tmp_path / f"{spec.cache_key()}.json").write_text('{"double_fl')
        cache = ResultStore(directory=tmp_path)
        assert cache.get(spec.cache_key()) is None
        assert (cache.hits, cache.misses) == (0, 1)
        # The runner re-evaluates and atomically replaces the bad file.
        results = SweepRunner(cache=cache).run([spec])
        assert results.metric("double_flow") == [96.0]
        fresh = ResultStore(directory=tmp_path)
        assert fresh.get(spec.cache_key()) == results[0].metrics

    def test_non_dict_cache_payload_is_a_miss(self, tmp_path):
        spec = cheap_specs(676.0)[0]
        (tmp_path / f"{spec.cache_key()}.json").write_text("[1, 2, 3]\n")
        cache = ResultStore(directory=tmp_path)
        assert cache.get(spec.cache_key()) is None


#: Per steady evaluator: the spec field holding its power-map or design
#: key, and two values of it.
STEADY_KEYS = {
    "operating_point": ("utilization", (1.0, 0.5)),
    "geometry": ("channel_width_um", (100.0, 150.0)),
    "workload": ("workload", ("memory bound", "full load")),
    "fleet_chip": ("utilization", (0.75, 0.25)),
}

#: (flow [ml/min], inlet [K], key index): two inlet families, flows off
#: and on the training grid, both keys.
STEADY_POINTS = (
    (60.0, 300.0, 0), (250.0, 300.0, 1), (900.0, 310.15, 0),
    (250.0, 310.15, 1), (1352.0, 300.0, 1), (60.0, 300.0, 1),
)

#: Every steady evaluator's specs at the reduced raster.
STEADY_POOL = {
    name: [
        ScenarioSpec(
            evaluator=name, total_flow_ml_min=flow,
            inlet_temperature_k=inlet, nx=22, ny=11,
            **{field: values[key]},
        )
        for flow, inlet, key in STEADY_POINTS
    ]
    for name, (field, values) in STEADY_KEYS.items()
}


@lru_cache(maxsize=None)
def whole_batch(name):
    """Each pool spec's metrics, evaluated as one batch of the pool."""
    from repro.sweep.evaluators import get_evaluator

    specs = STEADY_POOL[name]
    return dict(zip(specs, get_evaluator(name)(specs)))


_POOL_PROCESS = """
import json, sys
from repro.sweep import ScenarioSpec, SweepRunner
fields, backend, reverse = json.load(sys.stdin)
specs = [ScenarioSpec(**spec) for spec in fields]
order = specs[::-1] if reverse else specs
results = {r.spec: r.metrics for r in SweepRunner(backend=backend).run(order)}
json.dump([results[spec] for spec in specs], sys.stdout)
"""


class TestBatchIndependentResults:
    """A steady spec's metrics are the same bits in any batch: a column
    depends only on its family and its right-hand side."""

    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_any_batch_gives_the_same_bits(self, data):
        """Permuted sub-batches of the pool, with a duplicate riding
        along, after a cold or a warm family cache, give the bits of the
        whole pool's batch."""
        from repro.casestudy.power7plus import clear_thermal_families
        from repro.sweep.evaluators import get_evaluator

        name = data.draw(st.sampled_from(sorted(STEADY_POOL)))
        order = data.draw(st.permutations(STEADY_POOL[name]))
        batch = order[:data.draw(st.integers(1, len(order)))]
        batch = batch + batch[:data.draw(st.integers(0, 1))]
        reference = whole_batch(name)
        if data.draw(st.booleans()):
            clear_thermal_families()
        assert get_evaluator(name)(batch) == [
            reference[spec] for spec in batch
        ]

    def test_two_processes_give_the_same_bits(self):
        """Two interpreters with the same BLAS thread count, one in a
        whole batch and one in reversed batches of one, agree bitwise."""
        specs = [spec for pool in STEADY_POOL.values() for spec in pool]
        fields = [
            {name: getattr(spec, name) for name in spec.field_names()}
            for spec in specs
        ]
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        env.update(dict.fromkeys(
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
            "1",
        ))
        outputs = [
            subprocess.run(
                [sys.executable, "-c", _POOL_PROCESS],
                input=json.dumps([fields, backend, reverse]),
                capture_output=True, text=True, env=env, check=True,
            ).stdout
            for backend, reverse in (("vectorized", False), ("serial", True))
        ]
        assert outputs[0] == outputs[1]
        assert len(json.loads(outputs[0])) == len(specs)

    def test_evicted_results_solve_alone(self, tmp_path):
        """A replay evaluates only the entries the store lost."""
        runner = SweepRunner(
            cache=ResultStore(tmp_path, max_memory_entries=1)
        )
        first = runner.run(cheap_specs(30.0, 60.0, 90.0))
        for entry in tmp_path.glob("*.json"):
            entry.unlink()
        _CALLS["count"] = 0
        replay = runner.run(cheap_specs(30.0, 60.0, 90.0))
        assert _CALLS["count"] == 2
        assert replay.records() == first.records()


class TestCacheStats:
    def test_fresh_cache_reports_zero_everything(self):
        assert ResultStore().stats() == {
            "hits": 0, "misses": 0, "corrupt": 0, "evicted": 0,
        }

    def test_stats_track_hits_and_misses(self):
        runner = SweepRunner()
        runner.run(cheap_specs(48.0, 676.0))
        runner.run(cheap_specs(48.0, 676.0))
        assert runner.cache.stats() == {
            "hits": 2, "misses": 2, "corrupt": 0, "evicted": 0,
        }

    def test_corrupt_files_counted_and_repaired(self, tmp_path):
        """A truncated persisted entry counts as both a miss and a
        corrupt read; the re-evaluation replaces it atomically, so the
        next cold cache reads it clean."""
        spec = cheap_specs(48.0)[0]
        (tmp_path / f"{spec.cache_key()}.json").write_text('{"double_fl')
        cache = ResultStore(directory=tmp_path)
        SweepRunner(cache=cache).run([spec])
        assert cache.stats() == {
            "hits": 0, "misses": 1, "corrupt": 1, "evicted": 0,
        }

        repaired = ResultStore(directory=tmp_path)
        SweepRunner(cache=repaired).run([spec])
        assert repaired.stats() == {
            "hits": 1, "misses": 0, "corrupt": 0, "evicted": 0,
        }

    def test_non_dict_payload_counts_as_corrupt(self, tmp_path):
        """Valid JSON of the wrong shape is corruption too — stats()
        must not hide it as a plain miss."""
        spec = cheap_specs(676.0)[0]
        (tmp_path / f"{spec.cache_key()}.json").write_text("[1, 2, 3]\n")
        cache = ResultStore(directory=tmp_path)
        assert cache.get(spec.cache_key()) is None
        assert cache.stats() == {
            "hits": 0, "misses": 1, "corrupt": 1, "evicted": 0,
        }

    def test_memory_only_cache_never_sees_corruption(self):
        runner = SweepRunner()
        runner.run(cheap_specs(48.0))
        runner.run(cheap_specs(48.0))
        assert runner.cache.stats()["corrupt"] == 0


class TestResults:
    def make(self):
        return SweepRunner().run(cheap_specs(48.0, 676.0, 1352.0))

    def test_sequence_protocol(self):
        results = self.make()
        assert len(results) == 3
        assert results[0].spec.total_flow_ml_min == 48.0
        assert [r.spec.total_flow_ml_min for r in results[1:]] == [676.0, 1352.0]

    def test_records_flatten_spec_and_metrics(self):
        record = self.make()[0].record()
        assert record["total_flow_ml_min"] == 48.0
        assert record["double_flow"] == 96.0
        assert record["evaluator"] == "_test_cheap"

    def test_unknown_metric_raises(self):
        with pytest.raises(ConfigurationError):
            self.make().metric("nope")

    def test_partially_present_metric_names_common_set(self):
        @register_evaluator("_test_other")
        def _other(specs):
            return [
                {"voltage": spec.operating_voltage_v, "extra": 1.0}
                for spec in specs
            ]

        results = SweepRunner().run([
            ScenarioSpec(evaluator="_test_cheap"),
            ScenarioSpec(evaluator="_test_other"),
        ])
        # 'double_flow' exists only in the first result: the error must
        # list the metrics common to ALL results, not echo the name back.
        with pytest.raises(ConfigurationError, match=r"common to all.*voltage"):
            results.metric("double_flow")
        assert results.metric("voltage") == [1.0, 1.0]

    def test_table_shows_varying_fields_and_metrics(self):
        table = self.make().table()
        assert "total_flow_ml_min" in table
        assert "double_flow" in table
        # Constant fields are elided from the default view.
        assert "inlet_temperature_k" not in table

    def test_csv_round_trip(self, tmp_path):
        results = self.make()
        path = results.save_csv(tmp_path / "sweep.csv")
        assert load_csv(path) == results.records()

    def test_csv_preserves_numeric_looking_strings(self, tmp_path):
        from repro.io import save_csv

        record = {"label": "2024_01", "code": "007", "note": "1.50",
                  "plus": "+7", "negzero": "-0",
                  "n": 42, "x": 1.5, "bad": float("nan")}
        rows = load_csv(save_csv([record], tmp_path / "strings.csv"))
        assert rows[0]["label"] == "2024_01"
        assert rows[0]["code"] == "007"
        assert rows[0]["note"] == "1.50"
        assert rows[0]["plus"] == "+7"
        assert rows[0]["negzero"] == "-0"
        assert rows[0]["n"] == 42 and rows[0]["x"] == 1.5
        assert rows[0]["bad"] != rows[0]["bad"]  # nan round-trips

    def test_csv_column_projection(self, tmp_path):
        from repro.io import save_csv

        results = self.make()
        path = save_csv(
            results.records(), tmp_path / "narrow.csv",
            columns=["total_flow_ml_min", "double_flow"],
        )
        rows = load_csv(path)
        assert all(set(row) == {"total_flow_ml_min", "double_flow"} for row in rows)
        assert [row["double_flow"] for row in rows] == [96.0, 1352.0, 2704.0]

    def test_json_round_trip(self, tmp_path):
        results = self.make()
        path = results.save_json(tmp_path / "sweep.json")
        assert load_json(path) == results.records()
