"""Determinism regressions: exports must be byte-identical across runs.

The sweep/opt/runtime stack promises pure-function behaviour: the same
scenarios produce the same records whatever the scheduling. These tests
pin that promise at the artifact level — the CSV/JSON files two
independent runs write must match *byte for byte*, and so must the
serial oracle's and the vectorized backend's where their kernels share
every piece (the runtime engine, the VRM curve cache), because diffable
exports are what makes cached replays and CI comparisons trustworthy.

Seeded stochastic traces (bursty, diurnal) are the cases most likely to
rot: any hidden global-RNG use or dict-ordering dependence would show up
here first.
"""

import pytest

from repro import obs
from repro.obs.metrics import deterministic_sections, dumps
from repro.runtime.trace import standard_trace
from repro.sweep import ScenarioSpec, SweepRunner
from repro.opt import get_preset


def read_bytes(path) -> bytes:
    return path.read_bytes()


#: The seeded stochastic runtime scenarios under test (reduced raster, as
#: the runtime preset uses).
RUNTIME_SPECS = [
    ScenarioSpec(
        evaluator="runtime", trace="bursty", trace_seed=7, nx=22, ny=11
    ),
    ScenarioSpec(
        evaluator="runtime", trace="diurnal", trace_seed=11, nx=22, ny=11
    ),
]


class TestTraceDeterminism:
    def test_seeded_traces_reproduce_exactly(self):
        """Same name + seed -> identical segment schedules, object for
        object; a different seed changes the bursty pattern."""
        for name in ("bursty", "diurnal"):
            first = standard_trace(name, seed=7)
            second = standard_trace(name, seed=7)
            assert first.segments == second.segments
        assert (
            standard_trace("bursty", seed=7).segments
            != standard_trace("bursty", seed=8).segments
        )


class TestRuntimeExportDeterminism:
    @pytest.fixture(scope="class")
    def exports(self, tmp_path_factory):
        """CSV/JSON exports of the seeded traces from three runs: twice
        on the serial oracle, once on the vectorized backend (one
        runtime engine behind both)."""
        root = tmp_path_factory.mktemp("runtime-determinism")
        artifacts = {}
        for label, runner in (
            ("first", SweepRunner()),
            ("second", SweepRunner()),
            ("vectorized", SweepRunner(backend="vectorized")),
        ):
            results = runner.run(RUNTIME_SPECS)
            csv_path = root / f"{label}.csv"
            json_path = root / f"{label}.json"
            results.save_csv(csv_path)
            results.save_json(json_path)
            artifacts[label] = (read_bytes(csv_path), read_bytes(json_path))
        return artifacts

    def test_two_runs_byte_identical(self, exports):
        assert exports["first"] == exports["second"]

    def test_serial_vs_vectorized_byte_identical(self, exports):
        assert exports["first"] == exports["vectorized"]


#: The dynamic scenarios evaluated through the batched kernels: a seeded
#: stochastic runtime trace plus a transient step response, mixed so one
#: export exercises both kernels.
VECTORIZED_SPECS = [
    ScenarioSpec(
        evaluator="transient",
        nx=22,
        ny=11,
        utilization_before=0.1,
        utilization=1.0,
    ),
    ScenarioSpec(
        evaluator="runtime", trace="bursty", trace_seed=7, nx=22, ny=11
    ),
]


class TestVectorizedExportDeterminism:
    """Byte-determinism of the batched transient/runtime kernels.

    The vectorized backend reorders the work (model families, lockstep
    columns, surface prefills) but must not reorder or perturb the
    records: two cold runs export identical bytes.
    """

    @pytest.fixture(scope="class")
    def exports(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("vectorized-determinism")
        artifacts = {}
        for label, runner in (
            ("first", SweepRunner(backend="vectorized")),
            ("second", SweepRunner(backend="vectorized")),
        ):
            results = runner.run(VECTORIZED_SPECS)
            csv_path = root / f"{label}.csv"
            json_path = root / f"{label}.json"
            results.save_csv(csv_path)
            results.save_json(json_path)
            artifacts[label] = (read_bytes(csv_path), read_bytes(json_path))
        return artifacts

    def test_two_runs_byte_identical(self, exports):
        assert exports["first"] == exports["second"]


class TestMetricsDeterminism:
    """The observability counters obey the export contract too.

    ``repro --metrics`` snapshots are diffed across CI runs exactly like
    sweep exports, so the deterministic sections (counters, histograms)
    must serialize byte-identically across independent runs. Wall-time
    and warmth-dependent signals live in other sections and are excluded
    by design.
    """

    @pytest.fixture(scope="class")
    def snapshots(self):
        """Serialized deterministic metrics from two fresh sessions."""
        artifacts = {}
        for label, runner in (
            ("first", SweepRunner()),
            ("second", SweepRunner()),
        ):
            obs.start()
            try:
                runner.run(RUNTIME_SPECS)
                snapshot = obs.snapshot()
            finally:
                obs.stop()
            artifacts[label] = dumps(deterministic_sections(snapshot))
        return artifacts

    def test_counters_recorded(self, snapshots):
        payload = snapshots["first"]
        assert '"sweep.evaluations": 2' in payload
        assert '"runtime.steps"' in payload

    def test_two_runs_byte_identical(self, snapshots):
        assert snapshots["first"] == snapshots["second"]

    def test_masked_sections_excluded(self, snapshots):
        """Wall-time and warmth signals must not leak into the
        deterministic payload."""
        assert '"timings"' not in snapshots["first"]
        assert '"warm"' not in snapshots["first"]


class TestOptExportDeterminism:
    @pytest.fixture(scope="class")
    def frontiers(self, tmp_path_factory):
        """Frontier exports of a full refinement search, re-run from
        scratch (fresh caches): twice on the serial oracle, once on the
        vectorized backend (one cached VRM curve march behind both)."""
        root = tmp_path_factory.mktemp("opt-determinism")
        preset = get_preset("vrm-tradeoff")
        artifacts = {}
        for label, runner in (
            ("first", SweepRunner()),
            ("second", SweepRunner()),
            ("vectorized", SweepRunner(backend="vectorized")),
        ):
            result = preset.optimizer(runner=runner).run()
            csv_path = root / f"{label}.csv"
            json_path = root / f"{label}.json"
            result.frontier.save_csv(csv_path)
            result.frontier.save_json(json_path)
            artifacts[label] = (
                read_bytes(csv_path),
                read_bytes(json_path),
                [r.index for r in result.rounds],
            )
        return artifacts

    def test_two_runs_byte_identical(self, frontiers):
        assert frontiers["first"] == frontiers["second"]

    def test_serial_vs_vectorized_byte_identical(self, frontiers):
        assert frontiers["first"] == frontiers["vectorized"]
