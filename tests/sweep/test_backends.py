"""Batch-width contract: batches of one vs batch composition.

Every evaluator is one registered function over a batch of specs. The
:class:`~repro.sweep.backends.SerialBackend` hands it one spec at a
time, the :class:`~repro.sweep.backends.VectorizedBackend` whole
evaluator groups. Every sweep preset is evaluated both ways and the
results must match bit for bit: the steady evaluators solve each column
on a view of its family's canonical Krylov space, and the other
evaluators' batch members share no floating-point work. The steady
evaluators are also checked, at both widths, against an independent
default-ordering direct solve (``tests/sweep/steady_oracle.py``) within
:data:`~repro.sweep.vectorized.EQUIVALENCE_RTOL`.

Plus the cache-interop contract: results computed at either width land
in the shared :class:`~repro.store.ResultStore` under the same keys, so
the backends replay each other's work with zero new evaluations and
identical hit/miss accounting.

The slow presets (cosim, transient, runtime) run tiny scenario subsets at
the reduced raster the rest of the suite uses; the fast presets run their
real grids.
"""

import math

import pytest

from repro.store import ResultStore
from repro.sweep import (
    BACKEND_NAMES,
    ScenarioSpec,
    SerialBackend,
    SweepRunner,
    VectorizedBackend,
    evaluator_names,
    get_backend,
    get_preset,
    preset_names,
)
from repro.errors import ConfigurationError
from repro.sweep.vectorized import EQUIVALENCE_RTOL
from tests.sweep.steady_oracle import STEADY_EVALUATORS, steady_oracle_metrics

#: Scenario lists per preset: full grids for the fast analytic presets,
#: reduced-raster subsets for the trajectory-valued ones.
def preset_scenarios(name: str) -> "list[ScenarioSpec]":
    preset = get_preset(name)
    if name in ("cosim", "transient"):
        return [
            spec.replace(nx=22, ny=11)
            for spec in preset.expand(points=2)[:2]
        ]
    if name == "runtime":
        return preset.expand(points=2)[:2]
    if name == "fleet":
        # Two racks are plenty: the fleet evaluator funnels every outer
        # backend through the shared vectorized chip-table runner, so
        # the matrix checks the dispatch plumbing, not the table build.
        return preset.expand(points=2)[:2]
    return preset.expand(points=6)


#: Evaluators whose batch members share no floating-point work:
#: ``runtime`` (one :class:`~repro.runtime.engine.BatchedRuntimeEngine`,
#: one lane per scenario or many), ``transient`` (one step-response
#: stepper, one case per scenario or many), ``vrm`` (one cached
#: array-curve march), and ``cosim`` and ``fleet``, which loop over their
#: specs. The steady evaluators share a family but no column arithmetic.
EXACT_KERNELS = ("cosim", "fleet", "runtime", "transient", "vrm")


def assert_identical(reference, other) -> None:
    """Result-set equality bit for bit (NaN matching NaN), order
    included."""
    assert len(reference) == len(other)
    for a, b in zip(reference, other):
        assert a.spec == b.spec
        assert set(a.metrics) == set(b.metrics)
        for name in a.metrics:
            ref, got = a.metrics[name], b.metrics[name]
            if math.isnan(ref):
                assert math.isnan(got)
                continue
            assert got == ref, f"{a.spec.evaluator}/{name}: {ref} vs {got}"


def test_every_evaluator_is_classified():
    """A new evaluator must be classified: exact, or steady with a
    direct-solve oracle."""
    # Evaluators other test modules register are not the library's.
    library = [name for name in evaluator_names() if "test" not in name]
    assert sorted(EXACT_KERNELS + STEADY_EVALUATORS) == library


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("preset_name", sorted(preset_names()))
    def test_batches_of_one_match_batch_composition(self, preset_name):
        specs = preset_scenarios(preset_name)
        serial = SweepRunner(backend="serial").run(specs)
        vectorized = SweepRunner(backend="vectorized").run(specs)
        assert_identical(serial, vectorized)

    def test_one_loop_batches_by_width(self, monkeypatch):
        """Serial calls the registered evaluator once per spec,
        vectorized once per evaluator group; nothing else runs."""
        from repro.sweep import evaluators

        sizes = []
        registered = evaluators.get_evaluator("vrm")

        def recording(specs):
            sizes.append(len(specs))
            return registered(specs)

        monkeypatch.setitem(evaluators._REGISTRY, "vrm", recording)
        specs = get_preset("vrm").expand(points=6)
        SweepRunner(backend="serial").run(specs)
        assert sizes == [1] * len(specs)
        sizes.clear()
        SweepRunner(backend="vectorized").run(specs)
        assert sizes == [len(specs)]


#: Scenario grids per steady evaluator for the direct-solve oracle.
def steady_scenarios(evaluator: str) -> "list[ScenarioSpec]":
    if evaluator == "fleet_chip":
        return [
            ScenarioSpec(
                evaluator="fleet_chip", nx=22, ny=11,
                total_flow_ml_min=flow, utilization=utilization,
            )
            for flow in (40.0, 338.0, 676.0)
            for utilization in (0.25, 1.0)
        ]
    preset = {"operating_point": "flow", "workload": "workloads"}
    return get_preset(preset.get(evaluator, evaluator)).expand(points=6)


class TestSteadyOracle:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("evaluator", STEADY_EVALUATORS)
    def test_steady_evaluator_matches_direct_solve(self, evaluator, backend):
        specs = steady_scenarios(evaluator)
        results = SweepRunner(backend=backend).run(specs)
        for result in results:
            for name, expected in steady_oracle_metrics(result.spec).items():
                assert result.metrics[name] == pytest.approx(
                    expected, rel=EQUIVALENCE_RTOL, abs=EQUIVALENCE_RTOL
                ), f"{evaluator}/{name} at {result.spec}"


class TestWideTransientBatch:
    def test_shared_coolant_point_columns_match_batches_of_one(self):
        """Six step responses at one 44x22 coolant point march as six
        columns of one factorization; each matches its own batch of one
        bit for bit."""
        specs = [
            ScenarioSpec(
                evaluator="transient", nx=44, ny=22,
                utilization_before=before, utilization=after,
                step_duration_s=0.1, step_dt_s=0.05,
            )
            for before, after in (
                (0.1, 1.0), (1.0, 0.1), (0.3, 0.8),
                (0.5, 0.6), (0.9, 0.2), (0.0, 0.7),
            )
        ]
        serial = SweepRunner(backend="serial").run(specs)
        vectorized = SweepRunner(backend="vectorized").run(specs)
        for one, wide in zip(serial, vectorized):
            assert wide.metrics == one.metrics


class TestCacheInterop:
    def test_vectorized_results_replay_on_serial(self):
        """Either backend's results serve the other backend's cache."""
        specs = get_preset("flow").expand(points=5)
        cache = ResultStore()
        first = SweepRunner(backend="vectorized", cache=cache).run(specs)
        assert cache.misses == len(specs)
        replay = SweepRunner(backend="serial", cache=cache).run(specs)
        assert cache.misses == len(specs)  # no new evaluations
        assert all(result.from_cache for result in replay)
        for a, b in zip(first, replay):
            assert a.metrics == b.metrics

    def test_hit_and_miss_accounting_matches_across_backends(self):
        """Dedup + memoization behave identically whatever the backend:
        same unique-spec count, same hit count, same stored keys."""
        grid_specs = get_preset("vrm").expand(points=6)
        duplicated = grid_specs + grid_specs[:3]
        accounting = {}
        stored = {}
        for name in BACKEND_NAMES:
            cache = ResultStore()
            SweepRunner(backend=name, cache=cache).run(duplicated)
            accounting[name] = (cache.hits, cache.misses)
            stored[name] = {
                spec.cache_key() for spec in duplicated
            } - {
                key for key in (s.cache_key() for s in duplicated)
                if cache.get(key) is None
            }
        assert accounting["serial"] == accounting["vectorized"]
        assert stored["serial"] == stored["vectorized"]

    def test_mixed_evaluator_batch_partitions_and_reassembles(self):
        """A batch mixing evaluators keeps input order and per-spec
        correctness."""
        specs = [
            ScenarioSpec(evaluator="operating_point", total_flow_ml_min=338.0),
            ScenarioSpec(evaluator="transient", nx=22, ny=11),
            ScenarioSpec(evaluator="vrm", vrm="sc"),
        ]
        serial = SweepRunner(backend="serial").run(specs)
        vectorized = SweepRunner(backend="vectorized").run(specs)
        assert_identical(serial, vectorized)


class TestDynamicPresetCacheInterop:
    """Cold/warm cache parity for the trajectory-valued presets.

    The steady presets' cache contract is pinned above; these checks
    extend it to the dynamic evaluators:
    both backends perform the same cold-run misses, replay warm with
    zero new evaluations, and reports identical hit/miss accounting.
    """

    @pytest.mark.parametrize("preset_name", ["transient", "runtime", "fleet"])
    def test_cold_and_warm_parity_across_backends(self, preset_name):
        specs = preset_scenarios(preset_name)
        accounting = {}
        cold_results = {}
        for name in BACKEND_NAMES:
            cache = ResultStore()
            runner = SweepRunner(backend=name, cache=cache)
            cold = runner.run(specs)
            assert cache.misses == len(specs)
            assert all(not result.from_cache for result in cold)
            warm = runner.run(specs)
            assert cache.misses == len(specs)  # zero new evaluations
            assert all(result.from_cache for result in warm)
            for computed, replayed in zip(cold, warm):
                assert replayed.metrics == computed.metrics
            accounting[name] = (cache.hits, cache.misses)
            cold_results[name] = cold
        assert accounting["serial"] == accounting["vectorized"]
        assert_identical(cold_results["serial"], cold_results["vectorized"])


class TestVectorizedCurveCache:
    def test_eviction_never_drops_the_current_working_set(self):
        """A batch whose flows overflow the cache bound must still return
        every requested curve — including ones cached by *earlier* calls
        (regression: insertion-order eviction used to drop an old-but-
        requested flow and crash with KeyError)."""
        from repro.sweep.evaluators import (
            _ARRAY_CURVE_CACHE_MAX,
            array_curves,
            clear_array_curves,
        )

        clear_array_curves()
        try:
            old_flow = 676.0
            array_curves([old_flow])  # cached by an earlier batch
            flows = [old_flow] + [
                100.0 + k for k in range(_ARRAY_CURVE_CACHE_MAX + 5)
            ]
            curves = array_curves(flows)
            assert set(curves) == set(flows)
        finally:
            clear_array_curves()


class TestBackendSelection:
    def test_names_resolve(self):
        for name in BACKEND_NAMES:
            assert get_backend(name).name == name
            assert SweepRunner(backend=name).backend.name == name

    def test_instances_pass_through(self):
        for backend in (SerialBackend(), VectorizedBackend()):
            assert SweepRunner(backend=backend).backend is backend

    def test_default_is_vectorized(self):
        assert BACKEND_NAMES == ("serial", "vectorized")
        assert SweepRunner().backend.name == "vectorized"
        assert get_backend(None).name == "vectorized"

    def test_process_name_rejected_with_listing(self):
        with pytest.raises(
            ConfigurationError, match=r"\('serial', 'vectorized'\)"
        ):
            SweepRunner(backend="process")

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            get_backend("gpu")
        with pytest.raises(ConfigurationError, match="unknown backend"):
            SweepRunner(backend="gpu")
