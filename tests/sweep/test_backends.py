"""Oracle-vs-kernel contract: the serial oracle vs the vectorized backend.

Every sweep preset is evaluated on both
:class:`~repro.sweep.backends.EvaluationBackend` implementations and the
vectorized result set must match the serial oracle's: within the
documented :data:`~repro.sweep.vectorized.EQUIVALENCE_RTOL` (kernels with
a batched thermal solve) or bit-identical (evaluators without a kernel,
which run the serial path, and the kernels in ``EXACT_KERNELS``, whose
serial evaluator is a batch of one through the same code).

Plus the cache-interop contract: results computed by either backend land
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
    get_backend,
    get_preset,
    preset_names,
)
from repro.errors import ConfigurationError
from repro.sweep.vectorized import BATCH_KERNELS, EQUIVALENCE_RTOL

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


#: Kernels that share every piece with their serial evaluator: ``runtime``
#: (one :class:`~repro.runtime.engine.BatchedRuntimeEngine`, one lane per
#: scenario or many), ``transient`` (one step-response stepper, one case
#: per scenario or many) and ``vrm`` (one cached array-curve march). They
#: must agree exactly.
EXACT_KERNELS = ("runtime", "transient", "vrm")


def vectorized_rtol(evaluator: str) -> float:
    """Documented serial-vs-vectorized tolerance of one evaluator."""
    if evaluator in BATCH_KERNELS and evaluator not in EXACT_KERNELS:
        return EQUIVALENCE_RTOL
    return 0.0


def assert_equivalent(reference, other, rtol: float) -> None:
    """Result-set equality within a relative tolerance, order included."""
    assert len(reference) == len(other)
    for a, b in zip(reference, other):
        assert a.spec == b.spec
        assert set(a.metrics) == set(b.metrics)
        for name in a.metrics:
            ref, got = a.metrics[name], b.metrics[name]
            if math.isnan(ref):
                assert math.isnan(got)
                continue
            assert got == pytest.approx(ref, rel=rtol, abs=rtol), (
                f"{a.spec.evaluator}/{name}: {ref} vs {got}"
            )


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("preset_name", sorted(preset_names()))
    def test_all_backends_agree(self, preset_name):
        specs = preset_scenarios(preset_name)
        serial = SweepRunner(backend="serial").run(specs)
        vectorized = SweepRunner(backend="vectorized").run(specs)

        # Vectorized kernels agree within the documented tolerance;
        # evaluators without a kernel and the exact kernels are
        # bit-identical.
        assert_equivalent(
            serial, vectorized, rtol=vectorized_rtol(specs[0].evaluator)
        )


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
        """A batch mixing kernel and kernel-less evaluators keeps input
        order and per-spec correctness."""
        specs = [
            ScenarioSpec(evaluator="operating_point", total_flow_ml_min=338.0),
            ScenarioSpec(evaluator="transient", nx=22, ny=11),
            ScenarioSpec(evaluator="vrm", vrm="sc"),
        ]
        serial = SweepRunner(backend="serial").run(specs)
        vectorized = SweepRunner(backend="vectorized").run(specs)
        for a, b in zip(serial, vectorized):
            assert a.spec == b.spec
        assert_equivalent(serial, vectorized, rtol=EQUIVALENCE_RTOL)


class TestDynamicPresetCacheInterop:
    """Cold/warm cache parity for the trajectory-valued presets.

    The steady presets' cache contract is pinned above; these checks
    extend it to the dynamic evaluators the batched kernels cover:
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
        assert_equivalent(
            cold_results["serial"], cold_results["vectorized"],
            rtol=vectorized_rtol(specs[0].evaluator),
        )


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

    def test_default_is_the_serial_oracle(self):
        assert BACKEND_NAMES == ("serial", "vectorized")
        assert SweepRunner().backend.name == "serial"
        assert get_backend(None).name == "serial"

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
