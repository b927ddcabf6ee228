"""MetricsRegistry: sections, accumulation, serialization."""

from repro.obs.metrics import (
    DETERMINISTIC_SECTIONS,
    MetricsRegistry,
    deterministic_sections,
    dumps,
)


class TestSections:
    def test_snapshot_sections_and_warm_split(self):
        registry = MetricsRegistry()
        registry.inc("a.count")
        registry.inc("a.count", 4)
        registry.inc("a.warm", warm=True)
        registry.observe("a.size", 3)
        registry.observe("a.warm_size", 7, warm=True)
        registry.gauge("a.lanes", 2.0)
        registry.timing("a.run", 0.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"a.count": 5}
        assert snapshot["warm"]["counters"] == {"a.warm": 1}
        assert snapshot["histograms"]["a.size"] == {
            "count": 1, "total": 3, "min": 3, "max": 3,
        }
        assert snapshot["warm"]["histograms"]["a.warm_size"]["total"] == 7
        assert snapshot["gauges"] == {"a.lanes": 2.0}
        assert snapshot["timings"]["a.run"] == {"count": 1, "total_s": 0.5}
        assert registry.operations == 7

    def test_snapshot_is_detached(self):
        registry = MetricsRegistry()
        registry.inc("a.count")
        snapshot = registry.snapshot()
        registry.inc("a.count")
        assert snapshot["counters"]["a.count"] == 1

    def test_histogram_min_max(self):
        registry = MetricsRegistry()
        for value in (5, 2, 9):
            registry.observe("a.size", value)
        assert registry.snapshot()["histograms"]["a.size"] == {
            "count": 3, "total": 16, "min": 2, "max": 9,
        }

    def test_timings_accumulate_and_gauges_overwrite(self):
        registry = MetricsRegistry()
        for lanes in (2.0, 1.0):
            registry.timing("a.run", 0.25)
            registry.gauge("a.lanes", lanes)
        assert registry.timings["a.run"] == {"count": 2, "total_s": 0.5}
        assert registry.gauges["a.lanes"] == 1.0


class TestSerialization:
    def test_deterministic_sections_projection(self):
        registry = MetricsRegistry()
        registry.inc("a.count")
        registry.timing("a.run", 0.1)
        projected = deterministic_sections(registry.snapshot())
        assert sorted(projected) == sorted(DETERMINISTIC_SECTIONS)
        assert "timings" not in projected

    def test_dumps_is_sorted_and_newline_terminated(self):
        payload = dumps({"b": 1, "a": 2})
        assert payload.endswith("\n")
        assert payload.index('"a"') < payload.index('"b"')
