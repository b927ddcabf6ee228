"""The obs module facade: session lifecycle, no-op guarantees, preload."""

import json

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _no_leaked_session():
    obs.stop()
    yield
    obs.stop()


class TestDisabled:
    def test_everything_is_a_no_op(self):
        assert not obs.enabled()
        assert obs.session() is None
        first = obs.span("x.y", anything=1)
        second = obs.span("x.z")
        # One shared no-op context manager: no per-call allocation.
        assert first is second
        with first:
            obs.inc("x.count")
            obs.observe("x.size", 3)
            obs.gauge("x.lanes", 1.0)
        snapshot = obs.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["timings"] == {}


class TestSession:
    def test_counters_preloaded_to_zero(self):
        obs.start()
        snapshot = obs.snapshot()
        assert set(snapshot["counters"]) == set(obs.COUNTER_NAMES)
        assert all(value == 0 for value in snapshot["counters"].values())

    def test_start_stop_lifecycle(self):
        session = obs.start()
        assert obs.enabled()
        assert obs.session() is session
        obs.inc("sweep.evaluations", 3)
        assert obs.stop() is session
        assert not obs.enabled()
        assert obs.stop() is None
        # The detached session keeps its data.
        assert session.snapshot()["counters"]["sweep.evaluations"] == 3

    def test_spans_feed_tracer_and_timings(self):
        obs.start()
        with obs.span("sweep.run", scenarios=2):
            pass
        session = obs.session()
        [record] = session.tracer.spans()
        assert record["name"] == "sweep.run"
        assert record["attrs"] == {"scenarios": 2}
        assert session.metrics.timings["sweep.run"]["count"] == 1

    def test_write_trace_and_metrics(self, tmp_path):
        obs.start()
        with obs.span("sweep.run"):
            obs.inc("sweep.evaluations")
        session = obs.session()
        trace_path = session.write_trace(tmp_path / "t.json")
        metrics_path = session.write_metrics(tmp_path / "m.json")
        trace = json.loads(trace_path.read_text())
        [event] = trace["traceEvents"]
        assert event["name"] == "sweep.run"
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["sweep.evaluations"] == 1
