"""End-to-end tests for ``repro serve``.

The contract under test (``docs/service.md``): results are
byte-identical to in-process runs, a warm store answers replays with
zero evaluations, and job failures are error *events* — the server
survives them.
"""

import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.serve import (
    JOB_KINDS,
    PROTOCOL_VERSION,
    BackgroundServer,
    JobOutcome,
    ResultServer,
    ServeClient,
    validate_request,
    write_artifacts,
)
from repro.serve import server as server_module
from repro.serve.protocol import decode_line, encode_line
from repro.store import ResultStore
from repro.sweep import SweepRunner, get_preset


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        line = encode_line({"b": 1, "a": 2})
        assert line.endswith(b"\n")
        assert line.index(b'"a"') < line.index(b'"b"')  # sorted keys
        assert decode_line(line) == {"a": 2, "b": 1}

    def test_decode_rejects_malformed_lines(self):
        with pytest.raises(ConfigurationError):
            decode_line(b"{torn")
        with pytest.raises(ConfigurationError):
            decode_line(b"[1, 2]\n")  # not an object

    def test_validate_request_shapes(self):
        assert validate_request(
            {"kind": "sweep", "params": {"preset": "flow"}}
        ) == ("sweep", {"preset": "flow"})
        assert validate_request({"kind": "runtime"}) == ("runtime", {})
        with pytest.raises(ConfigurationError):
            validate_request({"params": {}})  # kind missing
        with pytest.raises(ConfigurationError):
            validate_request({"kind": "paint", "params": {}})
        with pytest.raises(ConfigurationError):
            validate_request({"kind": "sweep", "params": [1]})

    def test_job_kinds_track_the_cli(self):
        assert JOB_KINDS == ("sweep", "optimize", "runtime", "fleet")


class TestDeterminism:
    def test_two_clients_byte_identical_and_warm_replay(self):
        with BackgroundServer(ResultServer(SweepRunner())) as bg:
            client = ServeClient(port=bg.port)
            first = client.submit("sweep", preset="flow", points=3).require()
            second = client.submit("sweep", preset="flow", points=3).require()
        assert first["store"]["misses"] == 3  # cold: every point evaluated
        # Warm replay: zero evaluations, answered entirely by the store.
        assert second["store"] == {
            "hits": 3, "misses": 0, "corrupt": 0, "evicted": 0,
        }
        assert second["csv"] == first["csv"]
        assert second["json"] == first["json"]
        assert second["records"] == first["records"]

    def test_served_bytes_match_in_process_exports(self, tmp_path):
        preset = get_preset("flow")
        direct = SweepRunner().run(preset.expand(3))
        direct_csv = direct.save_csv(tmp_path / "direct.csv").read_bytes()
        direct_json = direct.save_json(tmp_path / "direct.json").read_bytes()

        with BackgroundServer() as bg:
            served = ServeClient(port=bg.port).submit(
                "sweep", preset="flow", points=3
            ).require()
        paths = write_artifacts(
            served,
            csv_path=tmp_path / "served.csv",
            json_path=tmp_path / "served.json",
        )
        assert paths[0].read_bytes() == direct_csv
        assert paths[1].read_bytes() == direct_json

    def test_warm_store_survives_server_restart(self, tmp_path):
        store_dir = tmp_path / "store"

        def one_server_run():
            runner = SweepRunner(cache=ResultStore(store_dir))
            with BackgroundServer(ResultServer(runner)) as bg:
                return ServeClient(port=bg.port).submit(
                    "sweep", preset="flow", points=3
                ).require()

        first = one_server_run()
        second = one_server_run()  # a brand-new server process state
        assert first["store"]["misses"] == 3
        assert second["store"]["misses"] == 0
        assert second["store"]["hits"] == 3
        assert second["csv"] == first["csv"]


class TestStatsFlush:
    def test_jobs_share_one_pending_write_and_close_settles_it(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(server_module, "STATS_FLUSH_S", 3600.0)
        runner = SweepRunner(cache=ResultStore(tmp_path))
        with BackgroundServer(ResultServer(runner)) as bg:
            for _ in range(2):
                ServeClient(port=bg.port).submit(
                    "sweep", preset="flow", points=3
                ).require()
            # Both jobs wait on the one write an hour out.
            assert not (tmp_path / ".stats").exists()
        assert ResultStore(tmp_path).persisted_stats() == {
            "hits": 3, "misses": 3, "corrupt": 0, "evicted": 0,
        }

    def test_stats_reach_disk_while_the_server_runs(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(server_module, "STATS_FLUSH_S", 0.0)
        runner = SweepRunner(cache=ResultStore(tmp_path))
        with BackgroundServer(ResultServer(runner)) as bg:
            ServeClient(port=bg.port).submit(
                "sweep", preset="flow", points=3
            ).require()
            persisted = ResultStore(tmp_path).persisted_stats
            deadline = time.monotonic() + 10.0
            while persisted()["misses"] < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert persisted()["misses"] == 3


class TestWarmReplays:
    @staticmethod
    def _threads_of_run_job(monkeypatch):
        """Record the thread every served job runs on."""
        threads = []
        real = server_module.run_job

        def spy(kind, params, runner):
            threads.append(threading.get_ident())
            return real(kind, params, runner)

        monkeypatch.setattr(server_module, "run_job", spy)
        return threads

    def test_replay_without_misses_runs_on_the_loop_thread(
        self, monkeypatch
    ):
        threads = self._threads_of_run_job(monkeypatch)
        with BackgroundServer(ResultServer(SweepRunner())) as bg:
            client = ServeClient(port=bg.port)
            results = [
                client.submit("sweep", preset="flow", points=3).require()
                for _ in range(3)
            ]
            loop_thread = bg._thread.ident
        # Cold run, then the first replay (still on the worker: the cold
        # run missed), then a warm replay on the event loop.
        assert [r["store"]["misses"] for r in results] == [3, 0, 0]
        assert [t == loop_thread for t in threads] == [False, False, True]
        assert results[2]["csv"] == results[0]["csv"]
        assert results[2]["json"] == results[0]["json"]

    def test_replay_that_misses_goes_back_to_the_worker(
        self, monkeypatch, tmp_path
    ):
        threads = self._threads_of_run_job(monkeypatch)
        runner = SweepRunner(
            cache=ResultStore(tmp_path, max_memory_entries=1)
        )
        with BackgroundServer(ResultServer(runner)) as bg:
            client = ServeClient(port=bg.port)

            def submit():
                return client.submit(
                    "sweep", preset="flow", points=3
                ).require()

            first = submit()
            submit()  # zero misses: the next replay is warm
            for entry in tmp_path.glob("*.json"):
                entry.unlink()  # evicted behind the server's back
            evicted = submit()
            again = submit()
            loop_thread = bg._thread.ident
        assert evicted["store"]["misses"] == 2  # one entry stayed in memory
        assert [t == loop_thread for t in threads] == [
            False, False, True, False,
        ]
        assert evicted["csv"] == again["csv"] == first["csv"]

    def test_jobs_without_a_store_never_run_on_the_loop(self, monkeypatch):
        threads = self._threads_of_run_job(monkeypatch)
        with BackgroundServer(ResultServer(SweepRunner())) as bg:
            client = ServeClient(port=bg.port)
            for _ in range(2):
                client.submit("runtime", trace="step").require()
            loop_thread = bg._thread.ident
        assert loop_thread not in threads


class TestEventStream:
    def test_queued_started_progress_done(self):
        server = ResultServer(SweepRunner(), heartbeat_s=0.02)
        with BackgroundServer(server) as bg:
            outcome = ServeClient(port=bg.port).submit(
                "runtime", trace="bursty"
            )
        names = [event["event"] for event in outcome.events]
        assert names[0] == "queued"
        assert outcome.events[0]["version"] == PROTOCOL_VERSION
        assert outcome.events[0]["position"] == 0
        assert "started" in names
        assert names[-1] == "done"
        progress = outcome.progress_events()
        assert progress  # heartbeats flowed while the job computed
        assert {"elapsed_ms", "store"} <= set(progress[0])
        result = outcome.require()
        assert result["kind"] == "runtime"
        assert len(result["records"]) > 10
        assert "peak_temperature_c" in result["kpis"]
        assert server.jobs_completed == 1

    def test_joboutcome_require_without_events(self):
        with pytest.raises(ConfigurationError):
            JobOutcome().require()

    def test_write_artifacts_requires_export_text(self):
        with pytest.raises(ConfigurationError):
            write_artifacts({"records": []}, csv_path="out.csv")


class TestErrors:
    def test_job_failure_is_an_event_and_the_server_survives(self):
        server = ResultServer(SweepRunner())
        with BackgroundServer(server) as bg:
            client = ServeClient(port=bg.port)
            outcome = client.submit("sweep", preset="nonsense")
            assert not outcome.ok
            assert "nonsense" in outcome.error
            with pytest.raises(ConfigurationError):
                outcome.require()
            # The next job on the same server runs fine.
            assert client.submit("sweep", preset="flow", points=2).ok
        assert server.jobs_failed == 1
        assert server.jobs_completed == 1

    def test_unknown_kind_rejected_before_queueing(self):
        with BackgroundServer() as bg:
            outcome = ServeClient(port=bg.port).submit("paint")
        assert not outcome.ok
        assert "kind" in outcome.error
        assert [event["event"] for event in outcome.events] == ["error"]

    def test_unknown_parameter_rejected(self):
        with BackgroundServer() as bg:
            outcome = ServeClient(port=bg.port).submit(
                "sweep", preset="flow", point=8  # typo for points
            )
        assert not outcome.ok
        assert "point" in outcome.error

    @pytest.mark.parametrize(
        "kind, param, name",
        [
            ("sweep", "points", "points"),
            ("optimize", "rounds", "max_rounds"),
            ("fleet", "chips", "n_chips"),
        ],
    )
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), 2.5, "3", True]
    )
    def test_malformed_count_named_in_error(self, kind, param, name, value):
        """A malformed count fails the job with a ConfigurationError that
        names the field, not a TypeError from deep inside."""
        presets = {"sweep": {"preset": "flow"},
                   "optimize": {"preset": "flow-optimum"}}
        with BackgroundServer() as bg:
            outcome = ServeClient(port=bg.port).submit(
                kind, **presets.get(kind, {}), **{param: value}
            )
        assert not outcome.ok
        assert name in outcome.error
        assert "TypeError" not in outcome.error
        with pytest.raises(ConfigurationError):
            outcome.require()

    @pytest.mark.parametrize(
        "param, value, name",
        [
            ("kp", float("nan"), "pid_kp"),
            ("flow_ml_min", "fast", "total_flow_ml_min"),
        ],
    )
    def test_bad_runtime_parameter_named_in_error(self, param, value, name):
        """Runtime jobs are wired through a runtime ScenarioSpec, so a bad
        knob fails by its spec field name."""
        with BackgroundServer() as bg:
            outcome = ServeClient(port=bg.port).submit(
                "runtime", **{param: value}
            )
        assert not outcome.ok
        assert name in outcome.error
        assert "TypeError" not in outcome.error

    def test_oversized_request_line_is_answered(self):
        """A line over the limit gets an error event (no job id), and the
        server keeps serving new connections."""
        import socket

        from repro.serve.server import MAX_REQUEST_BYTES

        server = ResultServer(SweepRunner())
        with BackgroundServer(server) as bg:
            with socket.create_connection(
                ("127.0.0.1", bg.port), timeout=60
            ) as conn:
                conn.sendall(b"x" * (MAX_REQUEST_BYTES + 1) + b"\n")
                with conn.makefile("rb") as lines:
                    event = decode_line(lines.readline())
            assert event["event"] == "error"
            assert event["job"] is None
            assert str(MAX_REQUEST_BYTES) in event["message"]
            assert ServeClient(port=bg.port).submit(
                "sweep", preset="flow", points=2
            ).ok
        assert server.jobs_completed == 1
