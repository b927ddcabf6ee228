"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _job_params, build_parser, main
from repro.serve.jobs import _resolve


class TestParser:
    def test_known_commands(self):
        parser = build_parser()
        for command in ("summary", "fig3", "fig7", "fig8", "fig9", "cosim"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_fig3_runs_and_prints(self, capsys):
        assert main(["fig3"]) == 0
        output = capsys.readouterr().out
        assert "OCV" in output
        assert "2.5" in output

    def test_fig7_prints_anchor(self, capsys):
        assert main(["fig7"]) == 0
        output = capsys.readouterr().out
        assert "paper: 6 A" in output
        assert "1.648" in output

    def test_fig8_prints_window(self, capsys):
        assert main(["fig8"]) == 0
        output = capsys.readouterr().out
        assert "voltage window" in output

    def test_fig9_prints_peak(self, capsys):
        assert main(["fig9"]) == 0
        output = capsys.readouterr().out
        assert "paper: 41 C" in output

    def test_summary_prints_anchor_table(self, capsys):
        assert main(["summary"]) == 0
        output = capsys.readouterr().out
        assert "bright-silicon utilization" in output
        assert "pumping power [W]" in output

    def test_cosim_prints_the_three_scenarios_exactly(self, capsys):
        """Byte witness of the coupling loop's fixed group count,
        iteration budget, tolerance and surface window."""
        assert main(["cosim"]) == 0
        assert capsys.readouterr().out == (
            "nominal      I =  6.09 A, peak  42.1 C, "
            "gain vs own isothermal  +1.6 %\n"
            "48 ml/min    I =  9.19 A, peak  95.8 C, "
            "gain vs own isothermal +26.7 %\n"
            "37 C inlet   I =  6.62 A, peak  52.3 C, "
            "gain vs own isothermal  +1.4 %\n"
        )


class TestVersion:
    def test_version_flag_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        import repro

        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_package_version_falls_back_to_source_tree(self):
        # In a PYTHONPATH=src checkout there is no installed distribution;
        # the helper must still answer.
        from repro.cli import package_version

        assert package_version()


class TestRuntimeCommand:
    def test_parser_accepts_runtime(self):
        args = build_parser().parse_args(
            ["runtime", "--trace", "step", "--controller", "fixed"]
        )
        assert args.command == "runtime"
        params = _resolve("runtime", _job_params(args))
        assert params["trace"] == "step"
        assert params["controller"] == "fixed"
        assert params["flow_ml_min"] == 676.0

    def test_unknown_trace_fails_at_run_time(self, capsys):
        assert main(["runtime", "--trace", "nope"]) == 2
        assert "unknown trace" in capsys.readouterr().err

    def test_runtime_prints_kpis_and_exports(self, capsys, tmp_path):
        csv_path = tmp_path / "trajectory.csv"
        assert main([
            "runtime", "--trace", "step", "--controller", "fixed",
            "--csv", str(csv_path),
        ]) == 0
        output = capsys.readouterr().out
        assert "runtime 'step'" in output
        assert "net_energy_j" in output
        assert "peak_temperature_c" in output
        from repro.io import load_csv

        records = load_csv(csv_path)
        assert len(records) > 10
        assert records[0]["time_s"] > 0.0


class TestPresetListing:
    def test_sweep_list_prints_presets(self, capsys):
        assert main(["sweep", "--list"]) == 0
        output = capsys.readouterr().out
        for name in ("flow", "geometry", "vrm", "workloads", "cosim",
                     "transient", "runtime"):
            assert name in output
        # one line per preset, each carrying a description
        assert "cooling vs generation vs pumping" in output

    def test_optimize_list_prints_presets(self, capsys):
        assert main(["optimize", "--list"]) == 0
        output = capsys.readouterr().out
        for name in ("flow-optimum", "geometry-pareto", "vrm-tradeoff",
                     "runtime-pid"):
            assert name in output

    def test_sweep_without_preset_errors(self, capsys):
        assert main(["sweep"]) == 2
        assert "--list" in capsys.readouterr().err

    def test_optimize_without_preset_errors(self, capsys):
        assert main(["optimize"]) == 2
        assert "--list" in capsys.readouterr().err

    def test_optimize_unknown_preset_errors(self, capsys):
        assert main(["optimize", "nonsense"]) == 2
        assert "unknown optimization preset" in capsys.readouterr().err


class TestOptimizeCommand:
    def test_flow_optimum_single_round(self, capsys, tmp_path):
        csv_path = tmp_path / "frontier.csv"
        assert main([
            "optimize", "flow-optimum", "--rounds", "1",
            "--csv", str(csv_path),
        ]) == 0
        output = capsys.readouterr().out
        assert "best (max net_w)" in output
        assert "peak_temperature_c <= 85" in output
        # Budget exhaustion is reported as such, not as a finished front.
        assert "round budget exhausted" in output
        # The frontier table keeps the design-axis column even when the
        # frontier collapses to a single point.
        assert "total_flow_ml_min" in output.split("Pareto frontier")[1]
        assert csv_path.is_file()
        from repro.io import load_csv

        records = load_csv(csv_path)
        assert len(records) >= 1
        assert all(record["net_w"] > 0 for record in records)

    def test_vrm_tradeoff_formats_categorical_axis(self, capsys):
        # Regression: the best-point line must not apply numeric
        # formatting to the categorical vrm axis value.
        assert main(["optimize", "vrm-tradeoff"]) == 0
        output = capsys.readouterr().out
        assert "vrm=sc" in output
        assert "Pareto frontier" in output

    def test_cache_dir_replays_with_no_new_evaluations(self, capsys,
                                                       tmp_path):
        cache_dir = str(tmp_path / "cache")
        args = ["optimize", "flow-optimum", "--rounds", "1",
                "--cache-dir", cache_dir]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "9 evaluation(s)" in first
        assert "0 evaluation(s), 9 from cache" in second


class TestWorkloadTraceSplit:
    @pytest.mark.parametrize("command, default", [
        ("runtime", "bursty"), ("fleet", "diurnal-bursty"),
    ])
    def test_json_suffix_routes_to_span_trace(self, command, default):
        # Case-insensitive: OUT.JSON is a span-trace path on a
        # case-preserving filesystem, not a workload named OUT.JSON.
        for path in ("out.json", "OUT.JSON"):
            args = build_parser().parse_args([command, "--trace", path])
            assert _resolve(command, _job_params(args))["trace"] == default
            assert args.trace_out == path

    def test_workload_name_passes_through(self):
        args = build_parser().parse_args(["runtime", "--trace", "step"])
        assert _job_params(args) == {"trace": "step"}
        assert getattr(args, "trace_out", None) is None

    def test_runtime_uppercase_trace_writes_chrome_trace(
        self, capsys, tmp_path
    ):
        import json

        trace_path = tmp_path / "SPANS.JSON"
        assert main([
            "runtime", "--trace", str(trace_path), "--controller", "fixed",
        ]) == 0
        output = capsys.readouterr().out
        # The workload fell back to the command default...
        assert "runtime 'bursty'" in output
        # ...and the uppercase path received the span trace.
        assert "traceEvents" in json.loads(trace_path.read_text())


class TestSweepCacheFlags:
    def test_cache_stats_prints_lifetime_and_budget_holds(
        self, capsys, tmp_path
    ):
        store_dir = tmp_path / "store"
        assert main([
            "sweep", "flow", "--points", "4",
            "--cache-dir", str(store_dir),
            "--cache-stats", "--cache-max-entries", "3",
        ]) == 0
        output = capsys.readouterr().out
        assert "cache statistics (this run | directory lifetime)" in output
        assert "evicted" in output
        # The eviction budget held: only 3 entries remain on disk.
        assert len(list(store_dir.glob("*.json"))) == 3

    def test_memory_only_cache_stats_table(self, capsys):
        assert main(["sweep", "flow", "--points", "2",
                     "--cache-stats"]) == 0
        output = capsys.readouterr().out
        assert "cache statistics:" in output
        assert "lifetime" not in output


class TestServeParser:
    def test_parser_accepts_serve(self):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--store", "somewhere",
            "--heartbeat", "0.5",
        ])
        assert args.command == "serve"
        assert args.port == 0
        assert args.store == "somewhere"
        assert args.heartbeat == 0.5
        assert args.host == "127.0.0.1"

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 7777
        assert args.store is None
        assert args.backend is None
        assert not hasattr(args, "jobs")


class TestBackendFlags:
    """Two backends and no pool knob on every evaluating subcommand."""

    COMMANDS = (["sweep", "flow"], ["optimize", "flow-optimum"],
                ["fleet"], ["serve"])

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_jobs_flag_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(command + ["--jobs", "2"])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_backend_choices(self, command):
        for name in ("serial", "vectorized"):
            args = build_parser().parse_args(command + ["--backend", name])
            assert args.backend == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--backend", "process"])


def test_importing_the_cli_loads_no_scipy_optimize():
    """A cold command pays only for what it runs: the Brent branch of the
    Butler-Volmer inversion imports scipy.optimize when it is taken."""
    src = Path(__file__).resolve().parents[2] / "src"
    probe = "import sys, repro.cli; print('scipy.optimize' in sys.modules)"
    loaded = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), check=True,
    ).stdout.strip()
    assert loaded == "False"


def test_array_build_and_cold_flow_sweep_load_no_scipy_optimize():
    """Only the planar validation cell inverts Butler-Volmer, and its
    couples are symmetric (the closed form); the case-study couples
    (alpha = 0.25) are only evaluated forward by the porous march. So
    building the array and a cold flow sweep never take the Brent branch."""
    src = Path(__file__).resolve().parents[2] / "src"
    probe = (
        "import contextlib, io, sys\n"
        "from repro.casestudy.power7plus import build_array\n"
        "from repro.cli import main\n"
        "build_array()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['sweep', 'flow', '--points', '4']) == 0\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), check=True,
    ).stdout.strip()
    assert loaded == "False"
