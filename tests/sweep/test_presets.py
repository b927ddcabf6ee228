"""Tests for the named sweep presets and the sweep CLI command."""

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.io import load_csv, load_json
from repro.sweep import get_preset, preset_names


class TestPresets:
    def test_known_presets(self):
        assert preset_names() == (
            "cosim", "fleet", "flow", "geometry", "runtime", "transient",
            "vrm", "workloads"
        )

    def test_unknown_preset_raises(self):
        with pytest.raises(ConfigurationError):
            get_preset("nope")

    @pytest.mark.parametrize("name,evaluator", [
        ("flow", "operating_point"),
        ("geometry", "geometry"),
        ("vrm", "vrm"),
        ("workloads", "workload"),
        ("cosim", "cosim"),
        ("transient", "transient"),
        ("runtime", "runtime"),
        ("fleet", "fleet"),
    ])
    def test_preset_targets_its_evaluator(self, name, evaluator):
        preset = get_preset(name)
        specs = preset.expand()
        assert len(specs) >= preset.default_points
        assert all(s.evaluator == evaluator for s in specs)

    def test_point_count_scales(self):
        for name in preset_names():
            assert len(get_preset(name).expand(100)) >= 100

    def test_flow_preset_is_exactly_sized(self):
        specs = get_preset("flow").expand(100)
        assert len(specs) == 100
        flows = [s.total_flow_ml_min for s in specs]
        assert flows == sorted(flows)
        assert flows[0] == pytest.approx(48.0)
        assert flows[-1] == pytest.approx(1352.0)

    def test_invalid_point_count(self):
        with pytest.raises(ConfigurationError):
            get_preset("flow").expand(0)

    @pytest.mark.parametrize("name", ["flow", "geometry"])
    @pytest.mark.parametrize(
        "points", [float("nan"), float("inf"), 2.5, 3.0, "3", True]
    )
    def test_malformed_point_count_named(self, name, points):
        """Anything but an integer is rejected at the boundary, by name,
        not by whatever the grid builder trips over first."""
        with pytest.raises(ConfigurationError, match="points"):
            get_preset(name).grid(points)

    def test_numpy_integer_point_count_accepted(self):
        import numpy as np

        assert get_preset("flow").expand(np.int64(3)) == (
            get_preset("flow").expand(3)
        )


class TestSweepCli:
    def test_parser_accepts_sweep(self):
        args = build_parser().parse_args(["sweep", "flow", "--points", "5"])
        assert args.command == "sweep"
        assert args.preset == "flow"
        assert args.points == 5

    def test_unknown_preset_fails_at_run_time(self, capsys):
        # Not a parse error (choices= would drag repro.sweep into every
        # CLI startup); main catches the ConfigurationError instead.
        assert main(["sweep", "nope"]) == 2
        assert "unknown sweep preset" in capsys.readouterr().err

    def test_sweep_runs_and_prints_table(self, capsys):
        assert main(["sweep", "vrm", "--points", "3"]) == 0
        output = capsys.readouterr().out
        assert "sweep 'vrm'" in output
        assert "delivered_w" in output
        assert "cache hit" in output

    def test_sweep_exports_csv_and_json(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        assert main([
            "sweep", "vrm", "--points", "3",
            "--csv", str(csv_path), "--json", str(json_path),
        ]) == 0
        records_csv = load_csv(csv_path)
        records_json = load_json(json_path)
        assert records_csv == records_json
        assert len(records_csv) >= 3
        assert {r["vrm"] for r in records_csv} == {"ideal", "sc", "buck"}

    def test_sweep_cache_dir_persists(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        argv = ["sweep", "vrm", "--points", "3", "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 cache hit(s), 9 miss(es)" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "9 cache hit(s), 0 miss(es)" in second
