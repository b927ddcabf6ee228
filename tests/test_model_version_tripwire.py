"""Tests for tools/model_version_tripwire.py (loaded by file path, as
tools are standalone scripts)."""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "model_version_tripwire", REPO_ROOT / "tools" / "model_version_tripwire.py"
)
tripwire = importlib.util.module_from_spec(spec)
sys.modules["model_version_tripwire"] = tripwire
spec.loader.exec_module(tripwire)

FIELDS = {"evaluator", "nx", "label"}
HEADER = "evaluator,nx,label,net_w\n"


def _exports(tmp_path, base_rows, head_rows):
    base, head = tmp_path / "base", tmp_path / "head"
    for directory, rows in ((base, base_rows), (head, head_rows)):
        directory.mkdir()
        (directory / "sweep_runtime_vectorized.csv").write_text(
            HEADER + "".join(rows)
        )
    return base, head


@pytest.fixture
def versions(monkeypatch):
    """Base and head trees whose runtime versions the test sets."""
    trees = {"base": {"runtime": 2}, str(tripwire.HEAD_SRC): {"runtime": 2}}
    monkeypatch.setattr(
        tripwire, "tree_info", lambda src: (FIELDS, trees[src])
    )
    return trees


def test_unchanged_exports_pass(tmp_path, versions):
    rows = ["runtime,22,,1.5\n", "runtime,44,,1.25\n"]
    base, head = _exports(tmp_path, rows, rows)
    assert tripwire.findings(base, head, "base") == []


def test_moved_metric_without_a_bump_is_a_finding(tmp_path, versions):
    base, head = _exports(
        tmp_path, ["runtime,22,,1.5\n", "runtime,44,,1.25\n"],
        ["runtime,22,,1.5\n", "runtime,44,,1.2500001\n"],
    )
    (found,) = tripwire.findings(base, head, "base")
    assert "'runtime' moved ['net_w'] at model version 2" in found
    versions[str(tripwire.HEAD_SRC)]["runtime"] = 3
    assert tripwire.findings(base, head, "base") == []


def test_scenarios_only_one_side_has_are_ignored(tmp_path, versions):
    base, head = _exports(
        tmp_path, ["runtime,22,,1.5\n"], ["runtime,33,,9.0\n"],
    )
    assert tripwire.findings(base, head, "base") == []


def test_optimize_exports_are_checked_too(tmp_path, versions):
    base, head = _exports(tmp_path, ["runtime,22,,1.5\n"], ["runtime,22,,1.5\n"])
    (base / "opt_runtime-pid_vectorized.csv").write_text(
        HEADER + "runtime,44,,1.25\n"
    )
    (head / "opt_runtime-pid_vectorized.csv").write_text(
        HEADER + "runtime,44,,1.5\n"
    )
    (found,) = tripwire.findings(base, head, "base")
    assert found.startswith("opt_runtime-pid_vectorized.csv: 'runtime'")


def test_tree_info_reads_the_source_tree():
    fields, versions = tripwire.tree_info(str(tripwire.HEAD_SRC))
    assert {"evaluator", "nx", "label"} <= fields
    assert versions["runtime"] == [3]
    # A fleet's key follows the fleet_chip tables it rolls up.
    assert versions["fleet"] == [1, versions["fleet_chip"][0]]


def _fleet_exports(tmp_path, base_text, head_text):
    base, head = tmp_path / "base", tmp_path / "head"
    for directory, text in ((base, base_text), (head, head_text)):
        directory.mkdir()
        (directory / "fleet_greedy_6.csv").write_text(text)
    return base, head


@pytest.fixture
def fleet_versions(monkeypatch):
    """Base and head trees whose fleet key versions the test sets."""
    trees = {"base": {"fleet": [1, 2]},
             str(tripwire.HEAD_SRC): {"fleet": [1, 2]}}
    monkeypatch.setattr(
        tripwire, "tree_info", lambda src: (FIELDS, trees[src])
    )
    return trees


def test_moved_fleet_export_without_a_bump_is_a_finding(
    tmp_path, fleet_versions
):
    """A fleet export has chip rows, not scenarios: any moved byte under
    unchanged fleet key versions is a finding."""
    rows = "chip,net_energy_j\n0,1.5\n1,1.25\n"
    base, head = _fleet_exports(tmp_path, rows, rows)
    assert tripwire.findings(base, head, "base") == []
    (head / "fleet_greedy_6.csv").write_text(
        "chip,net_energy_j\n0,1.5\n1,1.2500001\n"
    )
    (found,) = tripwire.findings(base, head, "base")
    assert found == (
        "fleet_greedy_6.csv: 'fleet' export moved at model versions [1, 2]"
    )


def test_moved_fleet_export_with_a_bump_is_not_a_finding(
    tmp_path, fleet_versions
):
    base, head = _fleet_exports(
        tmp_path, "chip,net_energy_j\n0,1.5\n", "chip,net_energy_j\n0,1.75\n"
    )
    # A bump of the fleet_chip version its tables carry counts too.
    fleet_versions[str(tripwire.HEAD_SRC)]["fleet"] = [1, 3]
    assert tripwire.findings(base, head, "base") == []
