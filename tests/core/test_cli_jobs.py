"""The job commands run the job layer.

``repro sweep|optimize|runtime|fleet`` map their flags onto the job
schema of :mod:`repro.serve.jobs` and run its handler, so their exports
are the served bytes and their help text states the schema's defaults.
"""

import argparse
import re

import pytest

from repro.cli import build_parser, main
from repro.serve.jobs import _SCHEMAS, run_job
from repro.store import ResultStore
from repro.sweep import SweepRunner

#: kind -> (CLI arguments, the same job as request params)
JOBS = {
    "sweep": (["sweep", "flow", "--points", "3"],
              {"preset": "flow", "points": 3}),
    "optimize": (["optimize", "flow-optimum", "--rounds", "1"],
                 {"preset": "flow-optimum", "rounds": 1}),
    "runtime": (["runtime", "--trace", "step", "--controller", "fixed",
                 "--flow", "338"],
                {"trace": "step", "controller": "fixed",
                 "flow_ml_min": 338.0}),
    "fleet": (["fleet", "--chips", "3", "--supply", "48", "--seed", "5"],
              {"chips": 3, "supply_per_chip_ml_min": 48.0, "seed": 5}),
}


@pytest.mark.parametrize("kind", sorted(JOBS))
def test_cli_exports_are_the_served_bytes(kind, tmp_path, capsys):
    argv, params = JOBS[kind]
    store = tmp_path / "store"
    csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
    exports = ["--csv", str(csv_path), "--json", str(json_path)]
    if kind != "runtime":
        exports += ["--cache-dir", str(store)]
    assert main(argv + exports) == 0
    capsys.readouterr()
    served = run_job(kind, params, SweepRunner(cache=ResultStore(store)))
    assert csv_path.read_bytes() == served["csv"].encode()
    assert json_path.read_bytes() == served["json"].encode()


def _mapped_flags(kind):
    parser = build_parser()
    (commands,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return [
        action for action in commands.choices[kind]._actions
        if action.dest in _SCHEMAS[kind] and action.option_strings
    ]


@pytest.mark.parametrize("kind", sorted(JOBS))
def test_help_defaults_are_the_schema_defaults(kind):
    flags = _mapped_flags(kind)
    assert {flag.dest for flag in flags} == {
        name for name, value in _SCHEMAS[kind].items() if value is not ...
    }
    for flag in flags:
        assert flag.default is argparse.SUPPRESS, flag.dest
        shown = re.findall(r"\(default: ([^,;)]+)", flag.help)
        assert len(shown) == 1, (flag.dest, flag.help)
        default = _SCHEMAS[kind][flag.dest]
        if default is None:
            assert shown[0] == "the preset's own", flag.dest
        elif isinstance(default, (int, float)):
            assert float(shown[0]) == default, flag.dest
        else:
            assert shown[0] == default, flag.dest
