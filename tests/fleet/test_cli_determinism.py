"""``repro fleet`` export determinism: byte-identical CSV/JSON.

The fleet CLI promises the same pure-function behaviour the sweep stack
pins in ``tests/integration/test_determinism.py``: the same rack rolled
twice must write the *same bytes*. The seeded diurnal-bursty trace plus
the greedy allocation is the most rot-prone path: any hidden global-RNG
use or dict-ordering dependence shows up here first.
"""

import pytest

from repro.cli import main


def read_bytes(path) -> bytes:
    return path.read_bytes()


#: A reduced rack (the chip table is the same 187 scenarios regardless
#: of fleet size, so shrinking the rack only trims the rollup).
FLEET_ARGS = ["fleet", "--chips", "6", "--supply", "40", "--seed", "7"]


class TestFleetExportDeterminism:
    @pytest.fixture(scope="class")
    def exports(self, tmp_path_factory):
        """CSV/JSON exports from two identical CLI invocations."""
        root = tmp_path_factory.mktemp("fleet-determinism")
        artifacts = {}
        for label in ("first", "second"):
            csv_path = root / f"{label}.csv"
            json_path = root / f"{label}.json"
            assert main(
                FLEET_ARGS + ["--csv", str(csv_path), "--json", str(json_path)]
            ) == 0
            artifacts[label] = (read_bytes(csv_path), read_bytes(json_path))
        return artifacts

    def test_two_runs_byte_identical(self, exports):
        assert exports["first"] == exports["second"]

    def test_exports_are_nonempty_per_chip_records(self, exports):
        import json

        csv_bytes, json_bytes = exports["first"]
        records = json.loads(json_bytes)
        assert len(records) == 6
        assert csv_bytes.count(b"\n") >= 7  # header + one row per chip
