"""Fail when an export moved while its evaluator's model version did not.

Store keys carry each evaluator's model version, so a change that moves
an evaluator's numbers must bump it: otherwise a store filled by the old
code replays stale results as the new model's. This script compares two
directories of ``repro sweep --csv``, ``repro optimize --csv`` and
``repro fleet --csv`` exports, one made at a base commit and one at this
script's own tree (the head), file by file (same names, ``sweep_*.csv``,
``opt_*.csv`` and ``fleet_*.csv``). In a sweep or optimize export a row
is one scenario, keyed by its spec columns. Every scenario present in
both exports whose metric cells differ is a finding unless the model
versions its store key carries (the evaluator's own and those of the
evaluators it rolls up) differ between the two source trees. A fleet
export's rows are chips, not scenarios, so it is compared whole: any
change to its bytes is a finding unless the ``fleet`` evaluator's key
versions differ. Exit 1 on any finding, 0 otherwise.

Usage::

    python tools/model_version_tripwire.py --base-src BASE/src \\
        BASE_EXPORTS HEAD_EXPORTS
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

#: The head source tree: the one this script belongs to.
HEAD_SRC = Path(__file__).resolve().parents[1] / "src"

#: Export file patterns the tripwire compares row by row.
EXPORTS = ("sweep_*.csv", "opt_*.csv")

#: ``repro fleet`` export files, compared whole under the ``fleet``
#: evaluator's key versions.
FLEET_EXPORTS = "fleet_*.csv"

# A tree without roll-up keys keys every evaluator on its own version.
_VERSIONS = (
    "import json; from repro.sweep import ScenarioSpec; "
    "from repro.sweep import evaluators; "
    "versions = getattr(evaluators, 'key_versions', "
    "lambda name: (evaluators.model_version(name),)); "
    "print(json.dumps({'fields': ScenarioSpec.field_names(), 'versions': "
    "{name: list(versions(name)) "
    "for name in evaluators.evaluator_names()}}))"
)


def tree_info(src: str) -> "tuple[set[str], dict[str, object]]":
    """Spec field names and each evaluator's store-key model versions of
    a source tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    out = subprocess.run(
        [sys.executable, "-c", _VERSIONS], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    info = json.loads(out)
    return set(info["fields"]), info["versions"]


def read_rows(path: Path, spec_fields: "set[str]") -> "dict[tuple, dict]":
    """A CSV export's rows keyed by their spec columns."""
    with path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    return {
        tuple((name, row[name]) for name in sorted(spec_fields & row.keys())):
        row
        for row in rows
    }


def findings(base_dir: Path, head_dir: Path, base_src: str) -> "list[str]":
    """One line per export and evaluator whose metrics moved without a
    model-version bump."""
    base_fields, base_versions = tree_info(base_src)
    head_fields, head_versions = tree_info(str(HEAD_SRC))
    spec_fields = base_fields & head_fields
    found = []
    base_paths = sorted(
        path for pattern in EXPORTS for path in base_dir.glob(pattern)
    )
    for base_path in base_paths + sorted(base_dir.glob(FLEET_EXPORTS)):
        head_path = head_dir / base_path.name
        if not head_path.exists():
            print(f"{base_path.name}: no head export, skipped")
            continue
        if base_path.match(FLEET_EXPORTS):
            versions = head_versions.get("fleet")
            moved = base_path.read_bytes() != head_path.read_bytes()
            print(f"{base_path.name}: fleet export "
                  f"{'moved' if moved else 'unchanged'}")
            if moved and base_versions.get("fleet") == versions:
                found.append(f"{base_path.name}: 'fleet' export moved at "
                             f"model versions {versions}")
            continue
        base_rows = read_rows(base_path, spec_fields)
        head_rows = read_rows(head_path, spec_fields)
        shared = base_rows.keys() & head_rows.keys()
        moved: "dict[str, set[str]]" = {}  # evaluator -> moved metrics
        for key in shared:
            old, new = base_rows[key], head_rows[key]
            evaluator = new["evaluator"]
            if base_versions.get(evaluator, 1) != head_versions.get(
                evaluator, 1
            ):
                continue
            changed = {
                name for name in (old.keys() | new.keys()) - spec_fields
                if old.get(name) != new.get(name)
            }
            if changed:
                moved.setdefault(evaluator, set()).update(changed)
        print(f"{base_path.name}: {len(shared)} shared scenario(s), "
              f"{len(moved)} evaluator(s) moved without a version bump")
        found.extend(
            f"{base_path.name}: {evaluator!r} moved {sorted(metrics)} at "
            f"model version {head_versions.get(evaluator, 1)}"
            for evaluator, metrics in sorted(moved.items())
        )
    return found


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_exports", type=Path)
    parser.add_argument("head_exports", type=Path)
    parser.add_argument("--base-src", required=True)
    args = parser.parse_args(argv)
    found = findings(args.base_exports, args.head_exports, args.base_src)
    for line in found:
        print(f"model-version tripwire: {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
