"""Store keys carry each evaluator's model version.

``data/parent_store`` is a directory :class:`~repro.store.ResultStore`
filled before model versions existed: one spec per evaluator at the
reduced 22x11 raster, evaluated on the serial backend, each keyed by
``sha256(spec identity)`` alone. Version-1 evaluators must replay it
unchanged; the evaluators bumped when serial evaluation became a batch
of one must read their old entries as plain misses and re-evaluate.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.store import ResultStore
from repro.sweep import ScenarioSpec, SweepRunner, evaluator_names
from repro.sweep.evaluators import model_version
from repro.sweep.vectorized import EQUIVALENCE_RTOL

PARENT_STORE = Path(__file__).parent / "data" / "parent_store"

#: Evaluators whose numbers moved when their scalar twin was deleted.
BUMPED = ("fleet_chip", "geometry", "operating_point", "workload")

#: Evaluators whose numbers did not move.
UNCHANGED = ("cosim", "fleet", "runtime", "transient", "vrm")

#: The specs the parent store holds, one per evaluator.
SPECS = [
    ScenarioSpec(evaluator=name, nx=22, ny=11) for name in BUMPED + UNCHANGED
]


def unversioned_key(spec: ScenarioSpec) -> str:
    """A spec's store key before model versions existed."""
    canonical = json.dumps(spec.identity(), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def parent_entries() -> "dict[str, dict[str, float]]":
    """The parent store's metrics by key."""
    return {
        path.stem: json.loads(path.read_text())["metrics"]
        for path in PARENT_STORE.glob("*.json")
    }


def test_every_evaluator_declares_a_version():
    versions = {name: model_version(name) for name in evaluator_names()}
    assert all(isinstance(version, int) for version in versions.values())
    assert {name: versions[name] for name in BUMPED} == dict.fromkeys(
        BUMPED, 2
    )
    assert {name: versions[name] for name in UNCHANGED} == dict.fromkeys(
        UNCHANGED, 1
    )


def test_fixture_is_keyed_without_versions():
    assert set(parent_entries()) == {unversioned_key(spec) for spec in SPECS}


def test_only_bumped_evaluators_change_key():
    for spec in SPECS:
        unchanged = spec.cache_key() == unversioned_key(spec)
        assert unchanged == (spec.evaluator in UNCHANGED), spec.evaluator
        # The version lives in the key alone, never among the fields.
        assert "model_version" not in spec.identity()


def test_parent_store_replays_unchanged_and_misses_bumped(tmp_path):
    directory = tmp_path / "store"
    shutil.copytree(PARENT_STORE, directory)
    stored = parent_entries()
    cache = ResultStore(directory=directory)
    results = SweepRunner(cache=cache).run(SPECS)

    assert (cache.hits, cache.misses, cache.corrupt) == (
        len(UNCHANGED), len(BUMPED), 0
    )
    for result in results:
        parent = stored[unversioned_key(result.spec)]
        if result.spec.evaluator in UNCHANGED:
            assert result.from_cache
            assert result.metrics == parent
        else:
            # Re-evaluated, and moved only at the rounding level.
            assert not result.from_cache
            assert set(result.metrics) == set(parent)
            for name, value in parent.items():
                assert result.metrics[name] == pytest.approx(
                    value, rel=EQUIVALENCE_RTOL, abs=EQUIVALENCE_RTOL
                )

    # The re-evaluated entries land beside the parent's; a second reader
    # replays everything.
    again = ResultStore(directory=directory)
    replay = SweepRunner(cache=again).run(SPECS)
    assert (again.hits, again.misses, again.corrupt) == (len(SPECS), 0, 0)
    assert [r.metrics for r in replay] == [r.metrics for r in results]
