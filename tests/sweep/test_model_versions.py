"""Store keys carry each evaluator's model version.

``data/parent_store`` is a directory :class:`~repro.store.ResultStore`
filled before model versions existed: one spec per evaluator at the
reduced 22x11 raster, evaluated on the serial backend, each keyed by
``sha256(spec identity)`` alone. Version-1 evaluators must replay it
unchanged; the steady evaluators, bumped when serial evaluation became
a batch of one and again when their columns moved onto a family's
canonical Krylov space, and the transient and runtime evaluators,
bumped when their state columns became one triangular solve each (the
runtime again when its surfaces moved to the shared curve sampling),
must read their old entries as plain misses and re-evaluate. So must
``fleet``, still at version 1: its key carries the version of the
``fleet_chip`` tables it rolls up.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.store import ResultStore
from repro.sweep import ScenarioSpec, SweepRunner, evaluator_names
from repro.sweep import evaluators
from repro.sweep.evaluators import model_version
from repro.sweep.vectorized import EQUIVALENCE_RTOL

PARENT_STORE = Path(__file__).parent / "data" / "parent_store"

#: Bumped evaluators and their versions: the steady ones moved when their
#: scalar twin was deleted and again with the canonical Krylov space
#: (version 3); a transient or runtime column's bits stopped depending on
#: its batch width (version 2), and the runtime's polarization surfaces
#: moved from 40 to the shared 50 curve points (version 3).
VERSIONS = {
    "fleet_chip": 3, "geometry": 3, "operating_point": 3, "workload": 3,
    "runtime": 3, "transient": 2,
}

#: How far each bumped evaluator's metrics may move from the parent
#: store's, by ``(evaluator, metric)``; everything else moved only at the
#: rounding level. The runtime's finer curve sampling is a deliberate
#: model change: its generated current, and with it the electrical
#: metrics, rose by ~2e-4 relative, while its thermal trajectory and
#: control decisions never read the current.
MOVED_RTOL = {
    ("runtime", name): 1e-3
    for name in (
        "harvested_energy_j", "net_energy_j", "mean_net_w",
        "final_state_of_charge",
    )
}
BUMPED = tuple(VERSIONS)

#: Version-1 evaluators whose keys follow an evaluator they roll up.
ROLLED_UP = ("fleet",)

#: Evaluators whose numbers and keys did not move.
UNCHANGED = ("cosim", "vrm")

#: Evaluators whose parent-store entries read as misses.
MISSED = BUMPED + ROLLED_UP

#: The specs the parent store holds, one per evaluator.
SPECS = [
    ScenarioSpec(evaluator=name, nx=22, ny=11) for name in MISSED + UNCHANGED
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
    assert {name: versions[name] for name in BUMPED} == VERSIONS
    assert {
        name: versions[name] for name in UNCHANGED + ROLLED_UP
    } == dict.fromkeys(UNCHANGED + ROLLED_UP, 1)


def test_fixture_is_keyed_without_versions():
    assert set(parent_entries()) == {unversioned_key(spec) for spec in SPECS}


def test_only_bumped_evaluators_change_key():
    for spec in SPECS:
        unchanged = spec.cache_key() == unversioned_key(spec)
        assert unchanged == (spec.evaluator in UNCHANGED), spec.evaluator
        # The version lives in the key alone, never among the fields.
        assert "model_version" not in spec.identity()


def test_fleet_key_follows_the_fleet_chip_version(monkeypatch):
    before = ScenarioSpec(evaluator="fleet", nx=22, ny=11).cache_key()
    monkeypatch.setitem(
        evaluators._MODEL_VERSIONS, "fleet_chip",
        model_version("fleet_chip") + 1,
    )
    after = ScenarioSpec(evaluator="fleet", nx=22, ny=11).cache_key()
    assert after != before
    assert model_version("fleet") == 1


def test_parent_store_replays_unchanged_and_misses_bumped(tmp_path):
    directory = tmp_path / "store"
    shutil.copytree(PARENT_STORE, directory)
    stored = parent_entries()
    cache = ResultStore(directory=directory)
    results = SweepRunner(cache=cache).run(SPECS)

    assert (cache.hits, cache.misses, cache.corrupt) == (
        len(UNCHANGED), len(MISSED), 0
    )
    for result in results:
        parent = stored[unversioned_key(result.spec)]
        if result.spec.evaluator in UNCHANGED:
            assert result.from_cache
            assert result.metrics == parent
        else:
            # Re-evaluated, and moved only at the rounding level, or
            # within the bound of a deliberate model change.
            assert not result.from_cache
            assert set(result.metrics) == set(parent)
            for name, value in parent.items():
                rtol = MOVED_RTOL.get(
                    (result.spec.evaluator, name), EQUIVALENCE_RTOL
                )
                assert result.metrics[name] == pytest.approx(
                    value, rel=rtol, abs=EQUIVALENCE_RTOL
                ), (result.spec.evaluator, name)

    # The re-evaluated entries land beside the parent's; a second reader
    # replays everything.
    again = ResultStore(directory=directory)
    replay = SweepRunner(cache=again).run(SPECS)
    assert (again.hits, again.misses, again.corrupt) == (len(SPECS), 0, 0)
    assert [r.metrics for r in replay] == [r.metrics for r in results]
