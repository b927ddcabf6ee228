"""Unit tests for the content-addressed result store (``repro.store``)."""

import os
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.store import (
    DEFAULT_MAX_MEMORY_ENTRIES,
    ResultStore,
    StoreStats,
)


class TestBasics:
    def test_memory_only_roundtrip(self):
        store = ResultStore()
        assert store.get("k") is None
        store.put("k", {"net_w": 1.5})
        assert store.get("k") == {"net_w": 1.5}
        assert store.stats() == {
            "hits": 1, "misses": 1, "corrupt": 0, "evicted": 0,
        }

    def test_get_returns_a_copy(self):
        store = ResultStore()
        store.put("k", {"net_w": 1.5})
        store.get("k")["net_w"] = -99.0
        assert store.get("k") == {"net_w": 1.5}

    def test_directory_roundtrip_across_instances(self, tmp_path):
        ResultStore(tmp_path).put("k", {"net_w": 1.5})
        fresh = ResultStore(tmp_path)
        assert fresh.get("k") == {"net_w": 1.5}
        assert fresh.stats()["hits"] == 1

    def test_disk_roundtrip_preserves_metric_order(self, tmp_path):
        # Regression: sorted-key serialization must not reorder metrics,
        # or a warm replay's CSV columns differ from the cold run's.
        metrics = {"zeta": 1.0, "alpha": 2.0, "mid": 3.0}
        ResultStore(tmp_path).put("k", metrics)
        warm = ResultStore(tmp_path).get("k")
        assert list(warm) == ["zeta", "alpha", "mid"]

    def test_legacy_bare_entries_still_readable(self, tmp_path):
        (tmp_path / "old.json").write_text('{"m": 1.0}\n')
        store = ResultStore(tmp_path)
        assert store.get("old") == {"m": 1.0}
        assert store.corrupt == 0

    def test_default_memory_bound(self):
        assert ResultStore().max_memory_entries == DEFAULT_MAX_MEMORY_ENTRIES

    @pytest.mark.parametrize("kwargs", [
        {"max_memory_entries": 0},
        {"max_disk_entries": 0},
        {"max_disk_bytes": -5},
    ])
    def test_bad_budgets_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ResultStore(**kwargs)

    def test_snapshot_stats(self):
        store = ResultStore()
        store.get("missing")
        snapshot = store.snapshot_stats()
        assert isinstance(snapshot, StoreStats)
        assert snapshot.misses == 1
        assert snapshot.as_dict() == store.stats()


class TestTmpNames:
    def test_put_tmp_names_carry_pid_and_uuid(self, tmp_path, monkeypatch):
        # Regression: a pid-only suffix collides when two hosts sharing
        # the directory over NFS hand the same pid to different writers.
        import repro.store.core as core

        seen = []
        real_replace = os.replace

        def recording_replace(src, dst):
            seen.append(Path(src).name)
            return real_replace(src, dst)

        monkeypatch.setattr(core.os, "replace", recording_replace)
        store = ResultStore(tmp_path)
        store.put("k", {"m": 1.0})
        store.put("k", {"m": 2.0})
        assert len(seen) == 2
        assert seen[0] != seen[1]  # same pid, same key — still unique
        for name in seen:
            assert name.startswith(".k.json.tmp-")
            pid, _, token = name[len(".k.json.tmp-"):].partition("-")
            assert pid == str(os.getpid())
            assert len(token) == 32
            assert set(token) <= set("0123456789abcdef")

    def test_no_tmp_residue_after_put(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("k", {"m": 1.0})
        assert [p.name for p in tmp_path.iterdir()] == ["k.json"]


class TestStaleTmpReaping:
    def test_open_reaps_stale_tmp_but_not_fresh(self, tmp_path):
        stats_dir = tmp_path / ".stats"
        stats_dir.mkdir(parents=True)
        stale = tmp_path / ".k.json.tmp-1-aa"
        stale.write_text("{}")
        stale_shard = stats_dir / ".s.json.tmp-1-bb"
        stale_shard.write_text("{}")
        fresh = tmp_path / ".k2.json.tmp-1-cc"
        fresh.write_text("{}")
        entry = tmp_path / "k.json"
        entry.write_text('{"m": 1.0}\n')
        past = os.stat(tmp_path).st_mtime - 7200.0
        os.utime(stale, (past, past))
        os.utime(stale_shard, (past, past))
        os.utime(entry, (past, past))

        store = ResultStore(tmp_path)
        assert store.reaped_tmp == 2
        assert not stale.exists()
        assert not stale_shard.exists()
        assert fresh.exists()  # plausibly in flight — left alone
        assert entry.exists()  # entries are never reaped, however old

    def test_reap_age_is_configurable(self, tmp_path):
        tmp = tmp_path / ".k.json.tmp-1-aa"
        tmp_path.mkdir(exist_ok=True)
        tmp.write_text("{}")
        past = os.stat(tmp_path).st_mtime - 10.0
        os.utime(tmp, (past, past))
        assert ResultStore(tmp_path).reaped_tmp == 0  # default 1 h
        assert ResultStore(tmp_path, stale_tmp_age_s=5.0).reaped_tmp == 1
        assert not tmp.exists()


class TestMemoryLRU:
    def test_memory_layer_is_lru_bounded(self):
        store = ResultStore(max_memory_entries=2)
        store.put("a", {"m": 1.0})
        store.put("b", {"m": 2.0})
        assert store.get("a") == {"m": 1.0}  # touch: b is now coldest
        store.put("c", {"m": 3.0})
        assert len(store) == 2
        assert store.get("b") is None  # memory-only: dropped means miss
        assert store.get("a") == {"m": 1.0}
        assert store.get("c") == {"m": 3.0}

    def test_memory_drop_with_disk_is_still_a_hit(self, tmp_path):
        store = ResultStore(tmp_path, max_memory_entries=1)
        store.put("a", {"m": 1.0})
        store.put("b", {"m": 2.0})
        assert len(store) == 1  # "a" dropped from memory
        before = store.stats()
        assert store.get("a") == {"m": 1.0}  # answered from disk
        after = store.stats()
        assert after["hits"] == before["hits"] + 1
        # A memory drop is not an eviction — stats semantics unchanged.
        assert after["evicted"] == before["evicted"] == 0

    def test_unbounded_memory_allowed(self):
        store = ResultStore(max_memory_entries=None)
        for index in range(DEFAULT_MAX_MEMORY_ENTRIES + 10):
            store.put(f"k{index}", {"m": float(index)})
        assert len(store) == DEFAULT_MAX_MEMORY_ENTRIES + 10


class TestDiskEviction:
    def test_count_budget_evicts_oldest(self, tmp_path):
        store = ResultStore(
            tmp_path, max_disk_entries=2, max_memory_entries=1
        )
        store.put("a", {"m": 0.0})
        past = os.stat(tmp_path).st_mtime - 100.0
        os.utime(tmp_path / "a.json", (past, past))
        store.put("b", {"m": 1.0})
        store.put("c", {"m": 2.0})
        assert store.disk_entries() == 2
        assert store.evicted == 1
        assert not (tmp_path / "a.json").exists()
        assert store.stats()["evicted"] == 1

    def test_disk_hits_refresh_lru_order(self, tmp_path):
        store = ResultStore(
            tmp_path, max_disk_entries=2, max_memory_entries=1
        )
        store.put("a", {"m": 0.0})
        store.put("b", {"m": 1.0})
        past = os.stat(tmp_path).st_mtime - 100.0
        os.utime(tmp_path / "a.json", (past, past))
        os.utime(tmp_path / "b.json", (past, past))
        store._memory.clear()
        assert store.get("a") is not None  # refreshes a's mtime
        store.put("c", {"m": 2.0})  # budget forces one eviction: b
        assert sorted(p.stem for p in tmp_path.glob("*.json")) == ["a", "c"]

    def test_byte_budget_holds(self, tmp_path):
        store = ResultStore(tmp_path, max_memory_entries=1)
        store.put("a", {"metric": 1.0})
        entry_bytes = store.disk_bytes()
        store.max_disk_bytes = 2 * entry_bytes + entry_bytes // 2
        store.put("b", {"metric": 2.0})
        store.put("c", {"metric": 3.0})
        assert store.disk_entries() == 2
        assert store.disk_bytes() <= store.max_disk_bytes

    def test_evicted_key_reads_as_plain_miss(self, tmp_path):
        store = ResultStore(
            tmp_path, max_disk_entries=1, max_memory_entries=1
        )
        store.put("a", {"m": 0.0})
        past = os.stat(tmp_path).st_mtime - 100.0
        os.utime(tmp_path / "a.json", (past, past))
        store.put("b", {"m": 1.0})
        assert store.get("a") is None
        assert store.corrupt == 0  # eviction race reads as a miss


class TestCorruption:
    def test_bad_json_is_corrupt_and_recoverable(self, tmp_path):
        store = ResultStore(tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        assert store.get("bad") is None
        assert store.stats() == {
            "hits": 0, "misses": 1, "corrupt": 1, "evicted": 0,
        }
        store.put("bad", {"m": 1.0})  # re-put repairs the entry
        assert store.get("bad") == {"m": 1.0}

    def test_non_dict_entry_is_corrupt(self, tmp_path):
        store = ResultStore(tmp_path)
        (tmp_path / "list.json").write_text("[1, 2]\n")
        assert store.get("list") is None
        assert store.corrupt == 1


class TestPersistedStats:
    def test_shards_sum_across_instances(self, tmp_path):
        first = ResultStore(tmp_path)
        second = ResultStore(tmp_path)
        first.put("a", {"m": 1.0})
        assert first.get("a") is not None
        assert first.get("zz") is None
        assert second.get("a") is not None
        first.flush_stats()
        first.flush_stats()  # idempotent: overwrites its own shard
        second.flush_stats()
        merged = first.persisted_stats()
        assert merged == {
            "hits": 2, "misses": 1, "corrupt": 0, "evicted": 0,
        }
        # A later instance on the same directory sees the same totals.
        assert ResultStore(tmp_path).persisted_stats() == merged

    def test_memory_only_store_has_no_shards(self):
        store = ResultStore()
        assert store.flush_stats() is None
        assert store.persisted_stats() == {
            "hits": 0, "misses": 0, "corrupt": 0, "evicted": 0,
        }

    def test_unreadable_shard_skipped(self, tmp_path):
        store = ResultStore(tmp_path)
        store.get("zz")
        store.flush_stats()
        stats_dir = tmp_path / ".stats"
        (stats_dir / "zz-broken.json").write_text("{torn")
        assert store.persisted_stats()["misses"] == 1
