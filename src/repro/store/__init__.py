"""``repro.store`` — shared content-addressed result store.

The promotion of the sweep engine's memoization cache into a first-class
subsystem (ROADMAP item 4): evaluation results become shared, evictable,
durable data instead of a per-run JSON directory. One
:class:`ResultStore` directory can be hammered by many processes
on many hosts (an NFS mount works) because every write is an atomic
replace of a collision-proof temporary file, and a reader that races a
writer sees either the old bytes or the new bytes — never a torn file.

Layers:

- **memory** — a bounded LRU of recently touched entries, so a
  long-lived ``repro serve`` process replaying a huge shared store does
  not grow without bound;
- **disk** — one ``<key>.json`` per entry under the store directory,
  where ``<key>`` is the content address (:meth:`ScenarioSpec.cache_key`
  hashes every physical field), with an optional size/count eviction
  budget (oldest-touched entries go first);
- **stats** — per-instance hit/miss/corrupt/evicted counters, optionally
  persisted as shard files under ``<dir>/.stats/`` so the directory's
  lifetime totals survive the processes that produced them.

The sweep, opt, fleet and serve layers all memoize through this
class. See ``docs/service.md`` for the on-disk
layout and the concurrency contract.
"""

from repro.store.core import (
    DEFAULT_MAX_MEMORY_ENTRIES,
    DEFAULT_STALE_TMP_AGE_S,
    ResultStore,
    StoreStats,
)

__all__ = [
    "DEFAULT_MAX_MEMORY_ENTRIES",
    "DEFAULT_STALE_TMP_AGE_S",
    "ResultStore",
    "StoreStats",
]
