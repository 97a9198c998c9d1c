"""Interning and memoization primitives for the layered solver.

Two small, dependency-free data structures used by
:mod:`repro.constraints.solver` and :class:`~repro.constraints.Conjunction`:

* :class:`InternTable` — a bounded atom intern table.  Every atom that
  passes through :class:`Conjunction` construction is replaced by the
  first-seen structurally equal instance, so structurally equal
  conjunctions hold *pointer-equal* atom tuples.  Tuple equality in
  CPython short-circuits on identity per element, which makes the memo
  cache's key comparisons O(n) pointer tests, and the atoms' cached
  hashes are computed once per distinct atom instead of once per copy.

* :class:`LRUCache` — a bounded least-recently-used mapping used as the
  satisfiability memo cache.  Keys are canonical atom tuples; values are
  booleans.  Eviction is strict LRU over an insertion-ordered dict.

Both tables are *pure accelerators*: clearing them at any point is always
safe (atom equality remains value-based; cached answers are pure facts
about the keyed formula).

Both are thread-safe: the query server runs tenant sessions on a thread
pool that shares the process-wide solver caches, so lookups, insertions,
and the hit/miss/eviction accounting are serialized under a
per-structure lock.
"""

from __future__ import annotations

from typing import Generic, Hashable, TypeVar

from .._concurrency import new_lock

#: RT103 annotation: container contents and accounting counters are only
#: touched under each structure's lock ("repro devtools lint" checks it).
__lock_registry__ = {
    "LRUCache": {
        "_data": "_lock",
        "hits": "_lock",
        "misses": "_lock",
        "evictions": "_lock",
    },
    "InternTable": {"_table": "_lock", "epoch": "_lock"},
}

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """A bounded LRU mapping with hit/miss/eviction accounting.

    ``get`` returns ``None`` on a miss (values stored here are never
    ``None``) and refreshes recency on a hit; ``put`` evicts the least
    recently used entry once ``capacity`` is exceeded.
    """

    __slots__ = ("capacity", "_data", "_lock", "hits", "misses", "evictions")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._data: dict[K, V] = {}
        self._lock = new_lock("constraints.cache")
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: K) -> V | None:
        with self._lock:
            data = self._data
            value = data.get(key)
            if value is None:
                self.misses += 1
                return None
            # Refresh recency: dicts preserve insertion order, so
            # re-inserting moves the key to the "most recent" end.
            del data[key]
            data[key] = value
            self.hits += 1
            return value

    def put(self, key: K, value: V) -> None:
        with self._lock:
            data = self._data
            if key in data:
                del data[key]
            elif len(data) >= self.capacity:
                del data[next(iter(data))]  # least recently used
                self.evictions += 1
            data[key] = value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        return key in self._data

    def info(self) -> dict[str, int]:
        """Accounting snapshot (sizes and lifetime hit/miss/evict counts)."""
        with self._lock:
            return {
                "size": len(self._data),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __repr__(self) -> str:
        return (
            f"<LRUCache {len(self._data)}/{self.capacity} "
            f"hits={self.hits} misses={self.misses}>"
        )


class InternTable(Generic[K]):
    """A bounded identity intern table: ``intern(x)`` returns the
    first-seen instance equal to ``x``.

    When the table fills up it is cleared wholesale (an *epoch* reset)
    rather than evicted entry-by-entry: interning is only an accelerator,
    and losing sharing across an epoch boundary costs nothing but a few
    duplicate instances.
    """

    __slots__ = ("capacity", "_table", "_lock", "epoch")

    def __init__(self, capacity: int = 1 << 16):
        if capacity < 1:
            raise ValueError(f"intern capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._table: dict[K, K] = {}
        self._lock = new_lock("constraints.cache")
        self.epoch = 0

    def intern(self, value: K) -> K:
        with self._lock:
            table = self._table
            existing = table.get(value)
            if existing is not None:
                return existing
            if len(table) >= self.capacity:
                table.clear()
                self.epoch += 1
            table[value] = value
            return value

    def clear(self) -> None:
        with self._lock:
            self._table.clear()
            self.epoch += 1

    def __len__(self) -> int:
        return len(self._table)

    def __repr__(self) -> str:
        return f"<InternTable {len(self._table)}/{self.capacity} epoch={self.epoch}>"
