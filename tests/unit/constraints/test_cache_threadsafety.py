"""Regression tests: the solver cache structures are thread-safe.

The query server runs tenant sessions on a thread pool in one
interpreter, so the process-global intern table and solver memo caches
see concurrent access.  Before the locks were added, concurrent
``get``/``put`` could corrupt the LRU ordering (RuntimeError from
OrderedDict mutation during move_to_end) and drop or double-count
hit/miss statistics.
"""

import threading

from repro.constraints.cache import InternTable, LRUCache

THREADS = 8
OPS_PER_THREAD = 2000


def _hammer(barrier, fn):
    barrier.wait()
    fn()


def _run_threads(fn) -> None:
    barrier = threading.Barrier(THREADS)
    threads = [
        threading.Thread(target=_hammer, args=(barrier, fn)) for _ in range(THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestLRUCacheThreadSafety:
    def test_concurrent_get_put_keeps_stats_consistent(self):
        cache: LRUCache[int, int] = LRUCache(capacity=64)
        gets_per_thread = OPS_PER_THREAD

        def work():
            for i in range(gets_per_thread):
                key = i % 200  # more keys than capacity: forces evictions
                if cache.get(key) is None:
                    cache.put(key, key * 2)

        _run_threads(work)
        info = cache.info()
        # Every get is either a hit or a miss — none lost to a race.
        assert info["hits"] + info["misses"] == THREADS * gets_per_thread
        assert len(cache) <= 64
        # Whatever survived still maps correctly.
        for key in range(200):
            value = cache.get(key)
            assert value is None or value == key * 2

    def test_concurrent_eviction_never_corrupts(self):
        cache: LRUCache[int, int] = LRUCache(capacity=4)

        def work():
            for i in range(OPS_PER_THREAD):
                cache.put(i % 16, i)
                cache.get((i + 1) % 16)

        _run_threads(work)
        assert len(cache) <= 4


class TestInternTableThreadSafety:
    def test_concurrent_intern_returns_one_canonical_object(self):
        table: InternTable[tuple] = InternTable(capacity=1024)
        seen: list[dict[int, object]] = [dict() for _ in range(THREADS)]

        def make_work(slot):
            def work():
                for i in range(OPS_PER_THREAD):
                    value = ("k", i % 50)
                    seen[slot][i % 50] = table.intern(value)

            return work

        barrier = threading.Barrier(THREADS)
        threads = [
            threading.Thread(target=_hammer, args=(barrier, make_work(slot)))
            for slot in range(THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # All threads must have converged on identical canonical objects by
        # the end (the table never hands out two objects for one value
        # after both are interned).
        for key in range(50):
            canonical = table.intern(("k", key))
            for slot in range(THREADS):
                assert seen[slot][key] == canonical
        assert len(table) >= 50
