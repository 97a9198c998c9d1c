"""Unit tests for page sizing and the buffer pool."""

import pytest

from repro.errors import StorageError
from repro.storage import BufferPool, PageConfig


class TestPageConfig:
    def test_fanout_by_dimension(self):
        config = PageConfig(page_size=4096)
        assert config.index_fanout(2) == 4096 // 40
        assert config.index_fanout(1) == 4096 // 24
        assert config.index_fanout(1) > config.index_fanout(2)

    def test_small_page_rejected(self):
        with pytest.raises(ValueError):
            PageConfig(page_size=64)

    def test_fanout_too_small_rejected(self):
        with pytest.raises(ValueError):
            PageConfig(page_size=128).index_fanout(10)


class TestBufferPool:
    def test_hit_and_miss(self):
        pool = BufferPool(capacity=2)
        assert not pool.access("a")  # miss
        assert pool.access("a")  # hit
        assert not pool.access("b")
        assert pool.stats.requests == 3
        assert pool.stats.hits == 1
        assert pool.stats.misses == 2

    def test_lru_eviction(self):
        pool = BufferPool(capacity=2)
        pool.access("a")
        pool.access("b")
        pool.access("a")  # a most recent
        pool.access("c")  # evicts b
        assert "b" not in pool
        assert "a" in pool and "c" in pool
        assert pool.stats.evictions == 1

    def test_capacity_validation(self):
        with pytest.raises(StorageError):
            BufferPool(0)

    def test_hit_rate(self):
        pool = BufferPool(4)
        assert pool.stats.hit_rate == 0.0
        pool.access("a")
        pool.access("a")
        assert pool.stats.hit_rate == 0.5

    def test_clear(self):
        pool = BufferPool(4)
        pool.access("a")
        pool.clear()
        assert len(pool) == 0
