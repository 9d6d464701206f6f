"""Buffer pool: LRU byte budget, pinning, invalidation, manager composition."""

import dataclasses

import numpy as np
import pytest

from repro.errors import (
    PartitionNotFoundError,
    PartitionUnreadableError,
    StorageError,
)
from repro.storage import (
    BALOS_HDD,
    BufferPool,
    PartitionManager,
    SegmentSpec,
    StorageDevice,
    TID_CATALOG,
)


def _dummy_partition(pid: int) -> object:
    """The pool never inspects the cached object; any sentinel works."""
    return ("partition", pid)


class TestPoolLRU:
    def test_hit_and_miss_counters(self):
        pool = BufferPool(capacity_bytes=1000)
        assert pool.get(0) is None
        pool.put(0, _dummy_partition(0), 100)
        assert pool.get(0) == ("partition", 0)
        assert pool.stats.n_misses == 1
        assert pool.stats.n_hits == 1
        assert pool.stats.hit_bytes == 100

    def test_byte_budget_evicts_lru_first(self):
        pool = BufferPool(capacity_bytes=300)
        for pid in range(3):
            pool.put(pid, _dummy_partition(pid), 100)
        pool.get(0)  # 0 becomes MRU; LRU order is now 1, 2, 0
        pool.put(3, _dummy_partition(3), 100)
        assert 1 not in pool
        assert pool.pids() == (2, 0, 3)
        assert pool.stats.n_evictions == 1
        assert pool.stats.evicted_bytes == 100
        assert pool.current_bytes == 300

    def test_eviction_order_is_strictly_lru(self):
        pool = BufferPool(capacity_bytes=200)
        pool.put(0, _dummy_partition(0), 100)
        pool.put(1, _dummy_partition(1), 100)
        pool.put(2, _dummy_partition(2), 150)  # must evict 0 then 1
        assert pool.pids() == (2,)
        assert pool.stats.n_evictions == 2

    def test_oversized_entry_not_admitted(self):
        pool = BufferPool(capacity_bytes=100)
        pool.put(0, _dummy_partition(0), 50)
        pool.put(1, _dummy_partition(1), 500)
        assert 1 not in pool
        assert 0 in pool  # the resident entry survives the refusal
        assert pool.current_bytes == 50

    def test_put_refreshes_existing_entry(self):
        pool = BufferPool(capacity_bytes=300)
        pool.put(0, _dummy_partition(0), 100)
        pool.put(0, "replacement", 200)
        assert pool.get(0) == "replacement"
        assert pool.current_bytes == 200

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(0)


class TestPinning:
    def test_pinned_entry_survives_eviction_pressure(self):
        pool = BufferPool(capacity_bytes=200)
        pool.put(0, _dummy_partition(0), 100, pin=True)
        pool.put(1, _dummy_partition(1), 100)
        pool.put(2, _dummy_partition(2), 100)  # over budget; 0 pinned → evict 1
        assert 0 in pool
        assert 1 not in pool
        pool.unpin(0)
        pool.put(3, _dummy_partition(3), 100)  # now 0 is evictable LRU
        assert 0 not in pool
        assert pool.current_bytes <= 200

    def test_pinned_context_manager(self):
        pool = BufferPool(capacity_bytes=200)
        pool.put(0, _dummy_partition(0), 100)
        with pool.pinned(0) as partition:
            assert partition == ("partition", 0)
            pool.put(1, _dummy_partition(1), 100)
            pool.put(2, _dummy_partition(2), 100)
            assert 0 in pool
        with pool.pinned(99) as partition:
            assert partition is None

    def test_invalidate_removes_even_pinned(self):
        pool = BufferPool(capacity_bytes=200)
        pool.put(0, _dummy_partition(0), 100, pin=True)
        pool.invalidate(0)
        assert 0 not in pool
        assert pool.stats.n_invalidations == 1


@pytest.fixture()
def pooled_manager(small_table):
    device = StorageDevice(BALOS_HDD)
    pool = BufferPool(capacity_bytes=1 << 24)
    manager = PartitionManager(small_table.schema, device, buffer_pool=pool)
    n = small_table.n_tuples
    manager.materialize_specs(
        [
            [SegmentSpec(("a1", "a2"), np.arange(n // 2, dtype=np.int64))],
            [SegmentSpec(("a1", "a3"), np.arange(n // 2, n, dtype=np.int64))],
        ],
        small_table,
        tid_storage=TID_CATALOG,
    )
    return manager


class TestManagerComposition:
    def test_pool_miss_charges_device_hit_charges_nothing(self, pooled_manager):
        manager = pooled_manager
        _partition, cold = manager.load(0)
        assert cold.io_time_s > 0 and cold.bytes_read == manager.info(0).n_bytes
        assert cold.n_pool_hits == 0
        warm_partition, warm = manager.load(0)
        assert warm.io_time_s == 0.0
        assert warm.bytes_read == 0
        assert warm.n_pool_hits == 1
        assert warm.pool_hit_bytes == manager.info(0).n_bytes
        # The device never saw the second read at all.
        assert manager.device.stats.n_reads == 1
        assert np.array_equal(
            warm_partition.segments[0].tuple_ids,
            _partition.segments[0].tuple_ids,
        )

    def test_pool_hit_serves_any_projection(self, pooled_manager, small_table):
        manager = pooled_manager
        manager.load(0, columns=frozenset({"a1"}))
        partition, delta = manager.load(0, columns=frozenset({"a2"}))
        assert delta.n_pool_hits == 1
        segment = partition.segments[0]
        assert np.array_equal(
            np.asarray(segment.columns["a2"]),
            small_table.column("a2")[segment.tuple_ids],
        )

    def test_simulated_os_cache_still_applies_on_pool_miss(self, small_table):
        device = StorageDevice(BALOS_HDD, cache_bytes=1 << 24)
        pool = BufferPool(capacity_bytes=1 << 24)
        manager = PartitionManager(small_table.schema, device, buffer_pool=pool)
        n = small_table.n_tuples
        manager.materialize_specs(
            [[SegmentSpec(("a1", "a2"), np.arange(n, dtype=np.int64))]],
            small_table,
            tid_storage=TID_CATALOG,
        )
        manager.load(0)  # cold: device read, populates both caches
        pool.clear()  # drop the pool but keep the simulated OS cache warm
        _partition, delta = manager.load(0)
        assert delta.n_pool_hits == 0
        assert delta.n_cache_hits == 1  # simulated cache hit, not a device read
        assert delta.io_time_s == 0.0


class TestLoadPoolAccounting:
    """What one ``PartitionManager.load`` adds to its pool's counters."""

    def test_resident_pid_is_one_hit(self, pooled_manager):
        manager = pooled_manager
        pool = manager.buffer_pool
        manager.load(0)
        manager.load(1)
        before = dataclasses.replace(pool.stats)
        _partition, delta = manager.load(0)
        assert pool.stats.n_hits == before.n_hits + 1
        assert pool.stats.n_misses == before.n_misses
        assert pool.stats.hit_bytes == before.hit_bytes + manager.info(0).n_bytes
        assert (delta.n_pool_hits, delta.pool_hit_bytes, delta.bytes_read) == (
            1, manager.info(0).n_bytes, 0
        )
        assert pool.pids() == (1, 0)  # the hit refreshed LRU order

    def test_non_resident_pid_is_one_miss(self, pooled_manager):
        pool = pooled_manager.buffer_pool
        _partition, delta = pooled_manager.load(0)
        assert (pool.stats.n_hits, pool.stats.n_misses) == (0, 1)
        assert delta.n_pool_hits == 0 and delta.bytes_read > 0

    def test_unknown_pid_raises(self, pooled_manager):
        with pytest.raises(PartitionNotFoundError):
            pooled_manager.load(99)

    def test_failed_refresh_is_never_served(self, pooled_manager, monkeypatch):
        """A copy pooled while a refresh of the pid fails (a racing load's
        put) is dropped with the failure; the next read goes to the store."""
        manager = pooled_manager
        pool = manager.buffer_pool
        stale = ("stale", 0)

        def failing_get(key):
            pool.put(0, stale, 1)
            raise StorageError(f"injected failure reading {key}")

        monkeypatch.setattr(manager.store, "get", failing_get)
        with pytest.raises(PartitionUnreadableError):
            manager.load(0)
        assert 0 not in pool
        monkeypatch.undo()
        partition, delta = manager.load(0)
        assert partition is not stale and delta.n_pool_hits == 0


class TestLoadWithoutPool:
    def test_default_load_stays_eager_and_uncached(self, small_table):
        manager = PartitionManager(small_table.schema, StorageDevice(BALOS_HDD))
        n = small_table.n_tuples
        manager.materialize_specs(
            [[SegmentSpec(("a1", "a2"), np.arange(n, dtype=np.int64))]],
            small_table,
            tid_storage=TID_CATALOG,
        )
        manager.load(0)
        _partition, delta = manager.load(0)
        assert delta.bytes_read == manager.info(0).n_bytes  # re-read, as before
        segment = _partition.segments[0]
        assert isinstance(segment.columns, dict)  # eager decode preserved
