"""Buffer pool: LRU byte budget, invalidation, manager composition."""

import dataclasses

import numpy as np
import pytest


from repro.core import Query
from repro.engine import PartitionAtATimeExecutor, ScanExecutor
from repro.errors import (
    PartitionNotFoundError,
    PartitionUnreadableError,
    StorageError,
)
from repro.plan.operators import PlanReader
from repro.plan.stats import ExecutionStats
from repro.storage import (
    BALOS_HDD,
    BufferPool,
    FaultConfig,
    FaultInjectingBlobStore,
    LazyColumnBlock,
    MemoryBlobStore,
    PartitionManager,
    SegmentSpec,
    StorageDevice,
    TID_CATALOG,
)
from repro.testing.oracle import no_leaked_pins


def _dummy_partition(pid: int) -> object:
    """The pool never inspects the cached object; any sentinel works."""
    return ("partition", pid)


def _hit(pool, pid):
    """The partition a one-pid run of the pool returns, or None."""
    run = pool.hit_run((pid,))
    return run[0] if run else None


class TestPoolLRU:
    def test_hit_and_miss_counters(self):
        pool = BufferPool(capacity_bytes=1000)
        assert _hit(pool, 0) is None
        pool.put(0, _dummy_partition(0), 100)
        assert _hit(pool, 0) == ("partition", 0)
        assert pool.stats.n_misses == 1
        assert pool.stats.n_hits == 1
        assert pool.stats.hit_bytes == 100

    def test_byte_budget_evicts_lru_first(self):
        pool = BufferPool(capacity_bytes=300)
        for pid in range(3):
            pool.put(pid, _dummy_partition(pid), 100)
        _hit(pool, 0)  # 0 becomes MRU; LRU order is now 1, 2, 0
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
        assert _hit(pool, 0) == "replacement"
        assert pool.current_bytes == 200

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            BufferPool(0)

    def test_invalidate_drops_the_entry(self):
        pool = BufferPool(capacity_bytes=200)
        pool.put(0, _dummy_partition(0), 100)
        pool.invalidate(0)
        pool.invalidate(99)  # not resident: nothing to count
        assert 0 not in pool
        assert pool.current_bytes == 0
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


def _read(manager, pid):
    """One pid read as an engine reads it — a one-pid run of
    ``PlanReader.load_run`` — returning the partition and the reader's
    stats."""
    stats = ExecutionStats()
    [(_run, [partition])] = PlanReader(manager, stats).load_run((pid,))
    return partition, stats


class TestManagerComposition:
    def test_pool_miss_charges_device_hit_charges_nothing(self, pooled_manager):
        manager = pooled_manager
        pool = manager.buffer_pool
        _partition, cold = _read(manager, 0)
        assert cold.io_time_s > 0 and cold.bytes_read == manager.info(0).n_bytes
        assert cold.n_pool_hits == 0
        warm_partition, warm = _read(manager, 0)
        assert warm.io_time_s == 0.0
        assert warm.bytes_read == 0
        assert warm.n_pool_hits == 1
        assert pool.stats.hit_bytes == manager.info(0).n_bytes
        # The device never saw the second read at all.
        assert manager.device.stats.n_reads == 1
        assert np.array_equal(
            warm_partition.segments[0].tuple_ids,
            _partition.segments[0].tuple_ids,
        )

    def test_pool_hit_serves_any_projection(self, pooled_manager, small_table):
        manager = pooled_manager
        cold, _delta = manager.load(0)
        cold.segments[0].columns["a1"]  # the first query reads a1 only
        partition, stats = _read(manager, 0)
        assert stats.n_pool_hits == 1
        segment = partition.segments[0]
        assert segment.columns.materialized == frozenset({"a1"})
        assert np.array_equal(
            np.asarray(segment.columns["a2"]),
            small_table.column("a2")[segment.tuple_ids],
        )

    def test_eviction_leaves_a_held_partition_whole(self, small_table):
        """Eviction drops the pool's reference only: a query holding the
        partition keeps reading pristine cells from it."""
        pool = BufferPool(capacity_bytes=1)
        manager = PartitionManager(
            small_table.schema, StorageDevice(BALOS_HDD), buffer_pool=pool
        )
        everyone = np.arange(small_table.n_tuples, dtype=np.int64)
        manager.materialize_specs(
            [[SegmentSpec(("a1", "a2"), everyone)], [SegmentSpec(("a3", "a4"), everyone)]],
            small_table,
            tid_storage=TID_CATALOG,
        )
        assert manager.info(0).n_bytes == manager.info(1).n_bytes
        pool.capacity_bytes = manager.info(0).n_bytes
        held, _delta = manager.load(0)
        manager.load(1)  # evicts pid 0
        assert 0 not in pool and pool.stats.n_evictions == 1
        segment = held.segments[0]
        assert np.array_equal(segment.columns["a2"], small_table.column("a2"))

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
        _partition, stats = _read(manager, 0)
        assert stats.n_pool_hits == 0
        assert stats.n_cache_hits == 1  # simulated cache hit, not a device read
        assert stats.io_time_s == 0.0


class TestLoadPoolAccounting:
    """What one read adds to its pool's counters: a one-pid run of
    ``PlanReader.load_run`` (``PartitionManager.load`` itself is the store
    read, and admits what it read)."""

    def test_resident_pid_is_one_hit(self, pooled_manager):
        manager = pooled_manager
        pool = manager.buffer_pool
        manager.load(0)
        manager.load(1)
        assert (pool.stats.n_hits, pool.stats.n_misses) == (0, 0)
        before = dataclasses.replace(pool.stats)
        _partition, stats = _read(manager, 0)
        assert pool.stats.n_hits == before.n_hits + 1
        assert pool.stats.n_misses == before.n_misses
        assert pool.stats.hit_bytes == before.hit_bytes + manager.info(0).n_bytes
        assert (stats.n_pool_hits, stats.n_partition_reads, stats.bytes_read) == (1, 1, 0)
        assert pool.pids() == (1, 0)  # the hit refreshed LRU order

    def test_non_resident_pid_is_one_miss(self, pooled_manager):
        pool = pooled_manager.buffer_pool
        _partition, stats = _read(pooled_manager, 0)
        assert (pool.stats.n_hits, pool.stats.n_misses) == (0, 1)
        assert stats.n_pool_hits == 0 and stats.bytes_read > 0
        assert 0 in pool  # the store read admitted it

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
        partition, stats = _read(manager, 0)
        assert partition is not stale and stats.n_pool_hits == 0


class TestLoadWithoutPool:
    def test_load_rereads_and_decodes_on_access(self, small_table):
        manager = PartitionManager(small_table.schema, StorageDevice(BALOS_HDD))
        n = small_table.n_tuples
        manager.materialize_specs(
            [[SegmentSpec(("a1", "a2"), np.arange(n, dtype=np.int64))]],
            small_table,
            tid_storage=TID_CATALOG,
        )
        first, _delta = manager.load(0)
        partition, delta = manager.load(0)
        assert delta.bytes_read == manager.info(0).n_bytes  # re-read, as before
        assert partition is not first
        columns = partition.segments[0].columns
        assert isinstance(columns, LazyColumnBlock)
        assert columns.materialized == frozenset()
        assert np.array_equal(columns["a2"], small_table.column("a2"))
        assert columns.materialized == frozenset({"a2"})


class TestHitRun:
    def test_answers_the_resident_run_and_counts_its_ending_miss(self):
        pool = BufferPool(capacity_bytes=1000)
        for pid in range(4):
            pool.put(pid, _dummy_partition(pid), 100)
        assert pool.hit_run((9, 2, 0, 7, 1), 1) == [("partition", 2), ("partition", 0)]
        assert (pool.stats.n_hits, pool.stats.n_misses) == (2, 1)  # 7 ended it
        assert pool.stats.hit_bytes == 200
        assert pool.pids() == (1, 3, 2, 0)  # refreshed in run order
        assert pool.hit_run((7, 1), 0) == []
        assert (pool.stats.n_hits, pool.stats.n_misses) == (2, 2)
        assert pool.hit_run((3, 1), 0) == [("partition", 3), ("partition", 1)]
        assert (pool.stats.n_hits, pool.stats.n_misses) == (4, 2)  # ran to the end


def _run_load_manager(table):
    """Six equal partitions of a1, a2 under a four-partition pool holding
    (LRU first) 4, 0, 1, 3; partition 5 is unreadable.  Read in pid order:
    hits 0, 1; miss 2 (evicts 4); hit 3; miss 4 (evicted during the run;
    evicts 0); 5 raises."""
    store = FaultInjectingBlobStore(MemoryBlobStore())
    manager = PartitionManager(
        table.schema, StorageDevice(BALOS_HDD), store, buffer_pool=BufferPool(1)
    )
    n = table.n_tuples // 6
    manager.materialize_specs(
        [[SegmentSpec(("a1", "a2"), np.arange(k * n, (k + 1) * n, dtype=np.int64))]
         for k in range(6)],
        table,
        tid_storage=TID_CATALOG,
    )
    sizes = {manager.info(pid).n_bytes for pid in range(6)}
    assert len(sizes) == 1
    manager.buffer_pool.capacity_bytes = 4 * sizes.pop()
    for pid in (4, 0, 1, 3):
        manager.load(pid)
    store.overrides[manager.info(5).key] = FaultConfig(transient_error_rate=1.0)
    return manager


def _per_pid(reader, pids):
    """The reference: each pid read as its own one-pid run."""
    for pid in pids:
        for _run, _partitions in reader.load_run((pid,)):
            pass


def _as_runs(reader, pids):
    for _run, _partitions in reader.load_run(pids):
        pass


class TestLoadRun:
    """``PlanReader.load_run`` charges, refreshes and fails exactly as
    one-pid runs do, with evictions, a miss inside a run and an unreadable
    pid — and so do the engines' loops over it."""

    def outcome(self, table, form):
        manager = _run_load_manager(table)
        pool = manager.buffer_pool
        stats = ExecutionStats()
        with pytest.raises(PartitionUnreadableError) as raised:
            form(PlanReader(manager, stats), tuple(range(6)))
        return (
            dataclasses.astuple(pool.stats), pool.pids(), dataclasses.astuple(stats),
            raised.value.pid, raised.value.io_delta,
        )

    def test_reader_counters_match_the_per_pid_loop(self, small_table):
        per_pid = self.outcome(small_table, _per_pid)
        assert self.outcome(small_table, _as_runs) == per_pid
        pool_stats, lru, _stats, pid, io_delta = per_pid
        assert lru == (1, 2, 3, 4) and pid == 5 and io_delta.n_retries
        n_hits, n_misses, _ins, n_evictions = pool_stats[:4]
        assert (n_hits, n_misses, n_evictions) == (3, 3, 2)

    def engine_outcome(self, table, engine_type, **options):
        """:meth:`outcome` but for the stats, of one query through an
        engine's loops (the query fails: its stats never leave
        ``execute``)."""
        query = Query.build(table.meta, ["a2"], {"a1": (0, 4999)})
        manager = _run_load_manager(table)
        engine = engine_type(manager, table.meta, **options)
        assert engine.plan(query).selection_pids() == tuple(range(6))
        with no_leaked_pins(), pytest.raises(PartitionUnreadableError) as raised:
            engine.execute(query)
        assert manager.pinned_versions() == ()
        pool = manager.buffer_pool
        return (
            dataclasses.astuple(pool.stats), pool.pids(),
            raised.value.pid, raised.value.io_delta,
        )

    def test_a_query_fails_alike_and_releases_its_pin(self, small_table):
        """The partition-at-a-time engine's selection loads as runs, and
        charges and fails as one-pid runs over its selection pids."""
        reference = self.outcome(small_table, _per_pid)
        outcome = self.engine_outcome(small_table, PartitionAtATimeExecutor)
        assert outcome == reference[:2] + reference[3:]
        assert outcome[2] == 5

    def test_the_scan_driver_fails_alike(self, small_table):
        """So does the scan engine's selection: hits 0, 1, 3, misses 2 and
        4 inside the runs, and the unreadable pid 5."""
        reference = self.outcome(small_table, _per_pid)
        outcome = self.engine_outcome(small_table, ScanExecutor, zone_maps=False)
        assert outcome == reference[:2] + reference[3:]


def _split_manager(table):
    """a1 in partitions 0-2 and a2 in 3-5 (a third of the tuples each),
    every one resident in a pool that holds them all."""
    manager = PartitionManager(
        table.schema, StorageDevice(BALOS_HDD), buffer_pool=BufferPool(1 << 24)
    )
    n = table.n_tuples
    thirds = [np.arange(k * n // 3, (k + 1) * n // 3, dtype=np.int64) for k in range(3)]
    manager.materialize_specs(
        [[SegmentSpec((name,), tids)] for name in ("a1", "a2") for tids in thirds],
        table,
        tid_storage=TID_CATALOG,
    )
    for pid in range(6):
        manager.load(pid)
    return manager


class TestScanGather:
    """The scan engine fills from the partitions its selection loaded and
    reads the rest of its projection as runs."""

    query_bounds = {"a1": (0, 4999)}

    def run(self, table, manager):
        query = Query.build(table.meta, ["a2"], self.query_bounds)
        result, stats = ScanExecutor(manager, table.meta, zone_maps=False).execute(query)
        expected, _ = PartitionAtATimeExecutor(
            _split_manager(table), table.meta
        ).execute(query)
        assert result.equals(expected) and result.n_tuples
        return stats

    def test_a_warm_pool_reads_two_runs_of_hits(self, small_table):
        manager = _split_manager(small_table)
        pool = manager.buffer_pool
        stats = self.run(small_table, manager)
        assert (stats.n_partition_reads, stats.n_pool_hits, stats.bytes_read) == (6, 6, 0)
        assert (pool.stats.n_hits, pool.stats.n_misses) == (6, 0)
        assert pool.pids() == tuple(range(6))

    def test_a_miss_mid_run_of_the_gather(self, small_table):
        manager = _split_manager(small_table)
        pool = manager.buffer_pool
        pool.invalidate(4)
        stats = self.run(small_table, manager)
        assert (stats.n_partition_reads, stats.n_pool_hits) == (6, 5)
        assert stats.bytes_read == manager.info(4).n_bytes
        assert (pool.stats.n_hits, pool.stats.n_misses) == (5, 1)
        assert pool.pids() == tuple(range(6))  # 4 read and admitted in order
