"""Audit of ExecutionStats merging in the threaded engines.

The threaded engines accrue I/O into per-worker ``ExecutionStats`` plus a
coordinator ledger (serial failure drain and projection loads), then sum
them into the stats ``execute`` returns.  The contract audited here: every
counter in the returned totals is *exactly* the sum of the per-worker
counters and the coordinator's — nothing double-counted, nothing
dropped — healthy or under injected faults, with or without a buffer pool.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import Query
from repro.engine.parallel import ThreadedPartitionEngine
from repro.plan import ExecutionStats
from repro.storage import (
    BALOS_HDD,
    BufferPool,
    FaultConfig,
    FaultInjectingBlobStore,
    MemoryBlobStore,
    PartitionManager,
    SegmentSpec,
    StorageDevice,
    TID_CATALOG,
)

KILL = FaultConfig(transient_error_rate=1.0)
FLAKY = FaultConfig(transient_error_rate=0.4)

STRATEGIES = ["locking", "shared"]


def make_manager(
    small_table, spec_groups, overrides=None, buffer_pool=None, config=None
):
    store = FaultInjectingBlobStore(
        MemoryBlobStore(), config=config, seed=7, overrides=overrides or {}
    )
    manager = PartitionManager(
        small_table.schema,
        StorageDevice(BALOS_HDD),
        store,
        buffer_pool=buffer_pool,
    )
    manager.materialize_specs(spec_groups, small_table, tid_storage=TID_CATALOG)
    return manager


def overlapping_specs(small_table):
    """Partition 0 fully overlapped by partition 1 (loss is recoverable)."""
    n = small_table.n_tuples
    all_tids = np.arange(n, dtype=np.int64)
    return [
        [SegmentSpec(("a1", "a2"), all_tids)],
        [SegmentSpec(("a1", "a2"), all_tids)],
        [SegmentSpec(("a3", "a4", "a5", "a6"), all_tids)],
    ]


def striped_specs(small_table):
    """Several disjoint stripes so multiple workers get real work."""
    n = small_table.n_tuples
    tids = np.arange(n, dtype=np.int64)
    stripes = np.array_split(tids, 4)
    groups = [[SegmentSpec(("a1", "a2"), stripe)] for stripe in stripes]
    groups.append([SegmentSpec(("a3", "a4"), tids)])
    groups.append([SegmentSpec(("a5", "a6"), tids)])
    return groups


@pytest.fixture()
def query(small_table):
    return Query.build(small_table.meta, ["a2", "a3"], {"a1": (0, 4000)})


def summed(engine):
    """Recompute coordinator + workers in the engine's own merge order."""
    total = ExecutionStats()
    total.add(engine.coordinator_stats)
    for worker in engine.worker_stats:
        total.add(worker)
    return total


def assert_exact_merge(engine, result, stats):
    total = summed(engine)
    for field in dataclasses.fields(ExecutionStats):
        if field.name in ("n_result_tuples", "wall_time_s"):
            continue  # stamped on the totals after the merge
        assert getattr(stats, field.name) == getattr(
            total, field.name
        ), f"{field.name} dropped or double-counted in the merge"
    assert stats.n_result_tuples == len(result.tuple_ids)


class TestHealthyMerge:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("n_threads", [1, 3])
    def test_totals_are_exact_sum(self, small_table, query, strategy, n_threads):
        manager = make_manager(small_table, striped_specs(small_table))
        engine = ThreadedPartitionEngine(
            manager, small_table.meta, strategy=strategy, n_threads=n_threads
        )
        result, stats = engine.execute(query)
        assert_exact_merge(engine, result, stats)
        assert len(engine.worker_stats) == n_threads
        # Healthy run: every load happened on a worker, none on the
        # coordinator's selection drain; projection loads are coordinated.
        assert stats.n_partition_reads > 0
        assert (
            sum(w.n_partition_reads for w in engine.worker_stats)
            + engine.coordinator_stats.n_partition_reads
            == stats.n_partition_reads
        )
        assert stats.n_unreadable_partitions == 0
        assert stats.n_degraded_reads == 0
        assert stats.bytes_read > 0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_workers_share_the_load(self, small_table, query, strategy):
        manager = make_manager(small_table, striped_specs(small_table))
        engine = ThreadedPartitionEngine(
            manager, small_table.meta, strategy=strategy, n_threads=2
        )
        _, stats = engine.execute(query)
        # With 4 predicate stripes at least one worker must have read
        # something, and no single counter can exceed the merged total.
        for worker in engine.worker_stats:
            assert worker.n_partition_reads <= stats.n_partition_reads
            assert worker.bytes_read <= stats.bytes_read
        assert any(w.n_partition_reads for w in engine.worker_stats)


class TestFaultMerge:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_unreadable_partition_counters_sum(self, small_table, query, strategy):
        manager = make_manager(
            small_table,
            overlapping_specs(small_table),
            overrides={"p000000.jig": KILL},
        )
        engine = ThreadedPartitionEngine(
            manager, small_table.meta, strategy=strategy, n_threads=2
        )
        result, stats = engine.execute(query)
        assert_exact_merge(engine, result, stats)
        assert stats.n_unreadable_partitions == 1
        assert stats.n_degraded_reads >= 1
        # The failed worker attempt still burned retries and I/O time; the
        # merge must carry them into the totals.
        assert stats.n_retries > 0
        total = summed(engine)
        assert total.n_retries == stats.n_retries

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_flaky_store_retries_sum(self, small_table, query, strategy):
        manager = make_manager(
            small_table, striped_specs(small_table), config=FLAKY
        )
        engine = ThreadedPartitionEngine(
            manager, small_table.meta, strategy=strategy, n_threads=3
        )
        result, stats = engine.execute(query)
        assert_exact_merge(engine, result, stats)


class TestPoolMerge:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_pool_hits_sum(self, small_table, query, strategy):
        manager = make_manager(
            small_table, striped_specs(small_table), buffer_pool=BufferPool(1 << 24)
        )
        engine = ThreadedPartitionEngine(
            manager, small_table.meta, strategy=strategy, n_threads=2
        )
        engine.execute(query)  # warm the pool
        result, stats = engine.execute(query)
        assert_exact_merge(engine, result, stats)
        assert stats.n_pool_hits > 0
        assert sum(w.n_pool_hits for w in engine.worker_stats) + (
            engine.coordinator_stats.n_pool_hits
        ) == stats.n_pool_hits
