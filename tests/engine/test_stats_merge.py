"""Audit of ExecutionStats merging in the threaded engines.

The threaded engines accrue I/O into per-worker ``ExecutionStats`` plus a
coordinator ledger (projection loads), then sum them into the stats
``execute`` returns.  The contract audited here: every counter in the
returned totals is *exactly* the sum of the per-worker counters and the
coordinator's — nothing double-counted, nothing dropped — healthy or under
retried faults, with or without a buffer pool.
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

FLAKY = FaultConfig(transient_error_rate=0.4)

STRATEGIES = ["locking", "shared"]


def make_manager(small_table, spec_groups, buffer_pool=None, config=None):
    store = FaultInjectingBlobStore(MemoryBlobStore(), config=config, seed=7)
    manager = PartitionManager(
        small_table.schema,
        StorageDevice(BALOS_HDD),
        store,
        buffer_pool=buffer_pool,
    )
    manager.materialize_specs(spec_groups, small_table, tid_storage=TID_CATALOG)
    return manager


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
    """Recompute workers + coordinator in the engine's own merge order."""
    total = ExecutionStats()
    for worker in engine.worker_stats:
        total.add(worker)
    total.add(engine.coordinator_stats)
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
        # Selection loads happen on the workers, projection loads on the
        # coordinator.
        assert stats.n_partition_reads > 0
        assert (
            sum(w.n_partition_reads for w in engine.worker_stats)
            + engine.coordinator_stats.n_partition_reads
            == stats.n_partition_reads
        )
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


class TestConcurrentExecutes:
    """Each ``execute`` keeps its own ledgers: a second call that runs
    while the first one is in flight returns its own counters and leaves
    the first call's intact."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_an_execute_inside_another_keeps_both_counters(
        self, small_table, query, strategy, monkeypatch
    ):
        inner_query = Query.build(small_table.meta, ["a4"], {"a1": (5000, 9999)})

        def engine_over_fresh_manager():
            return ThreadedPartitionEngine(
                make_manager(small_table, striped_specs(small_table)),
                small_table.meta, strategy=strategy, n_threads=3,
            )

        _, outer_alone = engine_over_fresh_manager().execute(query)
        _, inner_alone = engine_over_fresh_manager().execute(inner_query)

        engine = engine_over_fresh_manager()
        plan = engine.planner.plan
        inner = []

        def plan_running_another_execute(*args, **kwargs):
            # Deterministic overlap: the second execute runs to completion
            # between the first one's start and its selection phase.
            monkeypatch.setattr(engine.planner, "plan", plan)
            inner.append(engine.execute(inner_query))
            return plan(*args, **kwargs)

        monkeypatch.setattr(engine.planner, "plan", plan_running_another_execute)
        result, outer = engine.execute(query)
        (_, inner_stats), = inner
        for stats, alone in ((outer, outer_alone), (inner_stats, inner_alone)):
            for field in dataclasses.fields(ExecutionStats):
                if field.name != "wall_time_s":
                    # Floats to rounding: which worker reads what varies.
                    expected = pytest.approx(getattr(alone, field.name), rel=1e-12)
                    assert getattr(stats, field.name) == expected, (
                        f"{field.name} leaked between concurrent executes"
                    )
        assert_exact_merge(engine, result, outer)  # the last call's ledgers
