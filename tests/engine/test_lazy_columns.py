"""Lazy column materialization and buffer-pool equivalence across engines.

A partition file decodes a cell on first access.  Every engine must produce
bit-identical results whether partitions are read cold or served warm from
the buffer pool, and a query decodes no column outside its plan's column
sets.
"""

import numpy as np
import pytest

from repro.core import Query
from repro.engine import PartitionAtATimeExecutor, ScanExecutor
from repro.engine.parallel import ThreadedPartitionEngine
from repro.storage import (
    BALOS_HDD,
    BufferPool,
    LazyColumnBlock,
    PartitionManager,
    SegmentSpec,
    StorageDevice,
    TID_EXPLICIT,
    deserialize_partition,
)


def reference_answer(table, query):
    mask = np.ones(table.n_tuples, dtype=bool)
    for name, interval in query.where.items():
        column = table.column(name)
        mask &= (column >= interval.lo) & (column <= interval.hi)
    tids = np.nonzero(mask)[0]
    return tids, {name: table.column(name)[tids] for name in query.select}


def assert_matches_reference(result, table, query):
    tids, columns = reference_answer(table, query)
    assert np.array_equal(result.tuple_ids, tids)
    for name in query.select:
        assert np.array_equal(np.asarray(result.column(name)), columns[name])


def make_manager(small_table, pool=None):
    """Hand-built irregular layout: predicate and projected attrs split."""
    device = StorageDevice(BALOS_HDD)
    manager = PartitionManager(small_table.schema, device, buffer_pool=pool)
    a1 = small_table.column("a1")
    lower = np.nonzero(a1 <= 4_999)[0].astype(np.int64)
    upper = np.nonzero(a1 > 4_999)[0].astype(np.int64)
    everyone = np.arange(small_table.n_tuples, dtype=np.int64)
    manager.materialize_specs(
        [
            [SegmentSpec(("a1",), everyone), SegmentSpec(("a2", "a3"), lower)],
            [SegmentSpec(("a2", "a3"), upper)],
            [SegmentSpec(("a4", "a5", "a6"), everyone)],
        ],
        small_table,
        tid_storage=TID_EXPLICIT,
    )
    return manager


QUERIES = [
    (["a2", "a3"], {"a1": (0, 1999)}),
    (["a5", "a2"], {"a1": (2000, 7999)}),
    (["a2"], {"a1": (0, 4999), "a4": (5000, 9999)}),
    (["a1", "a6"], {}),  # no predicate: full-table projection
]


class TestFormatLevelEquivalence:
    def test_lazy_decode_matches_the_table(self, small_table):
        manager = make_manager(small_table)
        info = manager.info(0)
        data = manager.store.get(info.key)
        partition = deserialize_partition(data, small_table.schema, info)
        assert len(partition.segments) == len(info.segment_tids)
        for segment in partition.segments:
            assert isinstance(segment.columns, LazyColumnBlock)
            assert segment.columns.materialized == frozenset()
            for name in segment.attributes:
                assert np.array_equal(
                    segment.columns[name],
                    small_table.column(name)[segment.tuple_ids],
                )
            assert segment.columns.materialized == frozenset(segment.attributes)

    def test_lazy_block_rejects_foreign_attribute(self, small_table):
        manager = make_manager(small_table)
        info = manager.info(2)
        data = manager.store.get(info.key)
        lazy = deserialize_partition(data, small_table.schema, info)
        with pytest.raises(KeyError):
            lazy.segments[0].columns["a1"]


class TestDecodeOnAccess:
    """With no pool a load decodes nothing up front: after a query, each
    segment it read holds views of its plan's column sets only."""

    @pytest.mark.parametrize("engine", [PartitionAtATimeExecutor, ScanExecutor])
    @pytest.mark.parametrize("select,where", QUERIES)
    def test_a_query_decodes_only_its_column_sets(
        self, small_table, monkeypatch, engine, select, where
    ):
        manager = make_manager(small_table)
        decoded = []
        load = manager.load

        def recording_load(pid, chunk_size=None):
            partition, delta = load(pid, chunk_size)
            decoded.append(partition)
            return partition, delta

        monkeypatch.setattr(manager, "load", recording_load)
        executor = engine(manager, small_table.meta)
        query = Query.build(small_table.meta, select, where)
        plan = executor.plan(query)
        wanted = plan.selection_columns | plan.projection_columns
        result, _stats = executor.execute(query)
        assert_matches_reference(result, small_table, query)
        assert decoded
        for partition in decoded:
            for segment in partition.segments:
                assert segment.columns.materialized <= wanted


@pytest.mark.parametrize("select,where", QUERIES)
class TestEngineEquivalence:
    def test_jigsaw_engine_lazy_and_pooled(self, small_table, select, where):
        query = Query.build(small_table.meta, select, where)
        pool = BufferPool(1 << 24)
        cold = PartitionAtATimeExecutor(make_manager(small_table), small_table.meta)
        pooled = PartitionAtATimeExecutor(
            make_manager(small_table, pool), small_table.meta
        )
        result_cold, stats_cold = cold.execute(query)
        result_w1, stats_w1 = pooled.execute(query)
        result_w2, stats_w2 = pooled.execute(query)  # warm: pure pool hits
        for result in (result_cold, result_w1, result_w2):
            assert_matches_reference(result, small_table, query)
        # Simulated accounting of the pool-less and the first pooled run is
        # identical; the warm repeat charges no device time at all.
        assert stats_w1.bytes_read == stats_cold.bytes_read
        assert stats_w1.io_time_s == stats_cold.io_time_s
        assert stats_w2.io_time_s == 0.0
        assert stats_w2.bytes_read == 0
        assert stats_w2.n_pool_hits == stats_w2.n_partition_reads > 0

    def test_jigsaw_engine_with_zone_maps(self, small_table, select, where):
        query = Query.build(small_table.meta, select, where)
        executor = PartitionAtATimeExecutor(
            make_manager(small_table, BufferPool(1 << 24)),
            small_table.meta,
            zone_maps=True,
        )
        for _ in range(2):
            result, _stats = executor.execute(query)
            assert_matches_reference(result, small_table, query)

    def test_scan_engine_lazy_and_pooled(self, small_table, select, where):
        query = Query.build(small_table.meta, select, where)
        pooled = ScanExecutor(
            make_manager(small_table, BufferPool(1 << 24)),
            small_table.meta,
            zone_maps=False,
        )
        cold_result, cold_stats = ScanExecutor(
            make_manager(small_table), small_table.meta, zone_maps=False
        ).execute(query)
        assert_matches_reference(cold_result, small_table, query)
        warm_stats = None
        for _ in range(2):
            result, warm_stats = pooled.execute(query)
            assert_matches_reference(result, small_table, query)
        assert warm_stats.io_time_s == 0.0
        assert warm_stats.n_pool_hits > 0

    def test_threaded_engine_both_strategies(self, small_table, select, where):
        query = Query.build(small_table.meta, select, where)
        serial_result, _ = PartitionAtATimeExecutor(
            make_manager(small_table), small_table.meta
        ).execute(query)
        for strategy in ("locking", "shared"):
            engine = ThreadedPartitionEngine(
                make_manager(small_table, BufferPool(1 << 24)),
                small_table.meta,
                n_threads=3,
                strategy=strategy,
            )
            for _ in range(2):  # second pass runs warm off the pool
                result, _ = engine.execute(query)
                assert np.array_equal(result.tuple_ids, serial_result.tuple_ids)
                for name in query.select:
                    assert np.array_equal(
                        result.column(name), serial_result.column(name)
                    )


class TestEvictionDoesNotCorruptResults:
    def test_tiny_pool_thrashes_but_stays_correct(self, small_table):
        """A pool smaller than the working set just degrades to misses."""
        info_bytes = [0, 0, 0]
        manager = make_manager(small_table)
        info_bytes = [manager.info(pid).n_bytes for pid in manager.pids()]
        pool = BufferPool(capacity_bytes=max(info_bytes) + 1)
        executor = PartitionAtATimeExecutor(
            make_manager(small_table, pool), small_table.meta
        )
        query = Query.build(small_table.meta, ["a5", "a2"], {"a1": (2000, 7999)})
        for _ in range(3):
            result, _stats = executor.execute(query)
            assert_matches_reference(result, small_table, query)
        assert pool.stats.n_evictions > 0


@pytest.mark.slow
class TestConcurrentLoads:
    def test_threaded_engine_shared_pool_smoke(self, small_table):
        """Many threads loading through one pool: no corruption, no deadlock."""
        pool = BufferPool(capacity_bytes=1 << 24)
        manager = make_manager(small_table, pool)
        serial_result, _ = PartitionAtATimeExecutor(
            make_manager(small_table), small_table.meta
        ).execute(
            Query.build(small_table.meta, ["a5", "a2"], {"a1": (2000, 7999)})
        )
        query = Query.build(small_table.meta, ["a5", "a2"], {"a1": (2000, 7999)})
        for strategy in ("locking", "shared"):
            engine = ThreadedPartitionEngine(
                manager, small_table.meta, n_threads=8, strategy=strategy
            )
            for _ in range(3):
                result, _ = engine.execute(query)
                assert np.array_equal(result.tuple_ids, serial_result.tuple_ids)
                for name in query.select:
                    assert np.array_equal(
                        result.column(name), serial_result.column(name)
                    )
        assert pool.stats.n_hits > 0
