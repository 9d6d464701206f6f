"""Unit tests for Algorithm 5 — partition-at-a-time evaluation."""

import numpy as np
import pytest

from repro.core import Query, Workload
from repro.engine import PartitionAtATimeExecutor
from repro.plan.stats import CpuModel
from repro.layouts import BuildContext, IrregularLayout, RowLayout
from repro.storage import (
    BALOS_HDD,
    PartitionManager,
    SegmentSpec,
    StorageDevice,
    TID_EXPLICIT,
)


def reference_answer(table, query):
    mask = np.ones(table.n_tuples, dtype=bool)
    for name, interval in query.where.items():
        column = table.column(name)
        mask &= (column >= interval.lo) & (column <= interval.hi)
    tids = np.nonzero(mask)[0]
    return tids, {name: table.column(name)[tids] for name in query.select}


def irregular_manager(small_table):
    """A hand-built irregular layout over the test table.

    Partition 0: a1 (all tuples) + a2, a3 for the lower half of a1 values.
    Partition 1: a2, a3 for the upper half (different tuple order context).
    Partition 2: a4, a5, a6 for all tuples.
    """
    device = StorageDevice(BALOS_HDD)
    manager = PartitionManager(small_table.schema, device)
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


class TestCorrectness:
    def test_matches_reference_on_trained_query(self, small_table):
        manager = irregular_manager(small_table)
        executor = PartitionAtATimeExecutor(manager, small_table.meta)
        query = Query.build(small_table.meta, ["a2", "a3"], {"a1": (0, 1999)})
        result, stats = executor.execute(query)
        tids, columns = reference_answer(small_table, query)
        assert np.array_equal(result.tuple_ids, tids)
        for name in query.select:
            assert np.array_equal(result.column(name), columns[name])

    def test_projection_spans_partitions(self, small_table):
        """Projected attributes living in a different partition than the
        predicate exercise the projection phase (lines 17-23)."""
        manager = irregular_manager(small_table)
        executor = PartitionAtATimeExecutor(manager, small_table.meta)
        query = Query.build(small_table.meta, ["a5", "a2"], {"a1": (2000, 7999)})
        result, stats = executor.execute(query)
        tids, columns = reference_answer(small_table, query)
        assert np.array_equal(result.tuple_ids, tids)
        assert np.array_equal(result.column("a5"), columns["a5"])

    def test_multi_predicate_conjunction(self, small_table):
        manager = irregular_manager(small_table)
        executor = PartitionAtATimeExecutor(manager, small_table.meta)
        query = Query.build(
            small_table.meta, ["a2"], {"a1": (0, 4999), "a4": (5000, 9999)}
        )
        result, _stats = executor.execute(query)
        tids, _cols = reference_answer(small_table, query)
        assert np.array_equal(result.tuple_ids, tids)

    def test_no_predicates_returns_everything(self, small_table):
        manager = irregular_manager(small_table)
        executor = PartitionAtATimeExecutor(manager, small_table.meta)
        query = Query.build(small_table.meta, ["a6"])
        result, _stats = executor.execute(query)
        assert result.n_tuples == small_table.n_tuples
        assert np.array_equal(result.column("a6"), small_table.column("a6"))

    def test_tiny_or_empty_result(self, small_table):
        manager = irregular_manager(small_table)
        executor = PartitionAtATimeExecutor(manager, small_table.meta)
        # Two point predicates: almost certainly no tuple satisfies both.
        query = Query.build(
            small_table.meta, ["a2"], {"a1": (5000, 5000), "a4": (5000, 5000)}
        )
        result, _stats = executor.execute(query)
        tids, _cols = reference_answer(small_table, query)
        assert np.array_equal(result.tuple_ids, tids)


class TestAccessPattern:
    def test_each_partition_read_at_most_once(self, small_table):
        """The whole point of partition-at-a-time: no partition is loaded
        twice, even when predicates and projections interleave."""
        manager = irregular_manager(small_table)
        executor = PartitionAtATimeExecutor(manager, small_table.meta)
        query = Query.build(small_table.meta, ["a2", "a5"], {"a1": (0, 4999)})
        _result, stats = executor.execute(query)
        assert stats.n_partition_reads <= len(manager)

    def test_untouched_partition_not_read(self, small_table):
        manager = irregular_manager(small_table)
        executor = PartitionAtATimeExecutor(manager, small_table.meta)
        # Every qualifying tuple (a1 <= 4999) has its a2/a3 cells co-located
        # with a1 in partition 0, so neither the upper-half partition nor the
        # (a4, a5, a6) partition is loaded.
        query = Query.build(small_table.meta, ["a2", "a3"], {"a1": (0, 4999)})
        _result, stats = executor.execute(query)
        assert stats.n_partition_reads == 1
        assert stats.bytes_read == manager.info(0).n_bytes

    def test_selection_fills_local_cells_to_avoid_revisits(self, small_table):
        """Cells co-located with the predicate partition are taken during the
        selection phase (Algorithm 5 line 16), so the projection phase reads
        only the upper-half partition."""
        manager = irregular_manager(small_table)
        executor = PartitionAtATimeExecutor(manager, small_table.meta)
        query = Query.build(small_table.meta, ["a2"], {"a1": (0, 9999)})
        _result, stats = executor.execute(query)
        # partition 0 (pred + lower a2) and partition 1 (upper a2): 2 reads.
        assert stats.n_partition_reads == 2

    def test_stats_accounting(self, small_table):
        manager = irregular_manager(small_table)
        executor = PartitionAtATimeExecutor(
            manager, small_table.meta, cpu_model=CpuModel()
        )
        query = Query.build(small_table.meta, ["a2"], {"a1": (0, 4999)})
        result, stats = executor.execute(query)
        assert stats.hash_inserts == result.n_tuples
        assert stats.cpu_time_s > 0
        assert stats.simulated_time_s == pytest.approx(
            stats.io_time_s + stats.cpu_time_s
        )
        assert stats.n_result_tuples == result.n_tuples


class TestInvalidTransitions:
    def test_tuple_validated_then_invalidated(self, small_table):
        """A tuple passing the vacuous check in one partition must be removed
        once a later partition's predicate rejects it (lines 8-11)."""
        device = StorageDevice(BALOS_HDD)
        manager = PartitionManager(small_table.schema, device)
        everyone = np.arange(small_table.n_tuples, dtype=np.int64)
        # Partition 0 holds projected a2 (no predicate attrs!), partition 1
        # holds the predicate attr a1.  Scanning order is pid order, so a2's
        # cells are stashed for every tuple before a1 invalidates most.
        manager.materialize_specs(
            [
                [SegmentSpec(("a2",), everyone)],
                [SegmentSpec(("a1",), everyone)],
            ],
            small_table,
            tid_storage=TID_EXPLICIT,
        )
        executor = PartitionAtATimeExecutor(manager, small_table.meta)
        query = Query.build(small_table.meta, ["a2"], {"a1": (0, 999)})
        result, _stats = executor.execute(query)
        tids, columns = reference_answer(small_table, query)
        assert np.array_equal(result.tuple_ids, tids)
        assert np.array_equal(result.column("a2"), columns["a2"])
