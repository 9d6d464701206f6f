"""Focused tests for the partition-local executor's planning rules."""

import numpy as np
import pytest

from repro.core import Query
from repro.engine.replicated import ReplicatedExecutor
from repro.errors import StorageError
from repro.storage import (
    BALOS_HDD,
    PartitionManager,
    PhysicalSegment,
    SegmentSpec,
    StorageDevice,
    TID_CATALOG,
    TID_EXPLICIT,
    build_physical_partition,
)


@pytest.fixture()
def manual_replicated(small_table):
    """Hand-built layout: a1 column partition + two (a2,a3) halves carrying
    replicas of a1 for their own tuples."""
    device = StorageDevice(BALOS_HDD)
    manager = PartitionManager(small_table.schema, device)
    n = small_table.n_tuples
    everyone = np.arange(n, dtype=np.int64)
    # Value-aligned halves on a1 (tight zones, as Jigsaw's splits produce).
    a1 = small_table.column("a1")
    halves = [
        np.nonzero(a1 <= 4999)[0].astype(np.int64),
        np.nonzero(a1 > 4999)[0].astype(np.int64),
    ]
    partitions = [
        build_physical_partition(pid, [SegmentSpec(attrs, tids)], small_table, TID_EXPLICIT)
        for pid, (attrs, tids) in enumerate([
            (("a1",), everyone),
            (("a2", "a3"), halves[0]),
            (("a2", "a3"), halves[1]),
        ])
    ]
    # a1 replicas ride in the two projection partitions.
    for partition, tids in zip(partitions[1:], halves):
        partition.segments.append(
            PhysicalSegment(
                attributes=("a1",),
                tuple_ids=tids,
                columns={"a1": small_table.column("a1")[tids]},
                tid_storage=TID_CATALOG,
                replica=True,
            )
        )
    manager.materialize(partitions)
    return manager


class TestLocalPlan:
    def test_covered_query_is_local(self, small_table, manual_replicated):
        executor = ReplicatedExecutor(manual_replicated, small_table.meta)
        query = Query.build(small_table.meta, ["a2", "a3"], {"a1": (0, 4999)})
        plan = executor.local_plan(query)
        assert plan == (1, 2)

    def test_uncovered_predicate_rejected(self, small_table, manual_replicated):
        executor = ReplicatedExecutor(manual_replicated, small_table.meta)
        # a4 cells exist nowhere locally -> no local plan.
        query = Query.build(
            small_table.meta, ["a2"], {"a1": (0, 4999), "a4": (0, 4999)}
        )
        assert executor.local_plan(query) is None

    def test_no_predicates_rejected(self, small_table, manual_replicated):
        executor = ReplicatedExecutor(manual_replicated, small_table.meta)
        query = Query.build(small_table.meta, ["a2"])
        assert executor.local_plan(query) is None

    def test_local_answers_match_standard(self, small_table, manual_replicated):
        executor = ReplicatedExecutor(manual_replicated, small_table.meta)
        query = Query.build(small_table.meta, ["a2", "a3"], {"a1": (1000, 6000)})
        local, local_stats = executor.execute(query)
        standard, _stats = executor.standard.execute(query)
        assert local.equals(standard)
        assert local_stats.hash_inserts == 0

    def test_local_skips_predicate_only_partition(self, small_table, manual_replicated):
        executor = ReplicatedExecutor(manual_replicated, small_table.meta)
        query = Query.build(small_table.meta, ["a2", "a3"], {"a1": (0, 9999)})
        _result, stats = executor.execute(query)
        # Partitions 1 and 2 only; the a1 column partition is never read.
        assert stats.n_partition_reads == 2

    def test_zone_pruning_in_local_path(self, small_table, manual_replicated):
        """The half whose a1 replica zone misses the window is skipped
        without I/O (the halves are value-aligned on a1)."""
        executor = ReplicatedExecutor(manual_replicated, small_table.meta)
        query = Query.build(small_table.meta, ["a2", "a3"], {"a1": (6000, 9999)})
        result, stats = executor.execute(query)
        assert stats.n_partitions_skipped == 1
        assert stats.n_partition_reads == 1
        expected = int((small_table.column("a1") >= 6000).sum())
        assert result.n_tuples == expected
