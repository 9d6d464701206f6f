"""Graceful degradation: engines surviving unreadable partitions.

The contract under test (the acceptance bar of the fault-tolerance work):
when a partition is unreadable after every retry, an engine either returns
the exact result healthy storage would have produced — reassembling the lost
cells from overlapping primaries, with ``n_degraded_reads``
surfaced — or raises :class:`PartitionUnreadableError`.  Never a silently
wrong answer.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import Query
from repro.engine import PartitionAtATimeExecutor, ScanExecutor
from repro.engine.parallel import ThreadedPartitionEngine
from repro.errors import PartitionUnreadableError
from repro.storage import (
    BALOS_HDD,
    FaultConfig,
    FaultInjectingBlobStore,
    MemoryBlobStore,
    PartitionManager,
    SegmentSpec,
    StorageDevice,
    TID_CATALOG,
)
from repro.testing.oracle import run_reference_query

KILL = FaultConfig(transient_error_rate=1.0)


def make_manager(small_table, spec_groups, overrides=None):
    """Materialize explicit partitions behind a fault-injecting store."""
    store = FaultInjectingBlobStore(MemoryBlobStore(), overrides=overrides)
    manager = PartitionManager(
        small_table.schema, StorageDevice(BALOS_HDD), store
    )
    manager.materialize_specs(spec_groups, small_table, tid_storage=TID_CATALOG)
    return manager


def overlapping_specs(small_table):
    """Partition 0's cells also live in partition 1 (overlapping coverage);
    partition 2 holds the remaining attributes alone."""
    n = small_table.n_tuples
    all_tids = np.arange(n, dtype=np.int64)
    return [
        [SegmentSpec(("a1", "a2"), all_tids)],
        [SegmentSpec(("a1", "a2"), all_tids)],  # full overlap of partition 0
        [SegmentSpec(("a3", "a4", "a5", "a6"), all_tids)],
    ]


def disjoint_specs(small_table):
    """No partition overlaps another: nothing can substitute for a loss."""
    n = small_table.n_tuples
    lower = np.arange(n // 2, dtype=np.int64)
    upper = np.arange(n // 2, n, dtype=np.int64)
    return [
        [SegmentSpec(("a1", "a2"), lower)],
        [SegmentSpec(("a1", "a2"), upper)],
        [SegmentSpec(("a3", "a4", "a5", "a6"), np.arange(n, dtype=np.int64))],
    ]


def reference(small_table, query):
    mask = np.ones(small_table.n_tuples, dtype=bool)
    for name, interval in query.where.items():
        column = small_table.column(name)
        mask &= (column >= interval.lo) & (column <= interval.hi)
    return np.nonzero(mask)[0]


@pytest.fixture()
def query(small_table):
    return Query.build(small_table.meta, ["a2", "a3"], {"a1": (0, 4999)})


class TestPartitionAtATimeDegradation:
    def test_overlap_recovers_exact_result(self, small_table, query):
        manager = make_manager(
            small_table,
            overlapping_specs(small_table),
            overrides={"p000000.jig": KILL},
        )
        executor = PartitionAtATimeExecutor(manager, small_table.meta)
        result, stats = executor.execute(query)
        expected = reference(small_table, query)
        assert np.array_equal(result.tuple_ids, expected)
        assert np.array_equal(
            result.column("a2"), small_table.column("a2")[expected]
        )
        assert np.array_equal(
            result.column("a3"), small_table.column("a3")[expected]
        )
        assert stats.n_unreadable_partitions == 1
        assert stats.n_degraded_reads > 0
        assert stats.n_retries >= manager.retry_policy.max_attempts - 1

    def test_no_alternative_raises_never_wrong(self, small_table, query):
        manager = make_manager(
            small_table,
            disjoint_specs(small_table),
            overrides={"p000000.jig": KILL},
        )
        executor = PartitionAtATimeExecutor(manager, small_table.meta)
        with pytest.raises(PartitionUnreadableError):
            executor.execute(query)

    def test_healthy_run_reports_no_degradation(self, small_table, query):
        manager = make_manager(small_table, overlapping_specs(small_table))
        executor = PartitionAtATimeExecutor(manager, small_table.meta)
        result, stats = executor.execute(query)
        assert np.array_equal(result.tuple_ids, reference(small_table, query))
        assert stats.n_unreadable_partitions == 0
        assert stats.n_degraded_reads == 0
        assert stats.n_retries == 0

    def test_projection_phase_loss_recovers(self, small_table):
        """Kill the projection-only partition's twin coverage: a3 lives in
        two overlapping partitions; losing one must fall through to the
        other during the projection phase."""
        n = small_table.n_tuples
        all_tids = np.arange(n, dtype=np.int64)
        manager = make_manager(
            small_table,
            [
                [SegmentSpec(("a1", "a2"), all_tids)],
                [SegmentSpec(("a3",), all_tids)],
                [SegmentSpec(("a3",), all_tids)],  # overlap of partition 1
            ],
            overrides={"p000001.jig": KILL},
        )
        executor = PartitionAtATimeExecutor(manager, small_table.meta)
        query = Query.build(small_table.meta, ["a3"], {"a1": (0, 4999)})
        result, stats = executor.execute(query)
        expected = reference(small_table, query)
        assert np.array_equal(result.tuple_ids, expected)
        assert np.array_equal(
            result.column("a3"), small_table.column("a3")[expected]
        )
        assert stats.n_unreadable_partitions == 1
        assert stats.n_degraded_reads > 0


class TestScanDegradation:
    def test_overlap_recovers_exact_result(self, small_table, query):
        manager = make_manager(
            small_table,
            overlapping_specs(small_table),
            overrides={"p000000.jig": KILL},
        )
        executor = ScanExecutor(manager, small_table.meta, zone_maps=False)
        result, stats = executor.execute(query)
        expected = reference(small_table, query)
        assert np.array_equal(result.tuple_ids, expected)
        assert np.array_equal(
            result.column("a3"), small_table.column("a3")[expected]
        )
        assert stats.n_unreadable_partitions == 1
        assert stats.n_degraded_reads > 0

    def test_no_alternative_raises(self, small_table, query):
        manager = make_manager(
            small_table,
            disjoint_specs(small_table),
            overrides={"p000001.jig": KILL},
        )
        executor = ScanExecutor(manager, small_table.meta, zone_maps=False)
        with pytest.raises(PartitionUnreadableError):
            executor.execute(query)


class TestThreadedDegradation:
    @pytest.mark.parametrize("strategy", ["locking", "shared"])
    def test_overlap_recovers_exact_result(self, small_table, query, strategy):
        manager = make_manager(
            small_table,
            overlapping_specs(small_table),
            overrides={"p000000.jig": KILL},
        )
        engine = ThreadedPartitionEngine(
            manager, small_table.meta, n_threads=3, strategy=strategy
        )
        result, stats = engine.execute(query)
        expected = reference(small_table, query)
        assert np.array_equal(result.tuple_ids, expected)
        assert np.array_equal(
            result.column("a2"), small_table.column("a2")[expected]
        )
        assert stats.n_unreadable_partitions == 1
        assert stats.n_degraded_reads > 0

    def test_no_alternative_raises(self, small_table, query):
        manager = make_manager(
            small_table,
            disjoint_specs(small_table),
            overrides={"p000000.jig": KILL},
        )
        engine = ThreadedPartitionEngine(manager, small_table.meta, n_threads=2)
        with pytest.raises(PartitionUnreadableError):
            engine.execute(query)


ENGINES = {
    "partition-at-a-time": lambda m, meta: PartitionAtATimeExecutor(m, meta),
    "scan": lambda m, meta: ScanExecutor(m, meta),
    "jigsaw-l": lambda m, meta: ThreadedPartitionEngine(m, meta, n_threads=2),
    "jigsaw-s": lambda m, meta: ThreadedPartitionEngine(
        m, meta, n_threads=2, strategy="shared"
    ),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_a_lost_selection_partition_opens_one_degrade_span(
    small_table, query, engine
):
    """Partition 0 stores only the predicate attribute, and partition 1
    holds every one of its cells again.  Losing partition 0 opens exactly
    one ``exec.degrade`` span, for pid 0.  Its ``n_substitutes`` is the
    reads the rescue added to the healthy plan, less the lost one.  The
    serial engines' selection already plans every home of a predicate
    cell, so they add none.  The threaded drain re-reads partition 1 and
    adds one.  A serial read discovers the death (``discovered``).  The
    threaded drain handles a death a worker found, so its span says
    False.  Either way one degraded read, and the oracle's result."""
    n = small_table.n_tuples
    every = np.arange(n, dtype=np.int64)
    specs = [
        [SegmentSpec(("a1",), every)],
        [SegmentSpec(("a1", "a2"), every)],
        [SegmentSpec(("a3", "a4", "a5", "a6"), every)],
    ]
    make = ENGINES[engine]
    _result, healthy = make(
        make_manager(small_table, specs), small_table.meta
    ).execute(query)
    executor = make(
        make_manager(small_table, specs, overrides={"p000000.jig": KILL}),
        small_table.meta,
    )
    with obs.scoped_trace() as collector:
        result, stats = executor.execute(query)
    assert result.equals(run_reference_query(small_table, query))
    (span,) = [s for s in collector.spans() if s.name == "exec.degrade"]
    threaded = engine.startswith("jigsaw")
    assert span.attrs == {
        "pid": 0, "discovered": not threaded, "n_substitutes": int(threaded),
    }
    added = stats.n_partition_reads - (healthy.n_partition_reads - 1)
    assert span.attrs["n_substitutes"] == added
    assert stats.n_unreadable_partitions == 1 and stats.n_degraded_reads == 1
