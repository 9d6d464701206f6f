"""Hit-only selection: when the catalog proves each tuple reaches one
selection segment at most, Algorithm 5 writes a status for the hits only.

Three things are pinned here: the verdict itself (catalog metadata only,
true and false in the layouts that decide it), the form's equivalence with
the full status write on every snapshot case that takes it and on every
range-split case that reads a zone-refuted partition without evaluating
it, and the flush that keeps a degraded read exact once failing tuples were
left NOT_CHECKED — in evaluated and in zone-refuted partitions alike.
"""

import numpy as np
import pytest

from repro.core import Query, TableSchema, Workload
from repro.engine import PartitionAtATimeExecutor, ScanExecutor
from repro.layouts import BuildContext, ColumnLayout, IrregularLayout, RowLayout
from repro.storage import (
    BALOS_HDD,
    TID_EXPLICIT,
    ColumnTable,
    FaultConfig,
    FaultInjectingBlobStore,
    MemoryBlobStore,
    PartitionManager,
    PhysicalSegment,
    StorageDevice,
)
from repro.storage.physical import PhysicalPartition
from repro.testing.oracle import pruning_executors, run_reference_query
from repro.testing.snapshot import iter_snapshot_cases, stats_signature

N = 400
NAMES = ("a1", "a2", "a3", "a4")
A1 = frozenset({"a1"})


@pytest.fixture(scope="module")
def table() -> ColumnTable:
    rng = np.random.default_rng(11)
    columns = {name: rng.integers(0, 1_000, N).astype(np.int32) for name in NAMES}
    return ColumnTable.build("T", TableSchema.uniform(list(NAMES)), columns)


def tids(lo=0, hi=N):
    return np.arange(lo, hi, dtype=np.int64)


def partition(table, pid, segments):
    """``segments``: ``(attributes, tids, replica)`` triples."""
    return PhysicalPartition(pid=pid, segments=[
        PhysicalSegment(
            attributes=attrs, tuple_ids=own, columns=table.gather(attrs, own),
            tid_storage=TID_EXPLICIT, replica=replica,
        )
        for attrs, own, replica in segments
    ])


def index_of(table, groups, store=None):
    manager = PartitionManager(table.schema, StorageDevice(BALOS_HDD), store)
    manager.materialize(
        partition(table, pid, segments) for pid, segments in enumerate(groups)
    )
    return manager, manager.catalog_index()


def run_full_form(executor, query):
    """Today's path, forced with no option: any ``valid_mask`` (all True
    here, so nothing is hidden) means the verdict is never taken."""
    with executor.manager.pin_snapshot() as view:
        view.valid_mask = np.ones(executor.table.n_tuples, dtype=bool)
        return executor.execute(query, snapshot=view)


def same_result(a, b) -> bool:
    return a.equals(b) and all(
        a.columns[name].dtype == b.columns[name].dtype for name in a.columns
    )


class TestVerdict:
    def test_single_segment_irregular_partitions(self, table):
        _manager, index = index_of(table, [
            [(("a1", "a2"), tids(0, 150), False)],
            [(("a1", "a2", "a3"), tids(150, N), False)],
            [(("a3",), tids(0, 150), False)],
            [(("a4",), tids(), False)],
        ])
        assert index.visits_once(A1)
        assert index.visits_once(frozenset({"a1", "a2"}))
        assert index.visits_once(frozenset({"a4"}))

    def test_column_layout(self, table):
        layout = ColumnLayout().build(
            table, Workload(table.meta, []), BuildContext(file_segment_bytes=512)
        )
        assert layout.manager.catalog_index().visits_once(A1)
        query = Query.build(table.meta, ["a2"], {"a1": (0, 499)})
        assert layout.executor.plan(query).visits_once
        # Two predicates of a column layout live in different partitions.
        query = Query.build(table.meta, ["a2"], {"a1": (0, 499), "a3": (0, 9)})
        assert not layout.executor.plan(query).visits_once

    def test_false_with_a_replica_segment_in_a_selection_partition(self, table):
        _manager, index = index_of(table, [
            [(("a1",), tids(0, 200), False), (("a2",), tids(200, N), True)],
            [(("a1", "a2"), tids(200, N), False)],
        ])
        assert not index.visits_once(A1)

    def test_false_when_a_selection_segment_lacks_a_predicate(self, table):
        _manager, index = index_of(table, [
            [(("a1", "a2"), tids(0, 200), False), (("a3",), tids(0, 200), False)],
            [(("a1", "a2"), tids(200, N), False)],
        ])
        assert not index.visits_once(A1)
        assert not index.visits_once(frozenset({"a1", "a2"}))

    def test_false_with_overlapping_primaries(self, table):
        _manager, index = index_of(table, [
            [(("a1",), tids(0, 250), False)],
            [(("a1",), tids(150, N), False)],
        ])
        assert len(index._build_owners("a1").layers) == 2
        assert not index.visits_once(A1)

    def test_false_when_segments_of_one_partition_share_a_tuple(self, table):
        _manager, index = index_of(table, [
            [(("a1", "a2"), tids(0, 250), False), (("a1", "a3"), tids(200, N), False)],
        ])
        assert len(index._build_owners("a1").layers) == 1
        assert not index.visits_once(A1)

    def test_false_for_predicates_in_different_partitions(self, table):
        _manager, index = index_of(table, [
            [(("a1", "a2"), tids(), False)],
            [(("a3", "a4"), tids(), False)],
        ])
        assert index.visits_once(A1) and index.visits_once(frozenset({"a3"}))
        assert not index.visits_once(frozenset({"a1", "a3"}))

    def test_recomputed_on_a_with_added_index(self, table):
        manager, index = index_of(table, [[(("a1", "a2"), tids(0, 200), False)]])
        assert index.visits_once(A1)
        manager.add_partition(partition(table, 1, [(("a1",), tids(200, N), False)]))
        grown = manager.catalog_index()
        assert grown is not index and grown.visits_once(A1)
        manager.add_partition(partition(table, 2, [(("a1",), tids(100, 300), False)]))
        overlapped = manager.catalog_index()
        assert not overlapped.visits_once(A1)
        assert index.visits_once(A1) and grown.visits_once(A1)  # frozen views

    def test_not_computed_under_a_valid_mask(self, table):
        manager, index = index_of(table, [[(("a1", "a2"), tids(), False)]])
        executor = PartitionAtATimeExecutor(manager, table.meta)
        query = Query.build(table.meta, ["a2"], {"a1": (0, 499)})
        result, _stats = run_full_form(executor, query)
        assert result.equals(run_reference_query(table, query))
        assert index._visits_once == {}
        assert executor.plan(query).visits_once
        assert index._visits_once == {A1: True}


def test_snapshot_cases_equal_the_full_form():
    """Every snapshot case that takes the hit-only form, run again in a
    second sweep under an all-True ``valid_mask``: byte-equal result,
    identical accounting.  (Two sweeps, because cases share each layout's
    buffer pool: a rerun in the same sweep would find it warmer.)"""
    hit_only, first = [], []
    for case in iter_snapshot_cases():
        hit_only.append(case.executor.plan(case.query).visits_once)
        first.append(case.executor.execute(case.query))
    taken = set()
    for case, forced, (result, stats) in zip(
        iter_snapshot_cases(), hit_only, first
    ):
        if not forced:
            case.executor.execute(case.query)
            continue
        taken.add(type(case.executor))
        full, full_stats = run_full_form(case.executor, case.query)
        assert same_result(result, full), case.label
        assert stats_signature(stats) == stats_signature(full_stats), case.label
    assert taken == {PartitionAtATimeExecutor, ScanExecutor}


def range_split_cases(seed):
    """``(table, executor, query)`` over layouts whose ``a1`` partitions
    have disjoint zones: ``a1`` grows with the tid, so the Row layout's
    tid-ordered files and the irregular layout's splits range-split it, and
    narrow ``a1`` ranges refute all but a few of them.  (No snapshot case reads a
    zone-refuted partition: its random ranges are wide.)"""
    rng = np.random.default_rng(seed)
    columns = {name: rng.integers(0, 1_000, 3 * N).astype(np.int32) for name in NAMES}
    columns["a1"].sort()
    table = ColumnTable.build("T", TableSchema.uniform(list(NAMES)), columns)

    def narrow():
        lo = int(rng.integers(0, 950))
        return lo, lo + int(rng.integers(0, 50))

    queries = [Query.build(table.meta, ["a2", "a3"], {"a1": narrow()}) for _ in range(6)]
    queries += [
        Query.build(table.meta, ["a4"], {"a1": narrow(), "a2": (0, 499)})
        for _ in range(2)
    ]
    ctx = BuildContext(file_segment_bytes=512, schism_sample_size=100)
    for make in (RowLayout, lambda: IrregularLayout(selection_enabled=False)):
        layout = make().build(table, Workload(table.meta, queries[:3]), ctx)
        for executor in (layout.executor, *pruning_executors(layout)):
            for query in queries:
                yield table, executor, query


def test_zone_refuted_cases_equal_the_full_form():
    """Every range-split case that reads a zone-refuted partition, run
    again on a second build under an all-True ``valid_mask``: byte-equal
    result, identical accounting, the oracle's rows."""
    first = [
        (executor.plan(query), executor.execute(query))
        for _table, executor, query in range_split_cases(0)
    ]
    taken = set()
    for (table, executor, query), (plan, (result, stats)) in zip(
        range_split_cases(0), first
    ):
        if not (plan.visits_once and plan.zone_refuted):
            continue
        taken.add(type(executor))
        full, full_stats = run_full_form(executor, query)
        assert same_result(result, full)
        assert stats_signature(stats) == stats_signature(full_stats)
        assert same_result(result, run_reference_query(table, query))
    assert taken == {PartitionAtATimeExecutor, ScanExecutor}


KILL = FaultConfig(transient_error_rate=1.0)


@pytest.mark.parametrize(
    "engine",
    [PartitionAtATimeExecutor, lambda m, meta: ScanExecutor(m, meta, zone_maps=False)],
    ids=["pat", "scan"],
)
def test_substitute_read_after_hit_only_segments_is_exact(table, engine):
    """a1's primary homes are partitions 0 and 1 (the verdict holds); its
    only other copy is a replica in partition 2, which also holds a2 — no
    predicate — for every tuple.  Partition 1 dies after partition 0 was
    selected hit-only, so partition 2 is read as its substitute and reaches
    partition 0's failed tuples again: without the flush they are
    NOT_CHECKED, pass vacuously there and join the result."""

    def build():
        store = FaultInjectingBlobStore(
            MemoryBlobStore(), overrides={"p000001.jig": KILL}
        )
        manager = PartitionManager(table.schema, StorageDevice(BALOS_HDD), store)
        manager.materialize([
            partition(table, 0, [(("a1",), tids(0, 200), False)]),
            partition(table, 1, [(("a1",), tids(200, N), False)]),
            partition(table, 2, [
                (("a2",), tids(), False), (("a1",), tids(200, N), True),
            ]),
        ])
        return engine(manager, table.meta)

    query = Query.build(table.meta, ["a2"], {"a1": (0, 499)})
    executor = build()
    assert executor.plan(query).visits_once
    result, stats = executor.execute(query)
    assert stats.n_unreadable_partitions == 1 and stats.n_degraded_reads == 1
    assert same_result(result, run_reference_query(table, query))
    full, full_stats = run_full_form(build(), query)
    assert same_result(result, full)
    assert stats_signature(stats) == stats_signature(full_stats)


@pytest.mark.parametrize(
    "engine",
    [PartitionAtATimeExecutor, lambda m, meta: ScanExecutor(m, meta, zone_maps=False)],
    ids=["pat", "scan"],
)
def test_substitute_read_after_a_zone_refuted_partition_is_exact(table, engine):
    """As above, with ``a1`` range-split: partition 0 holds the tuples
    whose ``a1`` is 500 or more, so the query's range refutes its zone and
    it is read but not evaluated; partition 1 (the rest) dies, and
    partition 2 is read as its substitute and reaches partition 0's tuples
    again through ``a2``.  Unless partition 0's segments were registered
    for the flush, those tuples are NOT_CHECKED there, pass vacuously and
    join the result."""
    a1 = table.column("a1")
    high, low = np.flatnonzero(a1 >= 500), np.flatnonzero(a1 < 500)

    def build():
        store = FaultInjectingBlobStore(
            MemoryBlobStore(), overrides={"p000001.jig": KILL}
        )
        manager = PartitionManager(table.schema, StorageDevice(BALOS_HDD), store)
        manager.materialize([
            partition(table, 0, [(("a1",), high, False)]),
            partition(table, 1, [(("a1",), low, False)]),
            partition(table, 2, [(("a2",), tids(), False), (("a1",), low, True)]),
        ])
        return engine(manager, table.meta)

    query = Query.build(table.meta, ["a2"], {"a1": (0, 499)})
    executor = build()
    plan = executor.plan(query)
    assert plan.visits_once and plan.zone_refuted == {0}
    result, stats = executor.execute(query)
    assert stats.n_unreadable_partitions == 1 and stats.n_degraded_reads == 1
    assert same_result(result, run_reference_query(table, query))
    full, full_stats = run_full_form(build(), query)
    assert same_result(result, full)
    assert stats_signature(stats) == stats_signature(full_stats)
