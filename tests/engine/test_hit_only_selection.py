"""Hit-only selection: when the catalog proves each tuple reaches one
selection segment at most, Algorithm 5 writes a status for the hits only.

Three things are pinned here: the verdict itself (catalog metadata only,
true and false in the layouts that decide it), the form's equivalence with
the full status write on every snapshot case that takes it, on every
range-split case that reads a zone-refuted partition without evaluating it
and on a plan that prunes a selection partition without visiting it, and
that a lost selection partition is never degraded: each selection tuple
has one home, so nothing can stand in for it.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core import Query, TableSchema, Workload
from repro.engine import PartitionAtATimeExecutor, ScanExecutor
from repro.errors import PartitionUnreadableError
from repro.layouts import BuildContext, ColumnLayout, IrregularLayout, RowLayout
from repro.storage import (
    BALOS_HDD,
    TID_EXPLICIT,
    ColumnTable,
    FaultConfig,
    PartitionManager,
    PhysicalSegment,
    StorageDevice,
)
from repro.plan.operators import (
    STATUS_INVALID,
    STATUS_VALID,
    PlanReader,
    ProjectFillOp,
    SelectOp,
)
from repro.plan.predicates import Conjunction
from repro.storage.catalog import CatalogIndex
from repro.storage.physical import TID_IMPLICIT, PhysicalPartition
from repro.testing.oracle import inject_faults, pruning_executors, run_reference_query
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
    """``segments``: ``(attributes, tids)`` pairs."""
    return PhysicalPartition(pid=pid, segments=[
        PhysicalSegment(
            attributes=attrs, tuple_ids=own, columns=table.gather(attrs, own),
            tid_storage=TID_EXPLICIT,
        )
        for attrs, own in segments
    ])


def index_of(table, groups):
    manager = PartitionManager(table.schema, StorageDevice(BALOS_HDD))
    manager.materialize(
        partition(table, pid, segments) for pid, segments in enumerate(groups)
    )
    return manager, manager.catalog_index()


def full_form():
    """The full status write, forced with no option: the catalog never
    grants the visit-once verdict while this is entered."""
    return mock.patch.object(CatalogIndex, "visits_once", lambda self, attributes: False)


def run_full_form(executor, query):
    with full_form():
        return executor.execute(query)


def same_result(a, b) -> bool:
    return a.equals(b) and all(
        a.columns[name].dtype == b.columns[name].dtype for name in a.columns
    )


class TestVerdict:
    def test_single_segment_irregular_partitions(self, table):
        _manager, index = index_of(table, [
            [(("a1", "a2"), tids(0, 150))],
            [(("a1", "a2", "a3"), tids(150, N))],
            [(("a3",), tids(0, 150))],
            [(("a4",), tids())],
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

    def test_false_when_a_selection_segment_lacks_a_predicate(self, table):
        _manager, index = index_of(table, [
            [(("a1", "a2"), tids(0, 200)), (("a3",), tids(0, 200))],
            [(("a1", "a2"), tids(200, N))],
        ])
        assert not index.visits_once(A1)
        assert not index.visits_once(frozenset({"a1", "a2"}))

    def test_false_with_overlapping_primaries(self, table):
        _manager, index = index_of(table, [
            [(("a1",), tids(0, 250))],
            [(("a1",), tids(150, N))],
        ])
        assert len(index._build_owners("a1").layers) == 2
        assert not index.visits_once(A1)

    def test_false_when_segments_of_one_partition_share_a_tuple(self, table):
        _manager, index = index_of(table, [
            [(("a1", "a2"), tids(0, 250)), (("a1", "a3"), tids(200, N))],
        ])
        assert len(index._build_owners("a1").layers) == 1
        assert not index.visits_once(A1)

    def test_false_for_predicates_in_different_partitions(self, table):
        _manager, index = index_of(table, [
            [(("a1", "a2"), tids())],
            [(("a3", "a4"), tids())],
        ])
        assert index.visits_once(A1) and index.visits_once(frozenset({"a3"}))
        assert not index.visits_once(frozenset({"a1", "a3"}))

    def test_recomputed_on_a_with_added_index(self, table):
        manager, index = index_of(table, [[(("a1", "a2"), tids(0, 200))]])
        assert index.visits_once(A1)
        manager.add_partition(partition(table, 1, [(("a1",), tids(200, N))]))
        grown = manager.catalog_index()
        assert grown is not index and grown._visits_once == {A1: True}  # carried
        assert grown.visits_once(A1)
        manager.add_partition(partition(table, 2, [(("a1",), tids(100, 300))]))
        overlapped = manager.catalog_index()
        assert overlapped._visits_once == {A1: False}  # a second owner layer
        assert not overlapped.visits_once(A1)
        assert index.visits_once(A1) and grown.visits_once(A1)  # frozen views

    @pytest.mark.parametrize("segments, attributes", [
        ([(("a1",), tids(200, N))], frozenset({"a1", "a2"})),
        ([(("a1", "a2"), tids(200, 300)), (("a3",), tids(300, N))], A1),
    ], ids=["lacks-a-predicate", "segment-without-it"])
    def test_carried_false_when_an_added_partition_fails(self, table, segments, attributes):
        """Each added partition that turns the verdict False, carried as a
        fresh index computes it, with the zone arrays extended to match."""
        manager, index = index_of(table, [[(("a1", "a2"), tids(0, 200))]])
        assert index.visits_once(attributes)
        index.zones("a1")
        manager.add_partition(partition(table, 1, segments))
        grown = manager.catalog_index()
        fresh = CatalogIndex(grown.infos())
        assert grown._visits_once == {attributes: False}
        assert not fresh.visits_once(attributes)
        for carried, built in zip(grown._zones["a1"], fresh.zones("a1")):
            assert np.array_equal(carried, built)

    def test_left_to_a_fresh_computation_without_a_carried_owner_map(self, table):
        """A verdict over attributes nothing stored is vacuously True and
        built no owner map, so the next index cannot check the new
        partitions' layers: it computes the verdict afresh."""
        manager, index = index_of(table, [[(("a3",), tids())]])
        assert index.visits_once(A1)
        manager.add_partition(partition(table, 1, [(("a1",), tids(0, 250))]))
        assert manager.catalog_index()._visits_once == {}
        assert manager.catalog_index().visits_once(A1)
        manager.add_partition(partition(table, 2, [(("a1",), tids(150, N))]))
        assert not manager.catalog_index().visits_once(A1)

    def test_taken_under_a_hiding_view(self, table):
        """A view that hides tids (a write-path version) takes the verdict
        too, and a hidden tuple is never VALID: not in an explicit-tid
        segment, not in a run (whose one-slice status write would clear
        the INVALID mark), not in the result."""
        manager, _index = index_of(table, [[(("a1", "a2"), tids())]])
        executor = PartitionAtATimeExecutor(manager, table.meta)
        query = Query.build(table.meta, ["a2"], {"a1": (0, 499)})
        hidden = tids()[::3]
        with manager.pin_snapshot() as view:
            view.hidden = hidden
            assert executor.planner.plan(query, snapshot=view).visits_once
            result, stats = executor.execute(query, snapshot=view)
        expected = run_reference_query(table, query)
        keep = ~np.isin(expected.tuple_ids, hidden)
        assert np.array_equal(result.tuple_ids, expected.tuple_ids[keep])
        assert stats.hash_inserts == len(result.tuple_ids)

        half = N // 2
        runs = PhysicalPartition(pid=1, segments=[PhysicalSegment(
            attributes=("a1", "a2"), tuple_ids=tids(half, N),
            columns=table.gather(("a1", "a2"), tids(half, N)),
            tid_storage=TID_IMPLICIT,
        )])
        op = SelectOp(
            Conjunction.from_query(query), ("a2",), N, hidden=hidden, hit_only=True
        )
        inserts = sum(
            op.select(part)[0]
            for part in (partition(table, 0, [(("a1", "a2"), tids(0, half))]), runs)
        )
        assert (op.status[hidden] == STATUS_INVALID).all()
        valid = ProjectFillOp(("a2",), op, table.schema).valid
        assert np.array_equal(valid, np.flatnonzero(op.status == STATUS_VALID))
        assert np.array_equal(valid, expected.tuple_ids[keep])
        assert inserts == len(valid)


def test_snapshot_cases_equal_the_full_form():
    """Every snapshot case that takes the hit-only form, run again in a
    second sweep with the verdict withheld: byte-equal result,
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
    again on a second build with the verdict withheld: byte-equal
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
    "make", [lambda: IrregularLayout(selection_enabled=False), ColumnLayout],
    ids=["irregular", "column"],
)
def test_a_lost_selection_partition_is_never_degraded(table, make):
    """Under the hit-only form every selection tuple has one home, so no
    other partition can stand in for a selection partition that exhausts
    its retries: the query raises, and no substitute is read."""
    query = Query.build(table.meta, ["a2"], {"a1": (0, 499)})
    layout = make().build(
        table, Workload(table.meta, [query]), BuildContext(file_segment_bytes=512)
    )
    plan = layout.executor.plan(query)
    assert plan.visits_once
    lost = layout.manager.info(plan.selection_pids()[0]).key
    inject_faults(layout, overrides={lost: KILL})
    readers = []
    init = PlanReader.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        readers.append(self)

    with mock.patch.object(PlanReader, "__init__", recording):
        with pytest.raises(PartitionUnreadableError):
            layout.executor.execute(query)
    (reader,) = readers
    assert reader.stats.n_unreadable_partitions == 1
    assert reader.stats.n_degraded_reads == 0 and not reader.fctx.degraded


PRUNING = [
    lambda m, meta: PartitionAtATimeExecutor(m, meta, zone_maps=True),
    lambda m, meta: ScanExecutor(m, meta, zone_maps=True),
]


def range_split_build(table, engine):
    """Partition 0 holds the tuples whose ``a1`` is 500 or more, partition
    1 the rest; partition 2 stores ``a2`` of every tuple."""
    a1 = table.column("a1")
    high, low = np.flatnonzero(a1 >= 500), np.flatnonzero(a1 < 500)
    manager = PartitionManager(table.schema, StorageDevice(BALOS_HDD))
    manager.materialize([
        partition(table, 0, [(("a1",), high)]),
        partition(table, 1, [(("a1",), low)]),
        partition(table, 2, [(("a2",), tids())]),
    ])
    return engine(manager, table.meta)


@pytest.mark.parametrize("engine", PRUNING, ids=["pat", "scan"])
def test_a_hit_only_prune_is_counted_not_invalidated(table, engine):
    """Partition 0's zone refutes the query, so the plan prunes it.  Under
    the hit-only form it never enters the selection loop: it is counted at
    once and its tuples are left NOT_CHECKED, with the full form's
    accounting."""
    query = Query.build(table.meta, ["a2"], {"a1": (0, 499)})
    executor = range_split_build(table, engine)
    plan = executor.plan(query)
    assert plan.visits_once and plan.verdict.pruned == {0}
    with mock.patch.object(
        SelectOp, "invalidate", autospec=True, side_effect=SelectOp.invalidate
    ) as invalidate:
        result, stats = executor.execute(query)
    assert invalidate.call_count == 0
    assert same_result(result, run_reference_query(table, query))
    full, full_stats = run_full_form(range_split_build(table, engine), query)
    assert same_result(result, full)
    assert stats.n_partitions_pruned == full_stats.n_partitions_pruned == 1
    assert (stats.hash_inserts, stats.hash_updates) == (
        full_stats.hash_inserts, full_stats.hash_updates
    )
    assert stats_signature(stats) == stats_signature(full_stats)
