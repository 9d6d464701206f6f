"""One catalog view per request.

Every engine pins a :class:`~repro.storage.partition_manager.CatalogSnapshot`
at its root, plans against it and reads nothing else, so

* a query in flight survives any number of swaps and prunes committed
  under it (its view keeps the retired partitions loadable);
* a degraded read picks its substitutes from the version it reads — an
  overlapping holder a later swap retired still serves an ``AS OF`` read;
* the pin is released on every way out of the root.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Query
from repro.engine import PartitionAtATimeExecutor, ScanExecutor
from repro.engine.parallel import ThreadedPartitionEngine
from repro.errors import InvalidQueryError, PartitionUnreadableError
from repro.layouts import BuildContext, ColumnLayout, IrregularLayout
from repro.storage import (
    BALOS_HDD,
    FaultConfig,
    FaultInjectingBlobStore,
    MemoryBlobStore,
    PartitionManager,
    PhysicalPartition,
    PhysicalSegment,
    SegmentSpec,
    StorageDevice,
    TID_CATALOG,
    build_physical_partition,
)
from repro.testing import (
    no_leaked_pins,
    random_table,
    random_workload,
    run_reference_query,
)

CTX = BuildContext(file_segment_bytes=1024, schism_sample_size=100)
KILL = FaultConfig(transient_error_rate=1.0)


def move_to_fresh_pid(manager: PartitionManager, pid: int) -> None:
    """Rewrite ``pid`` under a fresh pid and prune, as a daemon cycle does."""
    partition, _delta = manager.load(pid)
    manager.swap_partitions(
        [PhysicalPartition(manager.next_pid(), partition.segments)],
        remove=[pid],
    )
    manager.prune_retired()


def churn_once(planner):
    """An observer that, the first time a plan is emitted, moves the plan's
    first selection partition and one more to fresh pids — two swaps, each
    followed by a prune, committed while the query is in flight."""
    moved = []

    def observer(query, plan):
        planner.observer = None
        pids = dict.fromkeys(plan.selection_pids() + plan.projection_pids())
        first, *_rest, last = pids
        for pid in (first, last):
            move_to_fresh_pid(planner.manager, pid)
            moved.append(pid)

    planner.observer = observer
    return moved


@pytest.fixture()
def table():
    return random_table(np.random.default_rng(5), n_attrs=5, n_tuples=800)


@pytest.fixture()
def query(table):
    names = table.schema.attribute_names
    return Query.build(
        table.meta, [names[1], names[3]], {names[0]: (100, 700)}, label="hot"
    )


def build(builder, table):
    workload = random_workload(np.random.default_rng(6), table, n_queries=5)
    return builder.build(table, workload, CTX)


ENGINES = {
    "partition-at-a-time": lambda table: (
        build(IrregularLayout(selection_enabled=False), table).executor
    ),
    "scan": lambda table: build(ColumnLayout(), table).executor,
    "threaded": lambda table: ThreadedPartitionEngine(
        build(IrregularLayout(selection_enabled=False), table).manager,
        table.meta, n_threads=2,
    ),
}


class TestInFlightQuerySurvivesSwapsAndPrunes:
    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_oracle_result_under_two_swaps_and_prunes(self, name, table, query):
        executor = ENGINES[name](table)
        planner = executor.planner
        version = executor.manager.catalog_version
        moved = churn_once(planner)
        result, _stats = executor.execute(query)
        assert len(moved) == 2 and len(set(moved)) == 2
        assert executor.manager.catalog_version == version + 2
        assert result.equals(run_reference_query(table, query))
        # The pin is gone with the query: now the prune takes the retirees,
        # and the next query reads the moved partitions.
        assert executor.manager.prune_retired() == 2
        again, _stats = executor.execute(query)
        assert again.equals(run_reference_query(table, query))


# --------------------------------------------------------- degraded AS OF


def overlapping_holder_manager(small_table):
    """p0 holds a1 alone; p1 holds a2, a3 and, in a second segment, a1
    again."""
    store = FaultInjectingBlobStore(MemoryBlobStore())
    manager = PartitionManager(
        small_table.schema, StorageDevice(BALOS_HDD), store
    )
    everyone = np.arange(small_table.n_tuples, dtype=np.int64)
    primary, holder = (
        build_physical_partition(pid, [SegmentSpec(attrs, everyone)],
                                 small_table, TID_CATALOG)
        for pid, attrs in enumerate([("a1",), ("a2", "a3")])
    )
    holder.segments.append(PhysicalSegment(
        attributes=("a1",),
        tuple_ids=everyone,
        columns={"a1": small_table.column("a1")},
        tid_storage=TID_CATALOG,
    ))
    manager.materialize([primary, holder])
    return manager, store


class TestDegradedReadSubstitutesFromItsOwnVersion:
    def test_retired_overlapping_holder_serves_the_pinned_read(self, small_table):
        manager, store = overlapping_holder_manager(small_table)
        executor = PartitionAtATimeExecutor(manager, small_table.meta)
        query = Query.build(small_table.meta, ["a2"], {"a1": (0, 4999)})
        expected = run_reference_query(small_table, query)
        with manager.pin_snapshot() as v0:
            # A later swap drops the overlap: p1's cells move to a fresh pid
            # without the a1 copy.
            holder, _delta = manager.load(1)
            manager.swap_partitions(
                [PhysicalPartition(
                    manager.next_pid(),
                    [s for s in holder.segments if "a1" not in s.attributes],
                )],
                remove=[1],
            )
            store.overrides[manager.info(0).key] = KILL
            # At v0 the retired holder is still part of the catalog: the
            # read degrades onto its copy and is exact.
            result, stats = executor.execute(query, snapshot=v0)
            assert result.equals(expected)
            assert stats.n_unreadable_partitions == 1
            assert stats.n_degraded_reads >= 1
            # The live version has no copy of a1 left.
            with pytest.raises(PartitionUnreadableError):
                executor.execute(query)

    def test_pinned_read_never_enlists_a_later_partition(self, small_table):
        """The mirror image: a copy committed after the pin is not part of
        the pinned version, so the pinned read has no substitute."""
        store = FaultInjectingBlobStore(MemoryBlobStore())
        manager = PartitionManager(
            small_table.schema, StorageDevice(BALOS_HDD), store
        )
        everyone = np.arange(small_table.n_tuples, dtype=np.int64)
        manager.materialize_specs(
            [
                [SegmentSpec(("a1",), everyone)],
                [SegmentSpec(("a2", "a3"), everyone)],
            ],
            small_table,
            tid_storage=TID_CATALOG,
        )
        executor = PartitionAtATimeExecutor(manager, small_table.meta)
        query = Query.build(small_table.meta, ["a2"], {"a1": (0, 4999)})
        with manager.pin_snapshot() as v0:
            primary, _delta = manager.load(0)
            manager.swap_partitions(
                [PhysicalPartition(manager.next_pid(), primary.segments)]
            )
            store.overrides[manager.info(0).key] = KILL
            with pytest.raises(PartitionUnreadableError):
                executor.execute(query, snapshot=v0)
            # Live, the overlapping copy rescues the read.
            result, stats = executor.execute(query)
            assert result.equals(run_reference_query(small_table, query))
            assert stats.n_degraded_reads >= 1


# ------------------------------------------------------------- pin leaks


def overlapping_manager(small_table, kill=()):
    """p0 and p1 both hold (a1, a2, a3) for everyone; p2 holds the rest."""
    store = FaultInjectingBlobStore(
        MemoryBlobStore(), overrides={f"p{pid:06d}.jig": KILL for pid in kill}
    )
    manager = PartitionManager(
        small_table.schema, StorageDevice(BALOS_HDD), store
    )
    everyone = np.arange(small_table.n_tuples, dtype=np.int64)
    manager.materialize_specs(
        [
            [SegmentSpec(("a1", "a2", "a3"), everyone)],
            [SegmentSpec(("a1", "a2", "a3"), everyone)],
            [SegmentSpec(("a4", "a5", "a6"), everyone)],
        ],
        small_table,
        tid_storage=TID_CATALOG,
    )
    return manager


ROOTS = [
    PartitionAtATimeExecutor,
    ScanExecutor,
    ThreadedPartitionEngine,
]


class TestRootPinIsReleasedOnEveryExit:
    @pytest.fixture()
    def covered(self, small_table):
        return Query.build(small_table.meta, ["a2", "a3"], {"a1": (0, 4999)})

    @pytest.mark.parametrize("engine", ROOTS)
    def test_success(self, engine, small_table, covered):
        manager = overlapping_manager(small_table)
        with no_leaked_pins():
            result, _stats = engine(manager, small_table.meta).execute(covered)
        assert result.equals(run_reference_query(small_table, covered))
        assert manager.snapshot_refcount() == 0

    @pytest.mark.parametrize("engine", ROOTS)
    def test_partition_unreadable(self, engine, small_table, covered):
        manager = overlapping_manager(small_table, kill=(0, 1))
        with no_leaked_pins(), pytest.raises(PartitionUnreadableError):
            engine(manager, small_table.meta).execute(covered)
        assert manager.snapshot_refcount() == 0

    @pytest.mark.parametrize("engine", ROOTS)
    def test_invalid_query_raised_while_planning(
        self, engine, small_table, covered
    ):
        manager = overlapping_manager(small_table)
        executor = engine(manager, small_table.meta)

        def reject(query, plan):
            raise InvalidQueryError("rejected at plan time")

        executor.planner.observer = reject
        query = Query.build(
            small_table.meta, ["a2"], {"a1": (0, 4999), "a4": (0, 4999)}
        )
        with no_leaked_pins(), pytest.raises(InvalidQueryError):
            executor.execute(query)
        assert manager.snapshot_refcount() == 0

    def test_plan_only_callers_hold_no_pin(self, small_table, covered):
        manager = overlapping_manager(small_table)
        for engine in ROOTS:
            executor = engine(manager, small_table.meta)
            plan = executor.plan(covered)
            assert plan.snapshot is not None
            assert plan.catalog_version == manager.catalog_version
            executor.explain(covered)
        assert manager.snapshot_refcount() == 0

    def test_a_callers_pin_stays_the_callers(self, small_table, covered):
        manager = overlapping_manager(small_table)
        with manager.pin_snapshot() as view:
            for engine in ROOTS:
                engine(manager, small_table.meta).execute(covered, snapshot=view)
                assert manager.snapshot_refcount() == 1
        assert manager.snapshot_refcount() == 0
