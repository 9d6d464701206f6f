"""One catalog view per request.

Every engine pins a :class:`~repro.storage.partition_manager.CatalogSnapshot`
at its root, plans against it and reads nothing else, so

* a query in flight survives any number of swaps and prunes committed
  under it (its view keeps the retired partitions loadable);
* the pin is released on every way out of the root, an unreadable
  partition included.
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
    SegmentSpec,
    StorageDevice,
    TID_CATALOG,
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


# ------------------------------------------------------------- pin leaks


def halved_manager(small_table, kill=()):
    """p0 and p1 hold (a1, a2, a3) for one half of the tuples each; p2
    holds the rest for everyone."""
    store = FaultInjectingBlobStore(
        MemoryBlobStore(), overrides={f"p{pid:06d}.jig": KILL for pid in kill}
    )
    manager = PartitionManager(
        small_table.schema, StorageDevice(BALOS_HDD), store
    )
    everyone = np.arange(small_table.n_tuples, dtype=np.int64)
    half = len(everyone) // 2
    manager.materialize_specs(
        [
            [SegmentSpec(("a1", "a2", "a3"), everyone[:half])],
            [SegmentSpec(("a1", "a2", "a3"), everyone[half:])],
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
        manager = halved_manager(small_table)
        with no_leaked_pins():
            result, _stats = engine(manager, small_table.meta).execute(covered)
        assert result.equals(run_reference_query(small_table, covered))
        assert manager.snapshot_refcount() == 0

    @pytest.mark.parametrize("engine", ROOTS)
    def test_partition_unreadable(self, engine, small_table, covered):
        """Losing p0 fails the query: no other partition holds its cells."""
        manager = halved_manager(small_table, kill=(0,))
        with no_leaked_pins(), pytest.raises(PartitionUnreadableError) as raised:
            engine(manager, small_table.meta).execute(covered)
        assert raised.value.pid == 0
        assert manager.snapshot_refcount() == 0

    @pytest.mark.parametrize("engine", ROOTS)
    def test_invalid_query_raised_while_planning(
        self, engine, small_table, covered
    ):
        manager = halved_manager(small_table)
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
        manager = halved_manager(small_table)
        for engine in ROOTS:
            executor = engine(manager, small_table.meta)
            plan = executor.plan(covered)
            assert plan.snapshot is not None
            assert plan.catalog_version == manager.catalog_version
            executor.explain(covered)
        assert manager.snapshot_refcount() == 0

    def test_a_callers_pin_stays_the_callers(self, small_table, covered):
        manager = halved_manager(small_table)
        with manager.pin_snapshot() as view:
            for engine in ROOTS:
                engine(manager, small_table.meta).execute(covered, snapshot=view)
                assert manager.snapshot_refcount() == 1
        assert manager.snapshot_refcount() == 0
