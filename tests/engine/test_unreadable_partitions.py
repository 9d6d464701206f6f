"""An unreadable partition fails the query.

The contract under test: a partition that stays unreadable after every
retry raises :class:`PartitionUnreadableError` carrying its ``pid`` out of
``execute``, on every engine — nothing is read in its place and no partial
answer is returned.  The pin the query took is released, and the failed pid
is in neither the buffer pool nor its schema-group image.  No other
partition can stand in: a cell has one home, and a layout that would give
it a second is refused when it is materialized.  Primaries whose attribute
sets overlap, each cell still in one of them, are read exactly while
healthy.
"""

import numpy as np
import pytest

from repro.core import Query, TableSchema, Workload
from repro.engine import PartitionAtATimeExecutor, ScanExecutor
from repro.engine.parallel import ThreadedPartitionEngine
from repro.errors import PartitionUnreadableError, StorageError
from repro.layouts import BuildContext, ColumnLayout, IrregularLayout
from repro.storage import (
    BALOS_HDD,
    ColumnTable,
    DeviceProfile,
    FaultConfig,
    PartitionManager,
    SegmentSpec,
    StorageDevice,
    TID_CATALOG,
)
from repro.testing.oracle import inject_faults, no_leaked_pins, run_reference_query

KILL = FaultConfig(transient_error_rate=1.0)
N = 1_200
NAMES = ("a1", "a2", "a3", "a4")

#: every driver, zone pruning off: a zone-refuted partition is read.
ENGINES = {
    "partition-at-a-time": lambda m, meta: PartitionAtATimeExecutor(m, meta),
    "scan": lambda m, meta: ScanExecutor(m, meta, zone_maps=False),
    "jigsaw-l": lambda m, meta: ThreadedPartitionEngine(m, meta, n_threads=2),
    "jigsaw-s": lambda m, meta: ThreadedPartitionEngine(
        m, meta, n_threads=2, strategy="shared"
    ),
}
#: built-in layouts: irregular (a1 range-split into four partitions, a2 and
#: (a3, a4) projection-only) and one partition per column.
LAYOUTS = {
    "irregular": lambda: IrregularLayout(selection_enabled=False),
    "column": ColumnLayout,
}


@pytest.fixture(scope="module")
def table() -> ColumnTable:
    """``a1`` grows with the tid, so tid-ordered files range-split it."""
    rng = np.random.default_rng(11)
    columns = {name: rng.integers(0, 1_000, N).astype(np.int32) for name in NAMES}
    columns["a1"].sort()
    return ColumnTable.build("T", TableSchema.uniform(list(NAMES)), columns)


def build(table, layout):
    meta = table.meta
    train = Workload(meta, [
        Query.build(meta, ["a2"], {"a1": (0, 499)}),
        Query.build(meta, ["a4"], {"a3": (0, 499)}),
    ])
    ctx = BuildContext(
        device_profile=DeviceProfile.from_throughput("hdd", 75.0, 0.000001),
        file_segment_bytes=512, buffer_pool_bytes=1 << 20,
    )
    return LAYOUTS[layout]().build(table, train, ctx)


def lost_pid(case, plan, read):
    """The partition a case loses, from the plan and the pids a healthy
    execution read."""
    selection = plan.selection_pids()
    if case == "selection":
        return next(pid for pid in selection if pid not in plan.zone_refuted)
    if case == "projection":
        return next(pid for pid in read if pid not in selection)
    assert plan.visits_once
    return min(plan.zone_refuted)


#: ``(layout, case)``.  A column is one partition whose zone spans the
#: table's range, so no query zone-refutes it: only the irregular layout
#: has a zone-refuted selection partition to lose.
CASES = [
    ("irregular", "selection"), ("irregular", "projection"),
    ("irregular", "refuted"), ("column", "selection"), ("column", "projection"),
]


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("layout, case", CASES)
def test_a_lost_partition_fails_the_query(table, layout, engine, case):
    built = build(table, layout)
    manager, pool = built.manager, built.manager.buffer_pool
    executor = ENGINES[engine](manager, table.meta)
    query = Query.build(table.meta, ["a2", "a4"], {"a1": (100, 149)})
    read = []
    load = manager.load

    def recording(pid, chunk_size=None):
        read.append(pid)
        return load(pid, chunk_size=chunk_size)

    manager.load = recording
    healthy, _stats = executor.execute(query)
    del manager.load
    assert healthy.equals(run_reference_query(table, query))
    lost = lost_pid(case, executor.plan(query), read)
    assert lost in read

    pool.clear()
    inject_faults(built, overrides={manager.info(lost).key: KILL})
    with no_leaked_pins(), pytest.raises(PartitionUnreadableError) as raised:
        executor.execute(query)
    assert raised.value.pid == lost
    assert manager.snapshot_refcount() == 0
    assert lost not in pool and lost not in pool.image.pids()


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_overlapping_primaries_read_exactly_while_healthy(table, engine):
    """Primaries whose attributes overlap — a1, a2, a3 and a4 each live in
    two partitions, one per half of the table, beside different
    co-attributes — give each cell one home; every engine returns the
    oracle's rows."""
    low, high = np.arange(N // 2), np.arange(N // 2, N)
    manager = PartitionManager(table.schema, StorageDevice(BALOS_HDD))
    manager.materialize_specs([
        [SegmentSpec(("a1", "a2"), low)],
        [SegmentSpec(("a1",), high)],
        [SegmentSpec(("a2", "a3"), high)],
        [SegmentSpec(("a3", "a4"), low)],
        [SegmentSpec(("a4",), high)],
    ], table, tid_storage=TID_CATALOG)
    index = manager.catalog_index()
    assert [index.owners(name).pids for name in NAMES] == [
        (0, 1), (0, 2), (2, 3), (3, 4),
    ]
    for where in ({"a1": (0, 299)}, {"a1": (200, 999)}, {"a3": (0, 499)}):
        query = Query.build(table.meta, ["a2", "a3", "a4"], where)
        result, stats = ENGINES[engine](manager, table.meta).execute(query)
        assert result.equals(run_reference_query(table, query))
        assert stats.n_retries == 0


def test_overlapping_primaries_are_refused_at_materialize(table):
    """a2 and a3 would each have a second home for part of the table: the
    commit is refused, naming the partition and the attribute, and leaves
    no catalog version, no partition and no stored file behind."""
    every, low, high = np.arange(N), np.arange(N // 2), np.arange(N // 3, N)
    manager = PartitionManager(table.schema, StorageDevice(BALOS_HDD))
    with pytest.raises(StorageError, match="partition 1 .*'a2'"):
        manager.materialize_specs([
            [SegmentSpec(("a1", "a2"), every)],
            [SegmentSpec(("a2",), low)],
            [SegmentSpec(("a3", "a4"), every)],
            [SegmentSpec(("a3",), high)],
        ], table, tid_storage=TID_CATALOG)
    assert manager.catalog_version == 0 and manager.pids() == ()
    assert list(manager.store.keys()) == []
    assert manager.next_pid() == 0
