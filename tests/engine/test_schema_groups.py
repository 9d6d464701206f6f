"""The partition-at-a-time engine's schema-group form against the oracle.

The engine reads partition by partition, then evaluates over the
schema-group image (:mod:`repro.storage.image`): the pool's, or a private
one built over what the query loaded.  Every configuration below must
answer oracle-exactly, and no counter may depend on which image answered:

* a warm pool: every pid of the query is imaged before it runs;
* a 4 KiB pool that evicts while the query runs, so the query's slots die
  under it and it evaluates on a private image;
* no pool: a private image per query;
* a fault-injecting store that makes an imaged pid unreadable once the pool
  dropped it: the image must not serve it, and the query fails;
* a block of the grouped selection that bridges dead rows and a live slot
  the query's view does not hold: equal to the per-slot form, under a view
  that hides tids too.

Plans that are not visit-once (predicates split across the segments of a
partition) select partition by partition in plan order; they are run too.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core import Query, TableSchema
from repro.engine import PartitionAtATimeExecutor
from repro.errors import PartitionUnreadableError
from repro.layouts import BuildContext, IrregularLayout
from repro.plan import operators
from repro.plan.operators import GroupSelectOp
from repro.storage import (
    BALOS_HDD,
    TID_EXPLICIT,
    BufferPool,
    ColumnTable,
    FaultConfig,
    FaultInjectingBlobStore,
    MemoryBlobStore,
    PartitionManager,
    PhysicalSegment,
    StorageDevice,
)
from repro.storage.physical import PhysicalPartition
from repro.testing.oracle import (
    random_query,
    random_table,
    random_workload,
    run_reference_query,
)
from repro.testing.snapshot import stats_signature

#: pool bytes per configuration (0: no pool).
POOLS = {"warm": 64 << 20, "evicting": 4 << 10, "none": 0}
#: the counters a warm repeat shares with a cold read (it charges no I/O).
EVENTS = (
    "n_partition_reads", "n_partitions_skipped", "n_partitions_pruned",
    "cells_scanned", "hash_inserts", "hash_updates", "n_result_tuples",
    "cpu_time_s",
)


def events(stats):
    return tuple(getattr(stats, name) for name in EVENTS)


def run_configurations(managers, meta, query, zone_maps=False):
    """``query`` on each manager: the warm one cold (its pool cleared),
    then again warm.  Returns ``{configuration: (result, stats)}``."""
    engines = {
        name: PartitionAtATimeExecutor(manager, meta, zone_maps=zone_maps)
        for name, manager in managers.items()
    }
    managers["warm"].buffer_pool.clear()
    runs = {"cold": engines["warm"].execute(query)}
    runs["warm"] = engines["warm"].execute(query)
    runs["evicting"] = engines["evicting"].execute(query)
    runs["none"] = engines["none"].execute(query)
    return runs


def assert_one_answer(runs, table, query):
    expected = run_reference_query(table, query)
    for name, (result, _stats) in runs.items():
        assert result.equals(expected), name
    # Every counter of a cold pooled read is the pool-less read's; a warm
    # repeat counts the same events, its loads pool hits.
    assert stats_signature(runs["cold"][1]) == stats_signature(runs["none"][1])
    assert events(runs["warm"][1]) == events(runs["none"][1])
    assert events(runs["evicting"][1]) == events(runs["none"][1])
    warm = runs["warm"][1]
    assert warm.bytes_read == 0 and warm.n_pool_hits == warm.n_partition_reads


def test_random_layouts_in_every_configuration():
    visit_once = evictions = 0
    private = mock.patch.object(
        GroupSelectOp, "_private", autospec=True, side_effect=GroupSelectOp._private
    )
    with private as moved:
        for seed in range(4):
            once, evicted = sweep_seed(seed)
            visit_once += once
            evictions += evicted
    assert visit_once  # the grouped selection ran
    assert evictions  # slots died under queries,
    assert moved.call_count  # which then evaluated on a private image


def sweep_seed(seed):
    """One random table in every configuration; returns ``(visit-once plans,
    evictions of the small pool)``."""
    visit_once = 0
    rng = np.random.default_rng(100 + seed)
    table = random_table(rng, n_tuples=int(rng.integers(150, 401)))
    workload = random_workload(rng, table, n_queries=5)
    queries = list(workload) + [
        random_query(rng, table, label=f"x{i}") for i in range(5)
    ]
    managers = {
        name: IrregularLayout(selection_enabled=False).build(
            table, workload, BuildContext(
                file_segment_bytes=512, schism_sample_size=100,
                buffer_pool_bytes=size,
            ),
        ).manager
        for name, size in POOLS.items()
    }
    for zone_maps in (False, True):
        for query in queries:
            runs = run_configurations(managers, table.meta, query, zone_maps)
            assert_one_answer(runs, table, query)
            engine = PartitionAtATimeExecutor(managers["none"], table.meta)
            visit_once += engine.plan(query).visits_once
    assert managers["warm"].buffer_pool.image.pids()
    return visit_once, managers["evicting"].buffer_pool.stats.n_evictions


N = 400


@pytest.fixture(scope="module")
def table():
    return random_table(np.random.default_rng(5), n_attrs=4, n_tuples=N)


def tids(lo=0, hi=N):
    return np.arange(lo, hi, dtype=np.int64)


def manager_of(table, groups, pool_bytes=0, store=None):
    """One partition per group of ``(attributes, tids)`` segments."""
    manager = PartitionManager(
        table.schema, StorageDevice(BALOS_HDD), store,
        buffer_pool=BufferPool(pool_bytes) if pool_bytes else None,
    )
    manager.materialize([
        PhysicalPartition(pid=pid, segments=[
            PhysicalSegment(
                attributes=attrs, tuple_ids=own,
                columns=table.gather(attrs, own), tid_storage=TID_EXPLICIT,
            )
            for attrs, own in group
        ])
        for pid, group in enumerate(groups)
    ])
    return manager


#: a1 and a2 sit in different segments of partitions 0 and 1, so no
#: segment evaluates the whole conjunction: not a visit-once plan.
SPLIT = [
    [(("a1", "a3"), tids(0, 200)), (("a2",), tids(0, 200))],
    [(("a1",), tids(200, N)), (("a2", "a3"), tids(200, N))],
    [(("a4",), tids())],
]


@pytest.mark.parametrize("zone_maps", [False, True], ids=["plain", "pruning"])
def test_predicates_split_across_segments(table, zone_maps):
    managers = {name: manager_of(table, SPLIT, size) for name, size in POOLS.items()}
    for bounds in [(0, 499), (100, 900), (0, 999), (990, 999)]:
        query = Query.build(
            table.meta, ["a3", "a4"], {"a1": bounds, "a2": (200, 799)}
        )
        plan = PartitionAtATimeExecutor(managers["none"], table.meta).plan(query)
        assert not plan.visits_once
        runs = run_configurations(managers, table.meta, query, zone_maps)
        assert_one_answer(runs, table, query)


def test_an_imaged_pid_made_unreadable_is_not_served(table):
    """Partitions 1 and 2 hold a3 for one half of the tuples each.  After
    a warm run every pid is imaged; then the pool drops partition 1 (as a failed
    refresh does) and the store refuses it: the query fails on partition 1
    rather than serve a cell of it from the image, which never holds
    partition 1 again."""
    specs = [
        [(("a1", "a2"), tids())],
        [(("a3",), tids(0, N // 2))],
        [(("a3",), tids(N // 2, N)), (("a4",), tids())],
    ]
    store = FaultInjectingBlobStore(MemoryBlobStore())
    manager = manager_of(table, specs, 64 << 20, store)
    engine = PartitionAtATimeExecutor(manager, table.meta)
    query = Query.build(table.meta, ["a2", "a3", "a4"], {"a1": (0, 499)})
    assert engine.execute(query)[0].equals(run_reference_query(table, query))
    image = manager.buffer_pool.image
    assert set(image.pids()) == {0, 1, 2}

    kill = {manager.info(1).key: FaultConfig(transient_error_rate=1.0)}
    store.overrides.update(kill)
    manager.buffer_pool.invalidate(1)
    assert 1 not in image.pids()
    with pytest.raises(PartitionUnreadableError) as raised:
        engine.execute(query)
    assert raised.value.pid == 1
    assert 1 not in image.pids()
    # The same faults pool-less: the same failure.
    bare = PartitionAtATimeExecutor(
        manager_of(table, specs, 0, FaultInjectingBlobStore(
            MemoryBlobStore(), overrides=kill,
        )),
        table.meta,
    )
    with pytest.raises(PartitionUnreadableError) as raised:
        bare.execute(query)
    assert raised.value.pid == 1


def gapped_table():
    """a1 ascends by tid within each quarter of 100 tuples, the second
    quarter in [500, 600) and the others in [0, 300)."""
    tid = np.arange(N)
    quarter, offset = tid // 100, tid % 100
    a1 = np.choose(quarter, [offset, 500 + offset, 100 + offset, 200 + offset])
    rng = np.random.default_rng(8)
    columns = {
        "a1": a1.astype(np.int32),
        "a2": rng.integers(0, 1000, N).astype(np.int32),
        "a3": rng.integers(0, 1000, N).astype(np.int32),
    }
    return ColumnTable.build("gapped", TableSchema.uniform(list(columns)), columns)


#: one (a1, a2) partition per quarter, a3 apart.
GAPPED = [[(("a1", "a2"), tids(100 * k, 100 * (k + 1)))] for k in range(4)] + [
    [(("a3",), tids())]
]


def gapped(table):
    """A warm pool over ``GAPPED`` whose (a1, a2) group reads, by row,
    pid 0 | pid 1 | pid 2 (dead) | pid 3: the pool has dropped pid 2."""
    manager = manager_of(table, GAPPED, 64 << 20)
    warm = Query.build(table.meta, ["a2", "a3"], {"a1": (0, 999)})
    PartitionAtATimeExecutor(manager, table.meta).execute(warm)
    manager.buffer_pool.invalidate(2)
    return manager


def recorded(owner, name):
    """Patch ``owner.name`` to record what each call returns."""
    real, returned = getattr(owner, name), []

    def recording(*args):
        returned.append(real(*args))
        return returned[-1]
    return mock.patch.object(owner, name, recording), returned


def bridged(table):
    """A warm pool whose (a1, a2) group reads, by row, pid 0 | pid 5 |
    pid 2 (dead) | pid 3, and a view pinned before pid 5 replaced pid 1.
    Read through the view, the query below evaluates pids 0, 3 and 2 (back
    in rows 400-500; pid 1 holds pid 5's tuples, so it opens a second
    layer): one block whose 200 rows between them are pid 5's (live, all
    passing, not the view's) and pid 2's dead ones.  Returns ``(manager,
    view)``; the caller releases the view."""
    manager = manager_of(table, GAPPED, 64 << 20)
    engine = PartitionAtATimeExecutor(manager, table.meta, zone_maps=True)

    def admit(lo, hi):  # zone maps prune every other (a1, a2) pid
        engine.execute(Query.build(table.meta, ["a2", "a3"], {"a1": (lo, hi)}))

    admit(0, 99)
    view = manager.pin_snapshot()
    segment = manager.load(1)[0].segments[0]
    manager.swap_partitions([PhysicalPartition(manager.next_pid(), [PhysicalSegment(
        segment.attributes, np.array(segment.tuple_ids),
        {name: np.array(segment.columns[name]) for name in segment.attributes},
        tid_storage=TID_EXPLICIT,
    )])], remove=[1])
    admit(500, 599)
    admit(100, 199)
    manager.buffer_pool.invalidate(2)
    admit(200, 299)
    return manager, view


def test_a_block_bridging_dead_rows_and_a_slot_the_query_did_not_load():
    table = gapped_table()
    query = Query.build(table.meta, ["a2", "a3"], {"a1": (0, 999)})
    hidden = np.r_[50:60, 250:260, 350:360]  # in pids 0, 2 and 3
    expected = run_reference_query(table, query)
    visible = ~np.isin(expected.tuple_ids, hidden)
    for hides in (False, True):
        answers = []
        for gap in (operators._GAP, -1):  # -1: every slot its own block
            manager, view = bridged(table)
            engine = PartitionAtATimeExecutor(manager, table.meta)
            patch, blocks = recorded(operators, "_blocks")
            try:
                if hides:
                    view.hidden = hidden
                with patch, mock.patch.object(operators, "_GAP", gap):
                    answers.append(engine.execute(query, snapshot=view))
            finally:
                view.release()
            spans = [(b[0].start, b[-1].stop, [s.pid for s in b]) for b in blocks[0]]
            if gap >= 0:
                assert (0, 500, [0, 3, 2]) in spans
            else:
                assert all(len(pids) == 1 for _start, _stop, pids in spans)
        (result, stats), (per_slot, per_slot_stats) = answers
        assert result.equals(per_slot)
        assert stats_signature(stats) == stats_signature(per_slot_stats)
        if hides:
            assert np.array_equal(result.tuple_ids, expected.tuple_ids[visible])
            for name in ("a2", "a3"):
                assert np.array_equal(result.column(name), expected.column(name)[visible])
        else:
            assert result.equals(expected)


def test_a_zone_refuted_pid_is_charged_and_refreshed_never_evaluated():
    table = gapped_table()
    manager = gapped(table)
    pool = manager.buffer_pool
    assert pool.pids() == (0, 1, 3, 4)
    hits = pool.stats.n_hits
    query = Query.build(table.meta, ["a2", "a3"], {"a1": (0, 299)})
    patch, ops = recorded(PartitionAtATimeExecutor, "_select")
    with patch:
        result, stats = PartitionAtATimeExecutor(manager, table.meta).execute(query)
    assert result.equals(run_reference_query(table, query))
    # Pids 0, 1 (refuted), 3 and 4 hit; 2 misses.
    assert (stats.n_partition_reads, stats.n_pool_hits) == (5, 4)
    assert pool.stats.n_hits == hits + 4
    assert pool.pids() == (0, 1, 2, 3, 4)  # 1 refreshed after 0
    assert ops[0].evaluated == [0, 2, 3] and 1 not in ops[0].slots
