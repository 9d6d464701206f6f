"""The buffer pool's schema-group image: what it holds and when slots die.

A pid's slots live exactly as long as the pool holds the partition: after
``BufferPool.clear()``, after a swap that retires a pid and after
``prune_retired`` the image holds no live row of a dropped pid, and every
position points into a live slot of its own pid.  Dead rows are reclaimed
once they outnumber live ones, so across fold cycles the image never holds
more than twice the bytes its live rows need.  And four threads querying
through a fold answer oracle-exactly.
"""

import threading

import numpy as np

from repro.core import Query
from repro.layouts import BuildContext, IrregularLayout
from repro.storage.image import SchemaImage
from repro.storage.physical import PhysicalPartition, PhysicalSegment
from repro.testing import (
    ShadowTable,
    WriteWorkloadConfig,
    apply_random_batch,
    random_query,
    random_table,
    random_workload,
    run_reference_query,
)
from repro.txn import DeltaCompactor, TransactionalTable

POOL = 64 << 20


def assert_consistent(pool, dropped=()):
    """Live slots are resident pids (none of ``dropped``); each position
    points into the live slot of its own tuple, and nowhere else."""
    image, resident = pool.image, set(pool.pids())
    assert not set(dropped) & set(image.pids())
    assert set(image.pids()) <= resident
    for group in image.groups():
        live = [slot for slot in group.slots if slot.live]
        assert live and group.n_live == len(live)
        if group.positions is None:  # one segment, found by binary search
            assert group.slots == live and len(live) == 1
            assert np.array_equal(group.rows(live[0].tids), np.arange(live[0].stop))
            continue
        held = np.zeros(group.n_rows, dtype=bool)
        for slot in live:
            assert slot.pid in resident and slot.pid not in dropped
            assert np.array_equal(
                group.rows(slot.tids), np.arange(slot.start, slot.stop)
            )
            held[slot.start:slot.stop] = True
        rows = group.rows(np.arange(len(group.positions)))
        rows = rows[rows >= 0]
        assert len(rows) == np.count_nonzero(held) and held[rows].all()


def build(seed=3, n_tuples=800):
    rng = np.random.default_rng(seed)
    table = random_table(rng, n_attrs=5, n_tuples=n_tuples)
    workload = random_workload(rng, table, 4)
    layout = IrregularLayout(selection_enabled=False).build(
        table, workload, BuildContext(
            file_segment_bytes=2048, schism_sample_size=100,
            buffer_pool_bytes=POOL,
        ),
    )
    queries = list(workload) + [
        random_query(rng, table, label=f"x{i}") for i in range(4)
    ]
    return table, layout, queries


def run_all(layout, table, queries):
    for query in queries:
        assert layout.execute(query)[0].equals(run_reference_query(table, query))


def full_scan(table):
    names = list(table.schema.attribute_names)
    return Query.build(table.meta, names, {})


def test_clear_drops_every_slot():
    table, layout, queries = build()
    pool = layout.manager.buffer_pool
    run_all(layout, table, queries + [full_scan(table)])
    assert set(pool.image.pids()) == set(pool.pids())
    assert pool.image_bytes > 0
    assert_consistent(pool)
    pool.clear()
    assert not pool.image.pids() and not pool.image.groups()
    assert pool.image_bytes == 0
    run_all(layout, table, queries)
    assert_consistent(pool)


def test_a_swap_and_a_prune_drop_their_pids():
    """Partition ``old`` is rewritten under a fresh pid.  The swap retires it
    (and kills its slots); an ``AS OF`` read of the version before brings
    it back beside its rewrite — the same tuples, so a second layer of
    their schema — and the prune drops it again."""
    table, layout, queries = build()
    manager, pool = layout.manager, layout.manager.buffer_pool
    run_all(layout, table, queries + [full_scan(table)])
    old = manager.pids()[0]
    partition = manager.load(old)[0]
    copy = PhysicalPartition(manager.next_pid(), [
        PhysicalSegment(
            segment.attributes, np.array(segment.tuple_ids),
            {name: np.array(segment.columns[name]) for name in segment.attributes},
        )
        for segment in partition.segments
    ])
    before = manager.pin_snapshot()
    try:
        manager.swap_partitions([copy], remove=[old])
        assert_consistent(pool, dropped=[old])
        run_all(layout, table, queries + [full_scan(table)])
        assert copy.pid in pool.image.pids()
        scan = full_scan(table)
        result, _stats = layout.executor.execute(scan, snapshot=before)
        assert result.equals(run_reference_query(table, scan))
        assert {old, copy.pid} <= set(pool.image.pids())
        layers = [
            group for group in pool.image.groups()
            if group.attributes == partition.segments[0].attributes
        ]
        assert len(layers) >= 2
        assert_consistent(pool)
    finally:
        before.release()
    assert manager.prune_retired() == 1
    assert_consistent(pool, dropped=[old])
    run_all(layout, table, queries)
    assert_consistent(pool, dropped=[old])


def transactional(seed):
    rng = np.random.default_rng(seed)
    table = random_table(rng, n_attrs=4, n_tuples=600)
    layout = IrregularLayout(selection_enabled=False).build(
        table, random_workload(rng, table, 4), BuildContext(
            file_segment_bytes=2048, schism_sample_size=100,
            buffer_pool_bytes=POOL,
        ),
    )
    txn = TransactionalTable(layout, table, wal_enabled=False)
    shadow = ShadowTable(table)
    shadow.snapshot(txn.current_version)
    return rng, txn, shadow


def head_queries(rng, txn, n=4):
    meta = txn.meta
    names = list(meta.schema.attribute_names)
    return [Query.build(meta, names, {}, label="full")] + [
        random_query(rng, txn, label=f"h{i}") for i in range(n)
    ]


def test_fold_cycles_keep_the_image_within_twice_its_live_rows():
    rng, txn, shadow = transactional(11)
    pool = txn.manager.buffer_pool
    config = WriteWorkloadConfig(max_insert_rows=60, max_delete_rows=40)
    for _cycle in range(10):
        for _commit in range(3):
            apply_random_batch(txn, shadow, rng, config)
            version = txn.commit()
            shadow.snapshot(version)
            for query in head_queries(rng, txn, 2):
                assert txn.execute(query)[0].equals(shadow.query(query, version))
        assert DeltaCompactor(txn).run().n_new_partitions
        txn.manager.prune_retired()
        for query in head_queries(rng, txn):
            assert txn.execute(query)[0].equals(shadow.query(query, version))
        assert_consistent(pool)
        assert pool.image.nbytes() <= 2 * pool.image.nbytes(live=True)
    assert pool.image_bytes > 0


def test_four_threads_query_through_a_fold():
    rng, txn, shadow = transactional(12)
    config = WriteWorkloadConfig(max_insert_rows=60, max_delete_rows=40)
    for _commit in range(6):
        apply_random_batch(txn, shadow, rng, config)
        version = txn.commit()
        shadow.snapshot(version)
    queries = head_queries(rng, txn, 6)
    expected = [shadow.query(query, version) for query in queries]
    pool = txn.manager.buffer_pool
    stop = threading.Event()
    errors, counts = [], [0] * 4

    def client(index):
        order = np.random.default_rng(index)
        try:
            while not stop.is_set():
                pick = int(order.integers(len(queries)))
                result, _stats = txn.execute(queries[pick])
                if not result.equals(expected[pick]):
                    errors.append(queries[pick].label)
                counts[index] += 1
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(repr(exc))

    def after(n_queries):
        """Wait until every client ran ``n_queries`` more queries."""
        targets = [count + n_queries for count in counts]
        while not errors and any(c < t for c, t in zip(counts, targets)):
            stop.wait(0.001)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    try:
        invalidated = pool.stats.n_invalidations
        after(2)
        assert DeltaCompactor(txn).run().n_new_partitions
        after(2)
        txn.manager.prune_retired()
        after(4)
    finally:
        stop.set()
        for thread in threads:
            thread.join(30)
    assert not errors
    assert pool.stats.n_invalidations > invalidated  # imaged pids retired
    assert_consistent(pool)


def segment_partition(pid, attributes, tids):
    tids = np.asarray(tids, dtype=np.int64)
    return PhysicalPartition(pid, [PhysicalSegment(
        attributes, tids, {name: (tids * 3).astype(np.int32) for name in attributes},
    )])


def test_positions_widen_and_overlaps_open_a_layer():
    """A group's positions are uint16 until its rows pass 65 534, then
    uint32; a tid past the domain has no row; a segment whose tuples a live
    slot holds opens a second layer, and dropping it leaves the first."""
    image = SchemaImage()
    first = image.attach(segment_partition(0, ("a",), np.arange(40_000)))
    group = first[0].group
    assert group.positions is None  # one segment: found by binary search
    assert np.array_equal(group.rows(np.array([5, 39_999, 40_000])), [5, 39_999, -1])
    image.attach(segment_partition(1, ("a",), np.arange(40_000, 80_000)))
    assert group.positions.dtype == np.uint32 and group.n_rows == 80_000
    tids = np.array([0, 39_999, 40_000, 79_999, 80_000, 10 ** 6])
    assert np.array_equal(group.rows(tids), [0, 39_999, 40_000, 79_999, -1, -1])
    assert np.array_equal(group.column("a")[group.rows(tids[:4])], tids[:4] * 3)

    again = image.attach(segment_partition(2, ("a",), np.arange(100, 200)))
    assert again[0].group is not group and len(image.groups()) == 2
    image.drop(2)
    assert image.groups() == [group]
    image.drop(0)  # half the rows dead: not yet rebuilt
    assert group.n_rows == 80_000 and group.n_dead == 40_000
    assert np.array_equal(group.rows(tids), [-1, -1, 40_000, 79_999, -1, -1])
    image.drop(1)
    assert not image.groups() and image.nbytes() == 0


def test_a_small_group_keeps_two_byte_positions():
    """Three segments of one schema in 600 rows: uint16 positions.  Once
    dead rows outnumber live ones the group is rebuilt from its live slot."""
    image = SchemaImage()
    for pid, first in enumerate(range(3)):
        slots = image.attach(
            segment_partition(pid, ("a", "b"), np.arange(first, 600, 3))
        )
    group = slots[0].group
    assert group.positions.dtype == np.uint16 and group.n_rows == 600
    tids = np.arange(600)
    assert np.array_equal(group.rows(tids), 200 * (tids % 3) + tids // 3)
    image.drop(0)
    assert group.n_rows == 600 and group.n_dead == 200  # not outnumbered yet
    image.drop(2)
    assert group.n_rows == 200 and group.n_dead == 0  # rebuilt
    live = np.arange(1, 600, 3)
    assert np.array_equal(group.rows(live), np.arange(200))
    assert (group.rows(np.arange(0, 600, 3)) == -1).all()
    assert np.array_equal(group.column("b")[:200], live * 3)
    assert image.nbytes() == image.nbytes(live=True)


def assert_row_tids(image):
    """Each live slot's rows of its group's ``row -> tid`` array are the
    slot's tids."""
    for group in image.groups():
        row_tids = group.row_tids()
        for slot in group.slots:
            if slot.live:
                assert np.array_equal(row_tids[slot.start:slot.stop], slot.tids)


def test_row_tids_follow_admit_grow_kill_rebuild_and_drop():
    image = SchemaImage()
    first = image.attach(segment_partition(0, ("a",), np.arange(0, 3000, 3)))
    group = first[0].group
    assert group.row_tids() is first[0].tids  # one segment: its own array
    assert group.tids is None
    image.attach(segment_partition(1, ("a",), np.arange(1, 3000, 3)))  # grows
    assert group.row_tids().dtype == np.uint16 and group.capacity == 2000
    assert_row_tids(image)
    image.attach(segment_partition(2, ("a",), np.arange(2, 1500, 3)))  # grows
    assert group.capacity == 3000 and group.tids.dtype == np.uint16
    assert_row_tids(image)
    image.attach(segment_partition(3, ("a",), np.arange(70_000, 70_400)))  # widens
    assert group.tids.dtype == np.uint32
    assert_row_tids(image)
    image.drop(1)  # a slot dies; its rows stay
    assert group.n_dead == 1000
    assert_row_tids(image)
    image.drop(0)  # dead rows outnumber live ones: rebuilt
    assert group.n_dead == 0 and group.n_rows == 900
    assert_row_tids(image)
    image.drop(2)
    image.drop(3)
    assert not image.groups() and image.nbytes() == 0
