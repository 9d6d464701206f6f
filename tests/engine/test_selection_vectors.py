"""The selection-vector engine core against tuple-at-a-time references.

Every case checks the vectorized engines' *result* and *every event counter*
against a plain Python loop that runs Algorithm 5 one tuple at a time over
the same partitions, with a real hash table: the closed-form counters must
price exactly the loop the paper describes, on the paths where result-sized
scratch is easiest to get wrong (dropped stashes, catalog-only prunes,
snapshot masks, empty and full results), and on the shapes the projection
must get right: an attribute in two segments of one pid and a partition
holding segments of two attribute groups.  Layouts that would give a cell
a second home are refused where they are materialized.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Query, TableSchema, Workload
from repro.engine import PartitionAtATimeExecutor, ScanExecutor
from repro.errors import StorageError
from repro.layouts import BuildContext, IrregularLayout
from repro.storage import (
    BALOS_HDD,
    TID_EXPLICIT,
    TID_IMPLICIT,
    BufferPool,
    ColumnTable,
    PartitionManager,
    PhysicalSegment,
    SegmentSpec,
    DeviceProfile,
    StorageDevice,
)
from repro.storage.partition_manager import CatalogSnapshot
from repro.storage.physical import PhysicalPartition
from repro.testing.oracle import run_reference_query

N = 400
NAMES = ("a1", "a2", "a3", "a4", "a5", "a6")
COUNTERS = (
    "cells_scanned", "hash_inserts", "hash_updates", "cells_gathered",
    "tuples_iterated", "materialized_bytes", "n_result_tuples",
)
NOT_CHECKED, VALID, INVALID = 0, 1, 2


@pytest.fixture(scope="module")
def table() -> ColumnTable:
    rng = np.random.default_rng(7)
    columns = {
        name: rng.integers(0, 1_000, N).astype(np.int32) for name in NAMES
    }
    return ColumnTable.build("T", TableSchema.uniform(list(NAMES)), columns)


def build(table, spec_groups):
    manager = PartitionManager(table.schema, StorageDevice(BALOS_HDD))
    manager.materialize_specs(spec_groups, table, tid_storage=TID_EXPLICIT)
    return manager


def tids(lo=0, hi=N):
    return np.arange(lo, hi, dtype=np.int64)


def build_segments(table, groups):
    """One partition per group of ``(attributes, tids)`` segments."""
    manager = PartitionManager(table.schema, StorageDevice(BALOS_HDD))
    manager.materialize([
        PhysicalPartition(pid=pid, segments=[
            PhysicalSegment(
                attributes=attrs, tuple_ids=own, columns=table.gather(attrs, own),
                tid_storage=TID_EXPLICIT,
            )
            for attrs, own in group
        ])
        for pid, group in enumerate(groups)
    ])
    return manager


def algorithm5(manager, query, zone_maps=False, valid_mask=None):
    """Algorithm 5, one tuple at a time.  Returns ``({tid: {attribute:
    cell}}, Counter of events)``."""
    preds = {a: (iv.lo, iv.hi) for a, iv in query.where.items()}
    ok = [True] * N if valid_mask is None else list(valid_mask)
    status = [NOT_CHECKED if ok[t] or not preds else INVALID for t in range(N)]
    ret, events = {}, Counter()
    infos = [manager.info(pid) for pid in manager.pids()]

    def drop(tid):
        if status[tid] == VALID:
            del ret[tid]
            events["hash_updates"] += 1
        status[tid] = INVALID

    for info in infos:
        stored = [a for a in preds if a in info.attributes]
        if not stored:
            continue
        if zone_maps and all(info.zone_disjoint(a, *preds[a]) for a in stored):
            for attrs, seg_tids in zip(info.segment_attrs, info.segment_tids):
                if set(attrs) & set(stored):
                    for tid in seg_tids.tolist():
                        drop(tid)
            continue
        for seg in manager.load(info.pid)[0].segments:
            for row, tid in enumerate(seg.tuple_ids.tolist()):
                events["cells_scanned"] += len(seg.attributes)
                if status[tid] == INVALID:
                    continue
                if any(
                    not lo <= seg.columns[a][row] <= hi
                    for a, (lo, hi) in preds.items() if a in seg.attributes
                ):
                    drop(tid)
                    continue
                if status[tid] == NOT_CHECKED:
                    status[tid], ret[tid] = VALID, {}
                    events["hash_inserts"] += 1
                for a in query.select:
                    if a in seg.attributes:
                        ret[tid][a] = seg.columns[a][row]
                        events["hash_updates"] += 1
    if not preds:
        for tid in range(N):
            if ok[tid]:
                status[tid], ret[tid] = VALID, {}
                events["hash_inserts"] += 1
    # Projection phase: the partitions holding a still-missing cell.
    missing = {(a, t) for t, row in ret.items() for a in query.select if a not in row}
    for info in infos:
        if not any(
            (a, t) in missing
            for attrs, seg_tids in zip(info.segment_attrs, info.segment_tids)
            for a in attrs for t in seg_tids.tolist()
        ):
            continue
        for seg in manager.load(info.pid)[0].segments:
            for row, tid in enumerate(seg.tuple_ids.tolist()):
                events["cells_scanned"] += len(seg.attributes)
                if status[tid] == VALID:
                    for a in query.select:
                        if a in seg.attributes:
                            ret[tid][a] = seg.columns[a][row]
                            events["hash_updates"] += 1
    events["n_result_tuples"] = len(ret)
    return ret, events


def check(result, stats, ret, events, table, query):
    """Engine output == the loop's hash table == the numpy oracle."""
    assert result.equals(run_reference_query(table, query))
    assert result.tuple_ids.tolist() == sorted(ret)
    for name in query.select:
        assert result.column(name).tolist() == [ret[t][name] for t in sorted(ret)]
    assert {c: getattr(stats, c) for c in COUNTERS} == {c: events[c] for c in COUNTERS}


def run_pat(manager, table, query, zone_maps=False, hidden=None):
    executor = PartitionAtATimeExecutor(manager, table.meta, zone_maps=zone_maps)
    if hidden is None:
        return executor.execute(query)
    with manager.pin_snapshot() as snapshot:
        snapshot.hidden = hidden
        return executor.execute(query, snapshot=snapshot)


class TestAlgorithm5Counters:
    def test_stash_dropped_when_a_later_partition_fails_the_tuple(self, table):
        """(a) a1 and a4 live in different partitions: tuples pass the first
        (their a2/a3 cells are stashed, rows inserted) and fail the second —
        the stash must not reach the result and every eviction is counted."""
        manager = build(table, [
            [SegmentSpec(("a1", "a2", "a3"), tids())],
            [SegmentSpec(("a4", "a5"), tids())],
            [SegmentSpec(("a6",), tids())],
        ])
        query = Query.build(
            table.meta, ["a2", "a3", "a5", "a6"],
            {"a1": (0, 499), "a4": (0, 299)},
        )
        result, stats = run_pat(manager, table, query)
        ret, events = algorithm5(manager, query)
        passed_first = int((table.column("a1") <= 499).sum())
        assert 0 < len(ret) < passed_first  # some stashed rows were evicted
        assert events["hash_inserts"] == passed_first
        check(result, stats, ret, events, table, query)

    def test_pruned_partition_invalidates_after_cells_were_stashed(self, table):
        """(b) the a4 partition of the upper half is refuted by its zone map
        after partition 0 stashed cells for those tuples: the catalog-only
        verdict evicts them without a read."""
        a4 = table.column("a4")
        low = np.nonzero(a4 <= 499)[0].astype(np.int64)
        high = np.nonzero(a4 > 499)[0].astype(np.int64)
        manager = build(table, [
            [SegmentSpec(("a1", "a2"), tids())],
            [SegmentSpec(("a4", "a5"), low)],
            [SegmentSpec(("a4", "a5"), high)],
        ])
        query = Query.build(
            table.meta, ["a2", "a5"], {"a1": (0, 699), "a4": (100, 450)}
        )
        result, stats = run_pat(manager, table, query, zone_maps=True)
        ret, events = algorithm5(manager, query, zone_maps=True)
        assert stats.n_partitions_pruned == 1 and stats.n_partition_reads == 2
        assert events["hash_updates"] > 2 * len(ret)  # evictions happened
        check(result, stats, ret, events, table, query)

    @pytest.mark.parametrize("where", [{"a1": (0, 599)}, {}], ids=["where", "no-where"])
    def test_snapshot_valid_mask(self, table, where):
        """(c) a pinned snapshot's hidden tids (the budgeted-fold case):
        masked tids never qualify, with or without a WHERE clause."""
        manager = build(table, [
            [SegmentSpec(("a1", "a2"), tids(0, 200))],
            [SegmentSpec(("a1", "a2"), tids(200, N))],
            [SegmentSpec(("a3",), tids())],
        ])
        valid_mask = np.ones(N + 25, dtype=bool)  # longer than the base table
        valid_mask[::7] = False
        query = Query.build(table.meta, ["a2", "a3"], where)
        hidden = np.flatnonzero(~valid_mask[:N])
        result, stats = run_pat(manager, table, query, hidden=hidden)
        ret, events = algorithm5(manager, query, valid_mask=valid_mask[:N])
        assert not set(ret) & set(range(0, N, 7))
        expected = run_reference_query(table, query)
        keep = valid_mask[expected.tuple_ids]
        assert np.array_equal(result.tuple_ids, expected.tuple_ids[keep])
        for name in query.select:
            assert result.column(name).tolist() == [ret[t][name] for t in sorted(ret)]
        assert {c: getattr(stats, c) for c in COUNTERS} == {c: events[c] for c in COUNTERS}

    @pytest.mark.parametrize("expect", [0, N], ids=["empty", "full"])
    def test_empty_and_full_results(self, table, expect):
        """(f) no tuple qualifies / every tuple qualifies."""
        manager = build(table, [
            [SegmentSpec(("a1", "a2"), tids(0, 150)), SegmentSpec(("a1",), tids(150, N))],
            [SegmentSpec(("a2",), tids(150, N)), SegmentSpec(("a3", "a4"), tids())],
        ])
        taken = set(table.column("a1").tolist())
        hole = next(v for v in range(min(taken), max(taken)) if v not in taken)
        window = (0, 999) if expect else (hole, hole)
        query = Query.build(table.meta, ["a2", "a4"], {"a1": window})
        result, stats = run_pat(manager, table, query)
        ret, events = algorithm5(manager, query)
        assert len(ret) == expect
        check(result, stats, ret, events, table, query)


def assert_refused(manager, message, attempt):
    """``attempt`` would give a cell a second home: it raises with
    ``message`` (a pattern naming the pid and the attribute) and leaves the
    catalog version, the pids and the stored files as they were."""
    before = manager.catalog_version, manager.pids(), set(manager.store.keys())
    with pytest.raises(StorageError, match=message):
        attempt()
    assert (manager.catalog_version, manager.pids(), set(manager.store.keys())) == before


def move_cells(groups, attrs, own):
    """``groups`` with the cells of ``attrs`` for tids ``own`` taken out of
    the segments storing them (each segment stores one attribute group);
    emptied segments go, emptied partitions stay (as empty lists)."""
    moved = [
        [
            (seg_attrs, np.setdiff1d(seg_tids, own) if seg_attrs == attrs else seg_tids)
            for seg_attrs, seg_tids in group
        ]
        for group in groups
    ]
    return [[(a, t) for a, t in group if len(t)] for group in moved]


class TestOwnerAddressedProjection:
    """The owner map finds the projection partitions; their cells reach the
    result by the schema group's ``tid -> row`` gather.  Result and every
    counter must still be the tuple-at-a-time loop's."""

    def run(self, table, groups, select, where=None):
        """``where`` defaults to a result under a quarter of the table."""
        manager = build_segments(table, groups)
        query = Query.build(table.meta, select, where or {"a1": (0, 199)})
        result, stats = run_pat(manager, table, query)
        ret, events = algorithm5(manager, query)
        check(result, stats, ret, events, table, query)
        assert where or 0 < 4 * result.n_tuples < N
        return stats

    def test_one_attribute_in_two_primary_segments_of_a_pid(self, table):
        """(i) a2 sits in two interleaved segments of partition 1:
        its owner rows cover both, an equality test splits them."""
        even, odd = tids()[::2], tids()[1::2]
        self.run(table, [
            [(("a1",), tids())],
            [(("a2", "a3"), even), (("a2", "a4"), odd)],
            [(("a3",), odd), (("a4",), even)],
        ], ["a2", "a3", "a4"])

    def test_overlapping_primaries_in_the_projection_phase(self, table):
        """(ii) tids 150-249 would have two a2 homes: the materialize is
        refused."""
        manager = PartitionManager(table.schema, StorageDevice(BALOS_HDD))
        assert_refused(manager, "partition 2 .*'a2'", lambda: manager.materialize_specs([
            [SegmentSpec(("a1",), tids())],
            [SegmentSpec(("a2",), tids(0, 250))],
            [SegmentSpec(("a2",), tids(150, N))],
        ], table))

    def test_visited_partition_with_an_overlapping_segment(self, table):
        """(iii) partition 3 would hold a second segment whose cells
        partition 1 holds (a2 of tids 0-199): adding it is refused."""
        manager = build_segments(table, [
            [(("a1",), tids())],
            [(("a2", "a3"), tids(0, 200)), (("a4",), tids(0, 200))],
            [(("a4",), tids(200, N))],
        ])
        late = PhysicalPartition(pid=3, segments=[
            PhysicalSegment(attrs, own, table.gather(attrs, own))
            for attrs, own in [(("a2", "a3"), tids(200, N)), (("a2",), tids(0, 200))]
        ])
        assert_refused(
            manager, "partition 3 .*'a2' of tuple 0, which partition 1",
            lambda: manager.add_partition(late),
        )

    def test_stashed_cells_met_again_in_a_projection_partition(self, table):
        """(iv) partition 1, read for a3, would hold a2 again: the
        materialize is refused, so a stashed cell never has a second home
        to be met in."""
        manager = PartitionManager(table.schema, StorageDevice(BALOS_HDD))
        assert_refused(manager, "partition 1 .*'a2'", lambda: manager.materialize_specs([
            [SegmentSpec(("a1", "a2"), tids())],
            [SegmentSpec(("a2",), tids()), SegmentSpec(("a3",), tids())],
        ], table))

    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_random_spec_groups(self, table, data):
        """Every cell gets a home (attribute groups x tid runs); then some
        partitions merge (one pid, several segments), a run of one
        attribute group's cells may move to a partition of its own, and a
        partition may take over another attribute group's cells of its own
        tids.  A moved cell leaves its old home, so each keeps one."""
        draw = data.draw
        cuts = sorted(draw(st.sets(st.integers(1, len(NAMES) - 1), max_size=2)))
        attr_groups = [
            NAMES[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(NAMES)])
        ]
        groups = []
        for attrs in attr_groups:
            runs = sorted(draw(st.sets(st.integers(1, N - 1), max_size=2)))
            groups += [
                [(attrs, tids(lo, hi))]
                for lo, hi in zip([0] + runs, runs + [N])
            ]
        if len(groups) > 1 and draw(st.booleans()):
            first = draw(st.integers(0, len(groups) - 2))
            groups[first] += groups.pop(draw(st.integers(first + 1, len(groups) - 1)))
        if draw(st.booleans()):
            lo = draw(st.integers(0, N - 1))
            own = tids(lo, draw(st.integers(lo + 1, N)))
            attrs = draw(st.sampled_from(attr_groups))
            groups = move_cells(groups, attrs, own) + [[(attrs, own)]]
        if len(attr_groups) > 1 and draw(st.booleans()):
            index = draw(st.sampled_from([i for i, group in enumerate(groups) if group]))
            attrs, own = groups[index][0]
            other = draw(st.sampled_from([g for g in attr_groups if g != attrs]))
            groups = move_cells(groups, other, own)
            groups[index] = groups[index] + [(other, own)]
        groups = [group for group in groups if group]
        select = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4,
                               unique=True))
        lo = draw(st.integers(20, 900))  # inside every column's range
        self.run(table, groups, select, {
            draw(st.sampled_from(NAMES)): (lo, lo + draw(st.integers(0, 600)))
        })


def test_one_probe_per_owner_map(monkeypatch):
    """A trained-template query projecting eight attributes that share one
    owner map probes the tuple-level index once, over the union of their
    missing tids, and visits exactly what the eight per-attribute probes
    would."""
    rng = np.random.default_rng(5)
    names = [f"a{i}" for i in range(1, 25)]
    table = ColumnTable.build("T", TableSchema.uniform(names), {
        name: rng.integers(0, 100_000, 6_000).astype(np.int32) for name in names
    })
    wide = ["a2", "a3", "a4", "a5", "a6", "a7", "a9", "a10"]
    train = Workload(table.meta, [
        Query.build(table.meta, wide, {"a1": (0, 9_999)}),
        Query.build(table.meta, wide, {"a8": (90_000, 99_999)}),
        Query.build(table.meta, ["a15", "a16", "a17", "a18"], {"a20": (40_000, 44_999)}),
    ])
    layout = IrregularLayout().build(table, train, BuildContext(
        device_profile=DeviceProfile.from_throughput("hdd", 75.0, 0.000001),
        file_segment_bytes=4096,
    ))
    query = Query.build(table.meta, wide, {"a1": (20_000, 29_999)})
    probes = []
    probe = CatalogSnapshot.partitions_with_missing_cells

    def traced(self, attribute, missing):
        probes.append(probe(self, attribute, missing))
        return probes[-1]

    monkeypatch.setattr(CatalogSnapshot, "partitions_with_missing_cells", traced)
    result, _stats = layout.execute(query)
    assert result.equals(run_reference_query(table, query))
    manager = layout.manager
    per_attribute = {
        pid for name in wide
        for pid in manager.partitions_with_missing_cells(name, result.tuple_ids)
    }
    assert len(per_attribute) > 1
    assert len(probes) == 1 and set(probes[0]) == per_attribute


class TestScanDriver:
    """The same two ops under the scan driver's counter rule."""

    def test_scan_over_runs_counts_like_the_operator_at_a_time_loop(self, table):
        manager = PartitionManager(table.schema, StorageDevice(BALOS_HDD))
        manager.materialize_specs(
            [[SegmentSpec((name,), tids())] for name in NAMES], table,
            tid_storage=TID_IMPLICIT,
        )
        query = Query.build(
            table.meta, ["a2", "a5"], {"a1": (0, 499), "a4": (0, 499)}
        )
        result, stats = ScanExecutor(manager, table.meta, zone_maps=False).execute(query)
        expected = run_reference_query(table, query)
        assert result.equals(expected)
        assert stats.cells_scanned == 2 * N  # one cell per tuple per predicate
        assert stats.cells_gathered == 2 * expected.n_tuples
        assert stats.materialized_bytes == 3 * ((N + 7) // 8)
        assert stats.hash_inserts == stats.hash_updates == stats.tuples_iterated == 0


ENGINES = [PartitionAtATimeExecutor, ScanExecutor]


def traced_execute(engine, n_names, group, where):
    """Execute ``engine`` over a 200k-row table of ``n_names`` attributes
    laid out in ``group``-wide partitions of 10k rows (explicit tids: 20
    same-schema segments per group), projecting all but ``c0``: the result
    and the tracemalloc peak inside ``execute`` (after a warm-up, so the
    pool and the lazy views are in)."""
    n, chunk = 200_000, 10_000
    names = [f"c{i}" for i in range(n_names)]
    rng = np.random.default_rng(3)
    columns = {
        name: rng.integers(0, 1_000_000, n).astype(np.int32) for name in names
    }
    table = ColumnTable.build("W", TableSchema.uniform(names), columns)
    groups = [names[:5]] + [
        names[lo:lo + group] for lo in range(5, n_names, group)
    ]
    manager = PartitionManager(
        table.schema, StorageDevice(BALOS_HDD),
        buffer_pool=BufferPool(64 << 20),
    )
    manager.materialize_specs(
        [
            [SegmentSpec(tuple(group), np.arange(lo, lo + chunk, dtype=np.int64))]
            for group in groups for lo in range(0, n, chunk)
        ],
        table, tid_storage=TID_EXPLICIT,
    )
    executor = engine(manager, table.meta)
    query = Query.build(table.meta, names[1:], where)
    executor.execute(query)
    tracemalloc.start()
    try:
        result, _stats = executor.execute(query)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.equals(run_reference_query(table, query))
    return result, peak


def test_execute_scratch_is_result_sized_not_table_sized():
    """A ~20-row query projecting 16 attributes of a 200k-row table peaks
    under 3 bytes per table row inside ``execute``, on both vectorised
    engines: one status byte per tuple plus transients — not a value and a
    presence array per attribute (>= (1 + 5 * 16) bytes per row before)."""
    for engine in ENGINES:
        result, peak = traced_execute(engine, 17, 4, {"c0": (0, 99)})
        assert 5 <= result.n_tuples <= 60
        assert peak < 3 * 200_000, engine.name


def test_large_result_holds_at_most_one_extra_column():
    """90 % of the table, 24 attributes (four co-located with the predicate,
    twenty in four other schemas): result-sized arrays set the peak, on
    both vectorised engines.  The bound is 3.34x the result's column bytes
    plus one result column (1/24 of those bytes).  The partition-at-a-time
    engine gathers each attribute once per schema group; the scan engine
    writes each segment's cells as it reads them, through a dense
    ``tid -> row`` map (4 B per table row)."""
    for engine in ENGINES:
        result, peak = traced_execute(engine, 25, 5, {"c0": (0, 899_999)})
        column = 4 * result.n_tuples
        assert result.n_tuples > 170_000
        assert peak <= (3.34 + 1 / 24) * 24 * column, engine.name
