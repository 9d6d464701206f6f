"""The catalog index against the brute-force definition of the tuple-level
lookup, through every catalog mutation and every kind of pin."""

from __future__ import annotations

import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import TableSchema
from repro.errors import (
    InvalidPartitioningError, SnapshotUnavailableError, StorageError,
)
from repro.storage import (
    BALOS_HDD,
    ColumnTable,
    PartitionManager,
    StorageDevice,
)
from repro.storage.catalog import Catalog, CatalogIndex, PartitionInfo
from repro.storage.physical import PhysicalPartition, PhysicalSegment

N_TUPLES = 24
ATTRS = ("a1", "a2", "a3", "a4")
SCHEMA = TableSchema.uniform(list(ATTRS))
TABLE = ColumnTable.build(
    "T",
    SCHEMA,
    {
        name: np.arange(N_TUPLES, dtype=np.int32) + 100 * i
        for i, name in enumerate(ATTRS)
    },
)


def new_manager() -> PartitionManager:
    return PartitionManager(SCHEMA, StorageDevice(BALOS_HDD))


def physical(pid, segments) -> PhysicalPartition:
    """``segments``: ``(attributes, tids)`` pairs, tids may be empty."""
    built = []
    for attributes, tids in segments:
        attrs = tuple(a for a in ATTRS if a in attributes)
        tids = np.asarray(sorted(tids), dtype=np.int64)
        built.append(PhysicalSegment(
            attributes=attrs,
            tuple_ids=tids,
            columns=TABLE.gather(attrs, tids),
        ))
    return PhysicalPartition(pid=pid, segments=built)


def one_home(segments, homed):
    """``segments`` less the cells already homed: each ``(attributes,
    tids)`` keeps the tids ``homed`` (attribute -> tids) holds for none of
    its attributes, and those cells are homed from then on.  Drawn
    partitions passed through it in turn give every cell one home."""
    kept = []
    for attributes, tids in segments:
        free = set(tids).difference(*(homed.get(a, ()) for a in attributes))
        for attribute in attributes:
            homed.setdefault(attribute, set()).update(free)
        kept.append((attributes, free))
    return kept


def holders(infos, attribute, tids):
    """The definition: partitions with a segment storing ``attribute`` for
    at least one of ``tids``, in the order given."""
    return tuple(
        info.pid
        for info in infos
        if any(
            attribute in attrs and np.isin(tids, seg_tids).any()
            for attrs, seg_tids in zip(info.segment_attrs, info.segment_tids)
        )
    )


#: probes: single tids, a run, everything, tids past the stored domain
#: (cells no partition stores), and nothing.
PROBES = [np.array([t], dtype=np.int64) for t in (0, 7, N_TUPLES - 1)] + [
    np.arange(3, 11, dtype=np.int64),
    np.arange(N_TUPLES, dtype=np.int64),
    np.array([5, N_TUPLES + 40], dtype=np.int64),
    np.array([N_TUPLES, 10 * N_TUPLES], dtype=np.int64),
    np.empty(0, dtype=np.int64),
]


def check_manager(manager, order):
    infos = [manager.info(pid) for pid in sorted(order)]
    index = manager.catalog_index()
    for attribute in ATTRS + ("nope",):
        for tids in PROBES:
            assert index.partitions_with_cells(
                attribute, tids
            ) == holders(infos, attribute, tids)
        assert index.attribute_pids.get(attribute, ()) == tuple(
            info.pid for info in infos if attribute in info.attributes
        )


def check_snapshot(snapshot, infos):
    infos = sorted(infos, key=lambda info: info.pid)
    assert snapshot.pids == frozenset(info.pid for info in infos)
    for attribute in ATTRS + ("nope",):
        for tids in PROBES:
            assert snapshot.partitions_with_missing_cells(
                attribute, tids
            ) == holders(infos, attribute, tids)
        assert snapshot.index.attribute_pids.get(attribute, ()) == tuple(
            info.pid for info in infos if attribute in info.attributes
        )
    assert snapshot.index.pids_for_attributes(ATTRS[:2]) == tuple(
        info.pid for info in infos if set(ATTRS[:2]) & info.attributes
    )


segment_st = st.tuples(
    st.sets(st.sampled_from(ATTRS), min_size=1),
    st.sets(st.integers(0, N_TUPLES - 1), max_size=N_TUPLES),
)
partition_st = st.lists(segment_st, min_size=1, max_size=3)
OPS = (
    "add", "replace", "collide", "swap", "remove", "advance", "prune", "pin",
    "pin_old", "prune_pin_old", "release",
)


class TestIndexEqualsDefinition:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_through_swaps_prunes_and_pins(self, data):
        manager = new_manager()
        order = []  # live pids — the model
        frozen = {}  # version -> infos live at that version
        held = []  # (snapshot, infos it must answer from)
        seen = set()  # every pid ever handed out

        def homes(pids):
            """attribute -> tids the partitions ``pids`` store it for."""
            homed = {}
            for info in map(manager.info, pids):
                for attrs, tids in zip(info.segment_attrs, info.segment_tids):
                    for attribute in attrs:
                        homed.setdefault(attribute, set()).update(tids.tolist())
            return homed

        def fresh(n, kept=None):
            """``n`` partitions of fresh pids, storing no cell that the
            ``kept`` partitions (default: the live set) or each other
            store."""
            first = manager.next_pid()
            assert first not in seen  # a pid is never handed out twice
            seen.update(range(first, first + n))
            homed = homes(order if kept is None else kept)
            return [
                physical(first + i, one_home(data.draw(partition_st), homed))
                for i in range(n)
            ]

        def committed():
            frozen[manager.catalog_version] = [
                manager.info(pid) for pid in order
            ]

        def retire(gone, parts=()):
            manager.swap_partitions(parts, remove=gone)
            order[:] = [pid for pid in order if pid not in gone]
            order.extend(part.pid for part in parts)
            committed()
            if not order:
                (part,) = fresh(1)
                manager.add_partition(part)
                order.append(part.pid)
                committed()

        def pin_old():
            version = data.draw(st.sampled_from(sorted(frozen)))
            if version < manager.floor_version():
                with pytest.raises(SnapshotUnavailableError):
                    manager.pin_snapshot(version)
            else:
                held.append((manager.pin_snapshot(version), frozen[version]))

        def check_keys():
            """The stored partition files are exactly those a retained
            version names: the live set plus the unpruned retired entries."""
            floor = manager.floor_version()
            named = {
                info.key
                for version, infos in frozen.items() if version >= floor
                for info in infos
            }
            assert named == {
                manager.info(pid).key
                for pid in manager.pids() + manager.retired_pids()
            }
            assert {k for k in manager.store.keys() if k.endswith(".jig")} == named

        for part in fresh(data.draw(st.integers(1, 4))):
            manager.add_partition(part)
            order.append(part.pid)
            committed()

        for _ in range(data.draw(st.integers(1, 8))):
            op = data.draw(st.sampled_from(OPS))
            if op == "add":
                (part,) = fresh(1)
                manager.add_partition(part)
                order.append(part.pid)
                committed()
            elif op == "replace":
                # A pid names one immutable file: re-adding a live or a
                # retired pid is refused and changes nothing — every held
                # snapshot keeps answering from the blobs it pinned.
                pid = data.draw(st.sampled_from(
                    sorted(set(order) | set(manager.retired_pids()))
                ))
                version = manager.catalog_version
                with pytest.raises(InvalidPartitioningError):
                    manager.swap_partitions(
                        [physical(pid, data.draw(partition_st))], remove=[pid]
                    )
                assert manager.catalog_version == version
            elif op == "collide":
                # A second home is refused where it is made: the swap
                # changes no version, no pid and no stored file, and its
                # pid is free again.
                stored = [
                    (attribute, int(tid))
                    for attribute, tids in homes(order).items() for tid in tids
                ]
                if stored:
                    cell = data.draw(st.sampled_from(sorted(stored)))
                    pid = manager.next_pid()
                    part = physical(pid, data.draw(st.lists(segment_st, max_size=2))
                                    + [({cell[0]}, {cell[1]})])
                    gone = data.draw(st.sets(st.sampled_from(order)))
                    gone -= set(holders(  # the cell's home stays live
                        map(manager.info, order), cell[0], np.array([cell[1]])
                    ))
                    version, pids = manager.catalog_version, manager.pids()
                    with pytest.raises(StorageError, match="a cell has one home"):
                        manager.swap_partitions([part], remove=gone)
                    assert (manager.catalog_version, manager.pids()) == (version, pids)
                    assert manager.next_pid() == pid
            elif op == "swap":
                gone = data.draw(st.sets(st.sampled_from(order)))
                retire(gone, fresh(
                    data.draw(st.integers(0, 3)),
                    [pid for pid in order if pid not in gone],
                ))
            elif op == "remove":
                retire(data.draw(st.sets(st.sampled_from(order), min_size=1)))
            elif op == "advance":
                manager.advance_version()
                committed()
            elif op == "prune":
                manager.prune_retired()
            elif op == "pin":
                held.append((manager.pin_snapshot(), frozen[manager.catalog_version]))
            elif op == "pin_old":
                pin_old()
            elif op == "prune_pin_old":
                manager.prune_retired()
                pin_old()
            elif held:
                snapshot, _infos = held.pop(
                    data.draw(st.integers(0, len(held) - 1))
                )
                snapshot.release()
            check_manager(manager, order)
            for snapshot, infos in held:
                check_snapshot(snapshot, infos)
            check_keys()
            assert manager.next_pid() not in seen

        for snapshot, _infos in held:
            snapshot.release()
        assert manager.snapshot_refcount() == 0


    @given(
        st.lists(partition_st, min_size=2, max_size=6),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_add_only_swap_derives_what_a_rebuild_builds(self, drawn, data):
        """A write commit is an add-only swap: its index is derived from
        the predecessor's, owner maps built so far carried forward.  Derived
        and rebuilt must be the same index, array for array."""
        manager = new_manager()
        every = np.arange(N_TUPLES, dtype=np.int64)
        homed = {}
        for pid, segments in enumerate(drawn):
            manager.add_partition(physical(pid, one_home(segments, homed)))
            # Probing builds the probed attributes' maps; the rest stay
            # lazy on both sides.
            for attribute in data.draw(st.sets(st.sampled_from(ATTRS))):
                manager.partitions_with_missing_cells(attribute, every)
        live = manager.catalog_index()
        rebuilt = CatalogIndex(manager.info(pid) for pid in manager.pids())
        assert live.pids == rebuilt.pids
        assert live.attribute_pids == rebuilt.attribute_pids
        for attribute in live.attribute_pids:
            for tids in PROBES:
                assert live.partitions_with_cells(
                    attribute, tids
                ) == rebuilt.partitions_with_cells(attribute, tids)
            ours, theirs = live._owners[attribute], rebuilt._owners[attribute]
            assert ours.pids == theirs.pids
            assert ours.placement == theirs.placement
            assert ours.owner.dtype == theirs.owner.dtype
            assert np.array_equal(ours.owner, theirs.owner)
        assert live.owner_bytes() == rebuilt.owner_bytes()  # sharing kept

    @given(
        st.lists(partition_st, min_size=2, max_size=6),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_add_only_swap_carries_verdicts_and_zones(self, drawn, data):
        """Visit-once verdicts and zone arrays memoised before a write
        commit are carried into the derived index, not recomputed: they
        must equal a fresh index's.  The drawn partitions reach the case
        that turns a verdict False: a segment lacking a predicate."""
        manager = new_manager()
        every = np.arange(N_TUPLES, dtype=np.int64)
        attribute_sets = st.sets(st.sampled_from(ATTRS), min_size=1).map(frozenset)
        homed = {}
        for pid, segments in enumerate(drawn):
            manager.add_partition(physical(pid, one_home(segments, homed)))
            index = manager.catalog_index()
            for attributes in data.draw(st.lists(attribute_sets, max_size=3)):
                index.visits_once(attributes)
            for attribute in data.draw(st.sets(st.sampled_from(ATTRS))):
                index.zones(attribute)
            for attribute in data.draw(st.sets(st.sampled_from(ATTRS))):
                manager.partitions_with_missing_cells(attribute, every)
        live = manager.catalog_index()
        carried = dict(live._visits_once)
        rebuilt = CatalogIndex(manager.info(pid) for pid in manager.pids())
        for attributes, verdict in carried.items():
            assert verdict == rebuilt.visits_once(attributes), attributes
        for attribute, arrays in dict(live._zones).items():
            for mine, fresh in zip(arrays, rebuilt.zones(attribute)):
                assert mine.dtype == fresh.dtype
                assert np.array_equal(mine, fresh)

    @given(
        st.sets(st.sampled_from(ATTRS), min_size=1, max_size=3),
        st.lists(st.tuples(
            st.booleans(),
            st.sets(st.sampled_from(ATTRS)),
            st.sets(st.integers(0, N_TUPLES - 1), max_size=N_TUPLES),
        ), min_size=1, max_size=6),
        st.lists(st.tuples(st.integers(-20, 420), st.integers(0, 200)), min_size=3, max_size=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_vectorised_zone_refutation_equals_the_per_info_loop(
        self, predicated, drawn, bounds
    ):
        """Partitions either store every predicate attribute (the only
        shape the visit-once verdict admits) or none; tid sets may be empty,
        so a partition can store an attribute with no zone."""
        from repro.plan.logical import refuted_zones
        from repro.plan.predicates import Conjunction, RangePredicate

        manager = new_manager()
        homed = {}
        for pid, (selection, extra, tids) in enumerate(drawn):
            attrs = (predicated | extra) if selection else (extra - predicated)
            if attrs:
                manager.add_partition(physical(pid, one_home([(attrs, tids)], homed)))
        conjunction = Conjunction([
            RangePredicate(attribute, lo, lo + width)
            for attribute, (lo, width) in zip(sorted(predicated), bounds)
        ])
        with manager.pin_snapshot() as view:
            pids = view.index.pids_for_attributes(predicated)
            if not pids:
                return
            expected = frozenset(
                info.pid for info in map(view.info, pids)
                if any(
                    info.zone_disjoint(p.attribute, p.lo, p.hi)
                    for p in conjunction.predicates
                )
            )
            assert refuted_zones(view.index, conjunction)[0] == expected


def stripes(first_pid, n, attrs=ATTRS):
    """One catalog state: ``n`` partitions that together hold ``attrs`` of
    every tid exactly once."""
    width = N_TUPLES // n
    return [
        physical(
            first_pid + i,
            [(set(attrs), range(i * width, (i + 1) * width))],
        )
        for i in range(n)
    ]


def halves(first_pid, attrs=ATTRS):
    return stripes(first_pid, 2, attrs)


class TestPlacementCases:
    def test_overlapping_primaries_are_refused(self):
        """A partition that would hold ``a3`` for tids another partition
        already holds it for is refused, naming itself and the attribute;
        the catalog, its answers and its stored files are as they were."""
        manager = new_manager()
        everything = range(N_TUPLES)
        manager.add_partition(physical(0, [({"a1", "a3"}, everything)]))
        index, keys = manager.catalog_index(), set(manager.store.keys())
        for pid, segments in [
            (1, [({"a2", "a3"}, everything)]),
            (1, [({"a2"}, everything), ({"a3"}, range(4))]),
        ]:
            with pytest.raises(StorageError, match="partition 1 .*'a3' of tuple 0"):
                manager.add_partition(physical(pid, segments))
            assert manager.catalog_index() is index and manager.catalog_version == 1
            assert set(manager.store.keys()) == keys
        one = np.array([2], dtype=np.int64)
        assert manager.partitions_with_missing_cells("a3", one) == (0,)

    def test_answers_are_in_ascending_pid_order(self):
        manager = new_manager()
        for part in reversed(halves(0)):  # pid 1 is catalogued first
            manager.add_partition(part)
        tids = np.arange(N_TUPLES, dtype=np.int64)
        index = manager.catalog_index()
        assert index.attribute_pids["a1"] == (0, 1)
        assert index.partitions_with_cells("a1", tids) == (0, 1)
        assert manager.partitions_with_missing_cells("a1", tids) == (0, 1)
        with manager.pin_snapshot() as snapshot:
            assert snapshot.partitions_with_missing_cells("a1", tids) == (0, 1)


class TestLifecycle:
    def test_version_bump_keeps_the_index_and_a_swap_replaces_it(self):
        manager = new_manager()
        for part in halves(0):
            manager.add_partition(part)
        index = manager.catalog_index()
        manager.advance_version()
        assert manager.catalog_index() is index
        with manager.pin_snapshot() as now, manager.pin_snapshot(
            manager.catalog_version - 1
        ) as before:
            assert now.index is index and before.index is index
        manager.swap_partitions(halves(2), remove=[0, 1])
        assert manager.catalog_index() is not index

    def test_add_only_swap_carries_the_built_owner_maps_forward(self):
        manager = new_manager()
        for part in halves(0):
            manager.add_partition(part)
        tids = np.arange(N_TUPLES, dtype=np.int64)
        manager.partitions_with_missing_cells("a1", tids)
        index = manager.catalog_index()
        built = index.owner_bytes()
        assert built > 0
        late = np.arange(N_TUPLES, N_TUPLES + 4, dtype=np.int64)
        manager.add_partition(PhysicalPartition(pid=2, segments=[
            PhysicalSegment(
                attributes=ATTRS, tuple_ids=late,
                columns={name: np.zeros(4, dtype=np.int32) for name in ATTRS},
            )
        ]))
        successor = manager.catalog_index()
        assert successor is not index and successor.pids == {0, 1, 2}
        assert successor.owner_bytes() > 0  # a1's map arrived already built
        assert index.owner_bytes() == built  # the predecessor is untouched
        assert manager.partitions_with_missing_cells(
            "a1", np.array([3, N_TUPLES + 1], dtype=np.int64)
        ) == (0, 2)
        assert index.partitions_with_cells("a1", late) == ()

    def test_last_old_version_pin_frees_its_index(self):
        manager = new_manager()
        for part in halves(0):
            manager.add_partition(part)
        old_version = manager.catalog_version
        manager.swap_partitions(halves(2), remove=[0, 1])
        first = manager.pin_snapshot(old_version)
        second = manager.pin_snapshot(old_version)
        assert first.index is second.index
        assert first.index is not manager.catalog_index()
        assert first.pids == {0, 1}
        ref = weakref.ref(first.index)
        first.release()
        third = manager.pin_snapshot(old_version)  # one pin is still out
        assert third.index is second.index
        second.release()
        third.release()
        del first, second, third
        gc.collect()
        assert ref() is None

    def test_owner_arrays_are_lazy_and_shared_between_co_placed_attributes(self):
        manager = new_manager()
        for part in halves(0, attrs=("a1", "a2")) + halves(2, attrs=("a3",)):
            manager.add_partition(part)
        index = manager.catalog_index()
        index.pids_for_attributes(["a1"])
        assert index.owner_bytes() == 0  # planning alone builds nothing
        tids = np.arange(N_TUPLES, dtype=np.int64)
        manager.partitions_with_missing_cells("a1", tids)
        one_array = index.owner_bytes()
        assert one_array > 0
        manager.partitions_with_missing_cells("a2", tids)
        assert index.owner_bytes() == one_array  # same segments, same array
        manager.partitions_with_missing_cells("a3", tids)
        assert index.owner_bytes() == 2 * one_array

    def test_a_probe_under_tracing_opens_no_span(self):
        """A catalog probe is below the grain of a trace: with tracing on it
        answers as before and records nothing."""
        manager = new_manager()
        for part in halves(0):
            manager.add_partition(part)
        tids = np.arange(4, dtype=np.int64)
        with obs.scoped_trace() as collector:
            assert manager.partitions_with_missing_cells("a1", tids) == (0,)
            with manager.pin_snapshot() as snapshot:
                assert snapshot.partitions_with_missing_cells("a2", tids) == (0,)
        assert collector.spans() == ()


STRIPES = 12


class TestConcurrentProbes:
    def test_probes_during_swaps_never_see_a_half_built_array(self):
        """A probe racing a swap may answer from the state before or after
        it — all of that state's stripes — never from an owner array that is
        still being filled (some stripes missing)."""
        manager = new_manager()
        manager.swap_partitions(stripes(0, STRIPES))
        everything = np.arange(N_TUPLES, dtype=np.int64)
        stop = threading.Event()
        problems = []

        def prober():
            while not stop.is_set():
                with manager.pin_snapshot() as snapshot:
                    for index in (manager, snapshot):
                        hits = index.partitions_with_missing_cells(
                            "a1", everything
                        )
                        first = hits[0] if hits else -1
                        if first % STRIPES or hits != tuple(
                            range(first, first + STRIPES)
                        ):
                            problems.append(hits)
                            return

        def swapper():
            first = STRIPES
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline and not problems:
                manager.swap_partitions(
                    stripes(first, STRIPES),
                    remove=range(first - STRIPES, first),
                )
                manager.prune_retired()
                first += STRIPES
            stop.set()

        threads = [threading.Thread(target=prober) for _ in range(4)]
        threads.append(threading.Thread(target=swapper))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
            stop.set()
        assert not any(thread.is_alive() for thread in threads)
        assert problems == []
        assert manager.snapshot_refcount() == 0


def entry(pid, attributes=("a1",)):
    """A bare catalog entry (one segment holding tid ``pid``): the value
    reads frames, pids and versions only, so no blob and no manager is
    needed."""
    return PartitionInfo(
        pid=pid, key=f"p{pid}", n_bytes=1, attributes=frozenset(attributes),
        n_tuples=1, zone_map={}, segment_attrs=[tuple(attributes)],
        segment_tids=[np.array([pid], dtype=np.int64)],
        segment_tid_modes=["explicit"],
    )


def pids_at(catalog, version):
    return sorted(info.pid for info in catalog.live_at(version))


class TestCatalogValue:
    """``apply``, ``prune`` and ``live_at`` on values built by hand."""

    def test_apply_returns_a_new_value_and_leaves_the_old_one(self):
        empty = Catalog()
        first = empty.apply([entry(1), entry(0)], ())
        assert (first.version, first.since, first.next_pid) == (1, 1, 2)
        assert first.index.pids == {0, 1} and first.index.attribute_pids["a1"] == (0, 1)
        assert [first.info(pid).version for pid in (0, 1)] == [1, 1]
        assert (empty.version, empty.index.pids) == (0, frozenset())

    def test_a_version_bump_shares_the_index_and_an_add_derives_it(self):
        first = Catalog().apply([entry(0), entry(1)], ())
        first.index.partitions_with_cells("a1", np.arange(1, dtype=np.int64))
        bumped = first.apply((), ())
        assert (bumped.version, bumped.since) == (2, 1)
        assert bumped.index is first.index
        grown = bumped.apply([entry(2, ("a1", "a2"))], ())
        assert (grown.version, grown.since) == (3, 3)
        assert grown.index.pids == {0, 1, 2} and first.index.pids == {0, 1}
        assert grown.index.attribute_pids == {"a1": (0, 1, 2), "a2": (2,)}
        assert grown.index._owners["a1"].pids == (0, 1, 2)  # carried, extended

    def test_a_retiring_commit_builds_the_index_fresh(self):
        first = Catalog().apply([entry(0), entry(1)], ())
        second = first.apply([entry(2)], [0, 99])  # 99 is not live: ignored
        assert second.index.pids == {1, 2}
        assert second.retired == {0: (2, first.info(0))}
        assert second.info(0) is first.info(0)  # a retired entry still resolves
        assert not second.holds(99) and second.holds(0)
        assert first.retired == {} and first.index.pids == {0, 1}

    def test_live_at_is_the_interval_filter(self):
        catalog = Catalog().apply([entry(0), entry(1)], ())  # v1
        catalog = catalog.apply((), ())                       # v2
        catalog = catalog.apply([entry(2)], ())               # v3
        catalog = catalog.apply((), [1])                      # v4, remove-only
        catalog = catalog.apply([entry(3)], [0])              # v5
        assert [pids_at(catalog, v) for v in range(6)] == [
            [], [0, 1], [0, 1], [0, 1, 2], [0, 2], [2, 3],
        ]

    def test_prune_drops_what_no_version_from_the_oldest_pin_names(self):
        catalog = Catalog().apply([entry(0), entry(1)], ())  # v1
        catalog = catalog.apply([entry(2)], [0])              # v2 retires 0
        catalog = catalog.apply((), [2])                      # v3 retires 2
        same, doomed = catalog.prune(1)
        assert same is catalog and doomed == []
        pruned, doomed = catalog.prune(2)
        assert [info.pid for info in doomed] == [0]
        assert pruned.floor == 2 and set(pruned.retired) == {2}
        assert [pids_at(pruned, v) for v in (2, 3)] == [[1, 2], [1]]
        assert set(catalog.retired) == {0, 2} and catalog.floor == 0
        final, doomed = pruned.prune(pruned.version)
        assert [info.pid for info in doomed] == [2] and final.floor == 3
        # The highest pid was retired and pruned; it is still never reused.
        assert final.next_pid == 3 and final.index.pids == {1}


def rows_partition(pid, first, n, rng, split=False):
    """Fresh tids ``first .. first + n - 1`` with drawn cells: one segment
    of every attribute, or (``split``) two segments of two attributes."""
    tids = np.arange(first, first + n, dtype=np.int64)
    groups = (ATTRS[:2], ATTRS[2:]) if split else (ATTRS,)
    return PhysicalPartition(pid=pid, segments=[
        PhysicalSegment(
            attributes=attrs, tuple_ids=tids,
            columns={a: rng.integers(0, 1_000, n).astype(np.int32) for a in attrs},
        )
        for attrs in groups
    ])


def answers(view, catalog, probes, every):
    """What a pinned view and its catalog value say: owner probes, zone
    arrays, hidden tids, and per tid whether it is deleted."""
    return (
        [view.partitions_with_missing_cells(a, tids) for a in ATTRS for tids in probes],
        [zone.tolist() for a in ATTRS for zone in view.index.zones(a)],
        None if view.hidden is None else view.hidden.tolist(),
        catalog.deleted(every).tolist(),
    )


def bare(pid, segments, zone=(0.0, 1.0)):
    """A bare catalog entry of ``(attributes, tids)`` segments."""
    attributes = frozenset().union(*(attrs for attrs, _tids in segments))
    return PartitionInfo(
        pid=pid, key=f"p{pid}", n_bytes=1, attributes=attributes,
        n_tuples=len(set().union(*(tids for _attrs, tids in segments))),
        zone_map={a: zone for a in attributes},
        segment_attrs=[tuple(a for a in ATTRS if a in attrs) for attrs, _tids in segments],
        segment_tids=[np.asarray(tids, dtype=np.int64) for _attrs, tids in segments],
        segment_tid_modes=["explicit"] * len(segments),
    )


class TestViewsOutliveLaterCommits:
    """A write commit extends the head's owner maps, zone arrays and
    deletion stamps in place, past what earlier values publish.  Whatever
    was published before stays what it was."""

    def test_a_view_pinned_before_later_commits_answers_unchanged(self):
        rng = np.random.default_rng(17)
        manager = new_manager()
        for part in halves(0):
            manager.add_partition(part)
        manager.advance_version(deleted=[3, 17])
        view = manager.pin_snapshot()
        catalog = manager._head
        domain = view.index.tid_domain()
        probes = PROBES + [
            np.arange(domain, domain + 64, dtype=np.int64),  # what later commits store
            np.arange(0, domain + 64, 3, dtype=np.int64),
        ]
        every = np.arange(domain + 64, dtype=np.int64)
        before = answers(view, catalog, probes, every)  # builds every map and zone array
        live = set(range(domain)) - {3, 17}
        for step in range(12):
            first, n = manager.tid_end, int(rng.integers(1, 6))
            doomed = sorted(rng.choice(sorted(live), size=2, replace=False).tolist())
            added = rows_partition(manager.next_pid(), first, n, rng, split=step % 4 == 3)
            if step % 3 == 0:  # insert
                manager.add_partition(added)
                doomed = []
            elif step % 3 == 1:  # update: fresh rows, the old ones deleted
                manager.swap_partitions([added], deleted=doomed)
            else:  # delete
                manager.advance_version(deleted=doomed)
                n = 0
            live = (live - set(doomed)) | set(range(first, first + n))
            with manager.pin_snapshot() as head:  # the head's memos grow
                answers(head, manager._head, probes, every)
        assert answers(view, catalog, probes, every) == before
        view.release()

        head = manager._head
        rebuilt = CatalogIndex(head.index.infos())
        for attribute in ATTRS:
            for tids in probes:
                assert head.index.partitions_with_cells(
                    attribute, tids
                ) == rebuilt.partitions_with_cells(attribute, tids)
            for grown, fresh in zip(head.index.zones(attribute), rebuilt.zones(attribute)):
                assert np.array_equal(grown, fresh)
        with manager.pin_snapshot() as again:
            assert again.hidden.tolist() == sorted(set(range(head.tid_end)) - live)

    def test_two_successors_of_one_index_keep_their_own_answers(self):
        """a3 has a hole at tids 6..17, inside its map's domain: an added
        a3 cell there is written into a copy, one past the domain in place
        when the predecessor is its buffer's newest map, else into a copy."""
        manager = new_manager()
        rest = set(ATTRS) - {"a3"}
        manager.add_partition(physical(0, [(rest, range(12)), ({"a3"}, range(6))]))
        manager.add_partition(physical(1, [(rest, range(12, 24)), ({"a3"}, range(18, 24))]))
        tids = np.arange(2 * N_TUPLES, dtype=np.int64)
        for attribute in ATTRS:
            manager.catalog_index().partitions_with_cells(attribute, tids)
            manager.catalog_index().zones(attribute)
        # A commit past the domain: the maps and zone arrays grow a spare
        # tail, so the index holds the newest prefix of each buffer.
        manager.add_partition(rows_partition(2, N_TUPLES, 2, np.random.default_rng(0)))
        index = manager.catalog_index()

        def state(of):
            return (
                [of.partitions_with_cells(a, t) for a in ATTRS for t in (tids, tids[6:18], tids[N_TUPLES:])],
                [zone.tolist() for a in ATTRS for zone in of.zones(a)],
                [of.owners(a).owner.tolist() for a in ATTRS],
            )

        mine = state(index)
        first = index.with_added([bare(3, [
            ({"a3"}, range(8, 11)), (set(ATTRS), range(N_TUPLES + 2, N_TUPLES + 6)),
        ], zone=(5.0, 6.0))])
        theirs = state(first)
        # A second derivation from the same predecessor: pid 3 again, other
        # tids and attributes.  It must not write into the first's slots.
        second = index.with_added([bare(3, [
            ({"a3"}, range(7, 10)), ({"a1", "a2"}, range(N_TUPLES + 3, N_TUPLES + 9)),
        ], zone=(7.0, 8.0))])
        third = first.with_added([bare(4, [(set(ATTRS), range(N_TUPLES + 6, N_TUPLES + 8))])])
        assert state(index) == mine == state(CatalogIndex(index.infos()))
        assert state(first) == theirs
        for derived in (first, second, third):
            assert state(derived) == state(CatalogIndex(derived.infos()))
        assert second.partitions_with_cells("a3", tids[N_TUPLES + 2:]) == ()
        assert first.partitions_with_cells("a3", tids[N_TUPLES + 2:]) == (3,)

    def test_two_successors_of_one_catalog_value_keep_their_own_deletions(self):
        base = Catalog().apply([entry(0), entry(1), entry(2)], (), deleted=[2])
        one = base.apply((), (), deleted=[0])
        two = base.apply((), (), deleted=[1])  # not the buffer's newest: a copy
        three = one.apply((), (), deleted=[1])  # one's successor, in place
        probe = np.arange(4, dtype=np.int64)
        assert base.deleted(probe).tolist() == [False, False, True, False]
        assert one.deleted(probe).tolist() == [True, False, True, False]
        assert two.deleted(probe).tolist() == [False, True, True, False]
        assert three.deleted(probe).tolist() == [True, True, True, False]
        assert two.deleted_by(two.version).tolist() == [1, 2]
        assert one.deleted_by(one.version).tolist() == [0, 2]
        assert three.tombstones.tolist() == [1]
        # A tuple is deleted once: naming it again stamps nothing.
        assert three.apply((), (), deleted=[0, 1]).tombstones.tolist() == []

    def test_owner_ranks_widen_past_255_partitions(self):
        catalog = Catalog().apply([entry(0)], ())
        probe = np.array([0, 254, 255, 299, 400], dtype=np.int64)
        catalog.index.partitions_with_cells("a1", probe)
        for pid in range(1, 300):
            catalog = catalog.apply([entry(pid)], ())
        owners = catalog.index._owners["a1"]  # carried through every commit
        assert owners.owner.dtype == np.uint16 and len(owners.pids) == 300
        assert catalog.index.partitions_with_cells("a1", probe) == (0, 254, 255, 299)
        rebuilt = CatalogIndex(catalog.index.infos())
        assert np.array_equal(rebuilt.owners("a1").owner, owners.owner)
