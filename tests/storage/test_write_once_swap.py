"""Regressions for the one write discipline: a pid names one immutable file
and a catalog entry is never edited after its swap commits.

* A swap that re-adds a live — or a retired but still pinned — pid is
  refused before anything is written.  When such a swap was an *in-place
  replace*, its put destroyed the old bytes first, so a failed read-back
  verification "aborted" into a catalog whose entry no longer matched its
  file: the pid stayed unreadable for ever.
* A view pinned across a retire and a prune attempt keeps naming entries
  that compare equal, field by field, to what it pinned.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

from repro.errors import InvalidPartitioningError
from repro.storage import (
    BALOS_HDD,
    TID_CATALOG,
    TID_EXPLICIT,
    MemoryBlobStore,
    PartitionManager,
    PhysicalPartition,
    PhysicalSegment,
    RetryPolicy,
    SegmentSpec,
    StorageDevice,
    build_physical_partition,
)


class FlakyStore(MemoryBlobStore):
    """Counts puts; once armed, the next ``get`` returns a bit-flipped copy
    (the stored bytes stay whole)."""

    def __init__(self):
        super().__init__()
        self.n_puts = 0
        self.flip_next_get = False

    def put(self, key, data):
        self.n_puts += 1
        super().put(key, data)

    def get(self, key):
        data = super().get(key)
        if self.flip_next_get:
            self.flip_next_get = False
            damaged = bytearray(data)
            damaged[len(damaged) // 2] ^= 0x10
            return bytes(damaged)
        return data


def halves(table, pids):
    n = table.n_tuples
    return [
        build_physical_partition(
            pid, [SegmentSpec(("a1", "a2"), tids)], table, TID_EXPLICIT
        )
        for pid, tids in zip(
            pids,
            (np.arange(n // 2, dtype=np.int64), np.arange(n // 2, n, dtype=np.int64)),
        )
    ]


def with_a3(partition: PhysicalPartition, table) -> PhysicalPartition:
    """``partition`` plus an ``a3`` segment — what an in-place replace used
    to write over the pid's file."""
    tids = partition.all_tuple_ids()
    return PhysicalPartition(partition.pid, [
        *partition.segments,
        PhysicalSegment(
            attributes=("a3",), tuple_ids=tids,
            columns={"a3": table.column("a3")[tids]},
            tid_storage=TID_CATALOG,
        ),
    ])


@pytest.fixture()
def manager(small_table):
    manager = PartitionManager(
        small_table.schema, StorageDevice(BALOS_HDD), FlakyStore(),
        retry_policy=RetryPolicy(max_attempts=1),
    )
    manager.swap_partitions(halves(small_table, (0, 1)))
    return manager


def snapshot_of(store):
    return {key: bytes(store.get(key)) for key in store.keys()}


class TestReaddingAPidIsRefusedBeforeAnyPut:
    def check_refused(self, manager, small_table, pid, original):
        store = manager.store
        stored = snapshot_of(store)
        version, puts = manager.catalog_version, store.n_puts
        entry = manager.info(pid)
        store.flip_next_get = True  # would fail the read-back verification
        with pytest.raises(InvalidPartitioningError, match="written once"):
            manager.swap_partitions(
                [with_a3(original, small_table)], remove=[pid], verify=True
            )
        store.flip_next_get = False
        assert store.n_puts == puts
        assert snapshot_of(store) == stored
        assert manager.catalog_version == version
        assert manager.info(pid) is entry
        partition, _delta = manager.load(pid)
        assert len(partition.segments) == 1
        assert np.array_equal(
            partition.segments[0].columns["a1"],
            small_table.column("a1")[partition.segments[0].tuple_ids],
        )

    def test_live_pid(self, manager, small_table):
        self.check_refused(manager, small_table, 0, halves(small_table, (0, 1))[0])
        assert manager.pids() == (0, 1) and manager.retired_pids() == ()

    def test_retired_but_pinned_pid(self, manager, small_table):
        original = halves(small_table, (0, 1))[0]
        with manager.pin_snapshot() as view:
            manager.swap_partitions(
                [PhysicalPartition(manager.next_pid(), original.segments)],
                remove=[0],
            )
            assert manager.prune_retired() == 0  # the pin holds pid 0
            self.check_refused(manager, small_table, 0, original)
            assert manager.retired_pids() == (0,)
            assert view.info(0) is manager.info(0)

    def test_mixed_swap_puts_nothing_either(self, manager, small_table):
        """One taken pid among fresh ones refuses the whole swap."""
        fresh, taken = halves(small_table, (7, 1))
        puts = manager.store.n_puts
        with pytest.raises(InvalidPartitioningError):
            manager.swap_partitions([fresh, taken], remove=[0])
        assert manager.store.n_puts == puts
        assert manager.pids() == (0, 1)
        assert "p000007.jig" not in manager.store


def entry_fields(info):
    fields = {}
    for field in dataclasses.fields(info):
        value = getattr(info, field.name)
        if field.name == "segment_tids":
            value = [tids.tobytes() for tids in value]
        elif field.name == "_tuple_ids_cache":
            continue  # a memo, not catalog state
        fields[field.name] = value
    return fields


def test_pinned_entries_are_not_edited_by_retire_or_prune(manager, small_table):
    with manager.pin_snapshot() as view:
        entries = {pid: view.info(pid) for pid in sorted(view.pids)}
        before = {pid: entry_fields(info) for pid, info in entries.items()}
        assert [info.version for info in entries.values()] == [1, 1]

        # Retire both under the pin (two commits), then try to prune.
        moved = halves(small_table, (2, 3))
        manager.swap_partitions([moved[0]], remove=[0])
        manager.swap_partitions([moved[1]], remove=[1])
        assert manager.retired_pids() == (0, 1)
        assert manager.prune_retired() == 0

        for pid, info in entries.items():
            assert view.info(pid) is info
            assert entry_fields(info) == before[pid]
            partition, _delta = manager.load(pid)
            assert partition.pid == pid
    # The retiring versions live in the manager's own bookkeeping: with the
    # pin gone a prune takes both and raises the floor to the later one.
    assert manager.prune_retired() == 2
    assert manager.floor_version() == 3


class BlockingStore(FlakyStore):
    """Once armed, the next put signals ``entered`` and then waits for
    ``release`` before it writes."""

    def __init__(self):
        super().__init__()
        self.armed = False
        self.entered = threading.Event()
        self.release = threading.Event()

    def put(self, key, data):
        if self.armed:
            self.armed = False
            self.entered.set()
            self.release.wait(timeout=10)
        super().put(key, data)


class TestAPidIsHandedOutOnce:
    """``next_pid`` never returns a pid the catalog ever held, and two
    stages never write the same pid's file."""

    def test_a_pruned_pid_is_not_handed_out_again(self, manager, small_table):
        manager.swap_partitions([], remove=[1])
        assert manager.prune_retired() == 1
        assert manager.next_pid() == 2
        manager.swap_partitions(halves(small_table, (manager.next_pid(), 3))[:1])
        assert manager.pids() == (0, 2)
        assert "p000001.jig" not in manager.store

    def test_a_pid_staged_by_a_concurrent_swap_is_refused(self, small_table):
        store = BlockingStore()
        manager = PartitionManager(
            small_table.schema, StorageDevice(BALOS_HDD), store
        )
        manager.swap_partitions(halves(small_table, (0, 1)))
        pid = manager.next_pid()
        first, second = halves(small_table, (pid, pid))
        version = manager.catalog_version
        committed = []
        store.armed = True
        writer = threading.Thread(
            target=lambda: committed.extend(manager.swap_partitions([first]))
        )
        writer.start()
        try:
            assert store.entered.wait(timeout=10)  # first's put is in flight
            puts = store.n_puts
            with pytest.raises(InvalidPartitioningError, match="written once"):
                manager.swap_partitions([second])
            assert store.n_puts == puts
        finally:
            store.release.set()
            writer.join(timeout=10)
        assert manager.catalog_version == version + 1
        assert [info.pid for info in committed] == [pid]
        assert manager.info(pid) is committed[0]
        partition, _delta = manager.load(pid)
        assert np.array_equal(
            partition.segments[0].tuple_ids, first.segments[0].tuple_ids
        )
