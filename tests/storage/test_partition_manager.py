"""Unit tests for the partition manager and its two indexes."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import (
    CostModel,
    IOModel,
    JigsawPartitioner,
    PartitionerConfig,
    TableSchema,
)
from repro.errors import (
    InvalidPartitioningError,
    PartitionNotFoundError,
    StorageError,
)
from repro.storage import (
    BALOS_HDD,
    BufferPool,
    ColumnTable,
    PartitionManager,
    PhysicalPartition,
    PhysicalSegment,
    SegmentSpec,
    StorageDevice,
    TID_CATALOG,
    TID_EXPLICIT,
    TID_IMPLICIT,
    build_physical_partition,
    checksum_overhead,
)


@pytest.fixture()
def manager(small_table):
    device = StorageDevice(BALOS_HDD)
    return PartitionManager(small_table.schema, device)


def materialize_two_partitions(manager, small_table):
    n = small_table.n_tuples
    first_half = np.arange(n // 2, dtype=np.int64)
    second_half = np.arange(n // 2, n, dtype=np.int64)
    manager.materialize_specs(
        [
            [SegmentSpec(("a1", "a2"), first_half)],
            [SegmentSpec(("a1", "a3"), second_half)],
        ],
        small_table,
        tid_storage=TID_CATALOG,
    )


class TestMaterializeAndLoad:
    def test_load_roundtrip_charges_io(self, manager, small_table):
        materialize_two_partitions(manager, small_table)
        partition, io_delta = manager.load(0)
        assert io_delta.io_time_s > 0
        assert io_delta.bytes_read == manager.info(0).n_bytes
        assert manager.device.stats.bytes_read == manager.info(0).n_bytes
        segment = partition.segments[0]
        assert np.array_equal(
            segment.columns["a1"], small_table.column("a1")[segment.tuple_ids]
        )

    def test_unknown_pid_raises(self, manager, small_table):
        materialize_two_partitions(manager, small_table)
        with pytest.raises(PartitionNotFoundError):
            manager.load(99)
        with pytest.raises(PartitionNotFoundError):
            manager.info(99)

    def test_total_bytes_matches_store(self, manager, small_table):
        materialize_two_partitions(manager, small_table)
        # The catalog accounts v1-equivalent sizes so the simulated I/O cost
        # of a layout is unchanged by the v2 checksums; physical files are
        # bigger by exactly the per-partition CRC overhead.
        overhead = sum(
            checksum_overhead(len(manager.info(pid).segment_tids))
            for pid in manager.pids()
        )
        assert manager.total_bytes() + overhead == manager.store.total_bytes()

    def test_materialize_plan_covers_all_cells(self, small_table, small_workload):
        cost_model = CostModel(small_table.meta, IOModel.from_throughput(75, 0.001))
        tuner = JigsawPartitioner(
            cost_model,
            PartitionerConfig(min_size=1024, max_size=1 << 20, selection_enabled=False),
        )
        plan = tuner.partition(small_table.meta, small_workload)
        manager = PartitionManager(small_table.schema, StorageDevice(BALOS_HDD))
        infos = manager.materialize_plan(plan, small_table)
        cells = sum(
            len(attrs) * len(tids)
            for info in infos
            for attrs, tids in zip(info.segment_attrs, info.segment_tids)
        )
        assert cells == small_table.n_tuples * len(small_table.schema)


class TestIndexes:
    def test_attribute_level_index(self, manager, small_table):
        materialize_two_partitions(manager, small_table)
        assert set(manager.partitions_for_attribute("a1")) == {0, 1}
        assert manager.partitions_for_attribute("a2") == (0,)
        assert manager.partitions_for_attribute("a3") == (1,)
        assert manager.partitions_for_attribute("a6") == ()

    def test_partitions_for_attributes_union(self, manager, small_table):
        materialize_two_partitions(manager, small_table)
        assert manager.partitions_for_attributes(["a2", "a3"]) == (0, 1)

    def test_tuple_level_index(self, manager, small_table):
        materialize_two_partitions(manager, small_table)
        n = small_table.n_tuples
        low_tids = np.array([0, 1], np.int64)
        high_tids = np.array([n - 1], np.int64)
        assert manager.partitions_with_missing_cells("a2", low_tids) == (0,)
        assert manager.partitions_with_missing_cells("a2", high_tids) == ()
        assert manager.partitions_with_missing_cells("a3", high_tids) == (1,)

    def test_tuple_index_with_empty_request(self, manager, small_table):
        materialize_two_partitions(manager, small_table)
        empty = np.empty(0, np.int64)
        assert manager.partitions_with_missing_cells("a1", empty) == ()

    def test_info_exposes_zone_maps(self, manager, small_table):
        materialize_two_partitions(manager, small_table)
        info = manager.info(0)
        lo, hi = info.zone_map["a1"]
        half = small_table.column("a1")[: small_table.n_tuples // 2]
        assert lo == half.min() and hi == half.max()


def _physical_halves(small_table, pids=(0, 1)):
    n = small_table.n_tuples
    first = np.arange(n // 2, dtype=np.int64)
    second = np.arange(n // 2, n, dtype=np.int64)
    return (
        build_physical_partition(
            pids[0], [SegmentSpec(("a1", "a2"), first)], small_table, TID_EXPLICIT
        ),
        build_physical_partition(
            pids[1], [SegmentSpec(("a1", "a3"), second)], small_table, TID_EXPLICIT
        ),
    )


class TestSwapPartitions:
    def test_swap_bumps_version_once(self, manager, small_table):
        left, right = _physical_halves(small_table)
        infos = manager.swap_partitions([left, right])
        assert manager.catalog_version == 1
        assert [info.version for info in infos] == [1, 1]

    def test_swap_retires_removed_pids(self, manager, small_table):
        left, right = _physical_halves(small_table)
        manager.swap_partitions([left, right])
        replacement, _ = _physical_halves(small_table, pids=(2, 3))
        replacement = type(replacement)(
            pid=2, segments=replacement.segments
        )
        manager.swap_partitions([replacement], remove=[0, 1])
        assert manager.pids() == (2,)
        assert manager.retired_pids() == (0, 1)
        # Retired partitions stay readable for in-flight queries...
        assert manager.info(0).pid == 0
        partition, _delta = manager.load(0)
        assert partition.pid == 0
        # ...but vanish from every index new plans consult.
        assert 0 not in manager.partitions_for_attribute("a2")
        assert manager.partitions_for_attribute("a2") == (2,)

    def test_swap_rejects_duplicate_added_pids(self, manager, small_table):
        left, _right = _physical_halves(small_table)
        with pytest.raises(InvalidPartitioningError):
            manager.swap_partitions([left, left])

    def test_in_place_replace_is_not_retired(self, manager, small_table):
        """...it is refused: a pid names one immutable file."""
        left, right = _physical_halves(small_table)
        manager.swap_partitions([left, right])
        with pytest.raises(InvalidPartitioningError, match="written once"):
            manager.swap_partitions([left], remove=[0])
        assert manager.retired_pids() == ()
        assert manager.pids() == (0, 1)
        assert manager.catalog_version == 1
        assert manager.info(0).version == 1

    def test_prune_retired_reclaims_blobs(self, manager, small_table):
        left, right = _physical_halves(small_table)
        manager.swap_partitions([left, right])
        fresh, _ = _physical_halves(small_table, pids=(2, 3))
        manager.swap_partitions([fresh], remove=[0, 1])
        keys = {manager.info(pid).key for pid in (0, 1)}
        assert manager.prune_retired() == 2
        assert manager.retired_pids() == ()
        remaining = set(manager.store.keys())
        assert not (keys & remaining)
        with pytest.raises(PartitionNotFoundError):
            manager.info(0)

    def test_prune_retired_respects_version_floor(self, manager, small_table):
        left, right = _physical_halves(small_table)
        manager.swap_partitions([left, right])           # version 1
        fresh0, _ = _physical_halves(small_table, pids=(2, 3))
        manager.swap_partitions([fresh0], remove=[0])    # version 2, retires 0
        fresh1, _ = _physical_halves(small_table, pids=(3, 4))
        manager.swap_partitions([fresh1], remove=[1])    # version 3, retires 1
        reader = manager.pin_snapshot(2)
        # The manager remembers which version retired each pid: while a
        # reader pins v2, a prune spares the partition v3 retired (pid 1,
        # still live at v2) and takes the one v2 itself retired.  The
        # entries keep the version they became visible at.
        assert manager.info(0).version == 1 and manager.info(1).version == 1
        assert manager.prune_retired() == 1
        assert manager.retired_pids() == (1,)
        reader.release()
        assert manager.prune_retired() == 1
        assert manager.retired_pids() == ()

    def test_next_pid_skips_retired(self, manager, small_table):
        left, right = _physical_halves(small_table)
        manager.swap_partitions([left, right])
        fresh, _ = _physical_halves(small_table, pids=(2, 3))
        manager.swap_partitions([fresh], remove=[0, 1])
        assert manager.next_pid() == 3

    def test_failed_staging_rolls_back_new_blobs(self, manager, small_table):
        left, right = _physical_halves(small_table)
        manager.swap_partitions([left])
        n_keys_before = len(list(manager.store.keys()))

        put = manager.store.put
        calls = {"n": 0}

        def failing_put(key, data):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise StorageError("disk full")
            put(key, data)

        manager.store.put = failing_put
        fresh_left, fresh_right = _physical_halves(small_table, pids=(5, 6))
        with pytest.raises(StorageError):
            manager.swap_partitions([fresh_left, fresh_right], remove=[0])
        manager.store.put = put
        # Old catalog fully intact; the staged pid-5 blob was rolled back.
        assert manager.pids() == (0,)
        assert manager.retired_pids() == ()
        assert manager.catalog_version == 1
        assert len(list(manager.store.keys())) == n_keys_before
        partition, _delta = manager.load(0)
        assert partition.pid == 0

    def test_verify_failure_aborts_and_keeps_old_layout(self, small_table):
        from repro.storage import FaultConfig, FaultInjectingBlobStore, MemoryBlobStore

        device = StorageDevice(BALOS_HDD)
        inner = MemoryBlobStore()
        manager = PartitionManager(small_table.schema, device, store=inner)
        left, right = _physical_halves(small_table)
        manager.swap_partitions([left])
        # Every get of the would-be pid-7 key fails: verification must abort.
        key = manager._key(7)
        manager.store = FaultInjectingBlobStore(
            inner, seed=1,
            overrides={key: FaultConfig(transient_error_rate=1.0)},
        )
        fresh = type(right)(pid=7, segments=right.segments)
        with pytest.raises(StorageError, match="read-back verification"):
            manager.swap_partitions([fresh], remove=[0], verify=True)
        assert manager.pids() == (0,)
        assert manager.retired_pids() == ()
        assert key not in set(inner.keys())

    def test_swap_invalidates_buffer_pool(self, small_table):
        device = StorageDevice(BALOS_HDD)
        manager = PartitionManager(
            small_table.schema, device, buffer_pool=BufferPool(1 << 20)
        )
        left, right = _physical_halves(small_table)
        manager.swap_partitions([left, right])
        manager.load(0)
        manager.load(1)
        assert manager.buffer_pool.get(0) is not None
        (moved,) = _physical_halves(small_table, pids=(2, 3))[:1]
        manager.swap_partitions([moved], remove=[0])
        # The retired pid gives up its slot; an untouched one keeps it.
        assert manager.buffer_pool.get(0) is None
        assert manager.buffer_pool.get(1) is not None


def _three_mode_partition(small_table, pid=0):
    """One partition with an explicit, an implicit and a catalog segment."""
    parts = [
        build_physical_partition(
            pid, [SegmentSpec(attrs, np.asarray(tids, dtype=np.int64))], small_table, mode
        ).segments[0]
        for attrs, tids, mode in (
            (("a1", "a2"), [3, 4, 9, 40], TID_EXPLICIT),
            (("a3",), range(100, 160), TID_IMPLICIT),
            (("a4", "a6"), [7, 8, 4000], TID_CATALOG),
        )
    ]
    return PhysicalPartition(pid, parts)


class TestCatalogFrame:
    """The catalog entry frames the file: its tuple-ID arrays are validated
    and frozen at write time and shared with every decoded segment."""

    def test_decoded_tuple_ids_are_the_read_only_catalog_arrays(
        self, manager, small_table
    ):
        physical = _three_mode_partition(small_table)
        info = manager.add_partition(physical)
        assert info.segment_tid_modes == [TID_EXPLICIT, TID_IMPLICIT, TID_CATALOG]
        partition, _delta = manager.load(0, columns=frozenset({"a3"}))
        for segment, source, tids in zip(
            partition.segments, physical.segments, info.segment_tids
        ):
            assert segment.tuple_ids is tids
            assert not tids.flags.writeable
            with pytest.raises(ValueError):
                tids[0] = -1
            assert np.array_equal(tids, source.tuple_ids)
            for name in segment.attributes:
                assert np.array_equal(
                    segment.columns[name], small_table.column(name)[tids]
                )

    def test_catalog_does_not_alias_the_writer_arrays(self, manager, small_table):
        physical = _three_mode_partition(small_table)
        info = manager.add_partition(physical)
        for segment, tids in zip(physical.segments, info.segment_tids):
            assert not np.shares_memory(segment.tuple_ids, tids)
            assert segment.tuple_ids.flags.writeable

    def test_unordered_tuple_ids_are_rejected_at_write_time(self, manager, small_table):
        for tids in ([5, 3, 9], [3, 3, 9]):
            tids = np.asarray(tids, dtype=np.int64)
            segment = PhysicalSegment(
                ("a1",), tids, small_table.gather(("a1",), tids), TID_EXPLICIT
            )
            with pytest.raises(InvalidPartitioningError, match="ascending"):
                manager.add_partition(PhysicalPartition(0, [segment]))
        assert len(manager) == 0

    def test_attributes_out_of_schema_order_are_rejected_at_write_time(
        self, manager, small_table
    ):
        tids = np.arange(4, dtype=np.int64)
        segment = PhysicalSegment(
            ("a2", "a1"), tids, small_table.gather(("a2", "a1"), tids), TID_EXPLICIT
        )
        with pytest.raises(InvalidPartitioningError, match="schema order"):
            manager.add_partition(PhysicalPartition(0, [segment]))

    @pytest.mark.overwrites_blobs
    def test_blob_disagreeing_with_the_catalog_is_unreadable(self, manager, small_table):
        """A well-formed file of another shape under the key is refused."""
        left, right = _physical_halves(small_table)
        manager.swap_partitions([left, right])
        store = manager.store
        store.put(manager.info(0).key, store.get(manager.info(1).key))
        with pytest.raises(StorageError, match="disagrees with the catalog"):
            manager.load(0)


class TestVerifyOnce:
    """One full CRC pass per stored bytes object; every put stores a new
    object, which is verified again."""

    @staticmethod
    def n_hashed(manager, crc_calls, pid):
        """Bytes CRC-ed by one pool-less load of ``pid``."""
        crc_calls.clear()
        manager.load(pid)
        return sum(crc_calls)

    def test_second_read_of_a_stored_blob_skips_the_crc(
        self, manager, small_table, crc_calls
    ):
        manager.swap_partitions(_physical_halves(small_table))
        stored = manager.store.size(manager.info(0).key)
        assert self.n_hashed(manager, crc_calls, 0) == stored - checksum_overhead(1)
        assert self.n_hashed(manager, crc_calls, 0) == 0
        assert self.n_hashed(manager, crc_calls, 1) > 0  # per object, not per store

    @pytest.mark.overwrites_blobs
    def test_rewrites_are_verified_again(self, manager, small_table, crc_calls):
        left, right = _physical_halves(small_table)
        manager.swap_partitions([left, right])
        full = self.n_hashed(manager, crc_calls, 0)
        assert full > 0 and self.n_hashed(manager, crc_calls, 0) == 0

        # The manager never rewrites a key; a store that is handed the same
        # bytes again (a restore, a repair) still holds an unverified object.
        key = manager.info(0).key
        manager.store.put(key, bytes(manager.store.get(key)))
        assert self.n_hashed(manager, crc_calls, 0) == full
        assert self.n_hashed(manager, crc_calls, 0) == 0

        (moved,) = _physical_halves(small_table, pids=(2, 3))[:1]
        manager.swap_partitions([moved], remove=[0])
        assert self.n_hashed(manager, crc_calls, 2) == full
        assert self.n_hashed(manager, crc_calls, 2) == 0
        assert self.n_hashed(manager, crc_calls, 1) > 0  # untouched, never read

    def test_verified_read_back_counts_as_the_verification(
        self, manager, small_table, crc_calls
    ):
        manager.swap_partitions(_physical_halves(small_table), verify=True)
        assert self.n_hashed(manager, crc_calls, 0) == 0


def test_pool_miss_load_allocates_a_frame_not_the_partition():
    """A pool-miss read of a 60 000-row implicit partition (a 240 KB column
    file) builds a frame over the blob and the catalog's tuple IDs: no
    table-length array, no copy of the bytes."""
    n = 60_000
    schema = TableSchema.uniform([f"a{i}" for i in range(1, 25)])
    rng = np.random.default_rng(0)
    table = ColumnTable.build(
        "T",
        schema,
        {name: rng.integers(0, 100_000, n).astype(np.int32) for name in schema.attribute_names},
    )
    manager = PartitionManager(
        schema, StorageDevice(BALOS_HDD), buffer_pool=BufferPool(1 << 20)
    )
    manager.materialize_specs(
        [[SegmentSpec(("a5",), np.arange(n, dtype=np.int64))]], table, TID_IMPLICIT
    )
    info = manager.info(0)
    assert info.segment_tid_modes == [TID_IMPLICIT] and info.n_bytes >= 4 * n

    def miss():
        manager.buffer_pool.invalidate(0)
        partition, delta = manager.load(0, columns=frozenset({"a5"}))
        assert delta.n_pool_hits == 0 and delta.bytes_read == info.n_bytes
        return partition

    miss()  # verify the blob, warm the dtype cache
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        partition = miss()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 64 * 1024
    column = partition.segments[0].columns["a5"]
    assert np.array_equal(column, table.column("a5"))
    assert partition.segments[0].tuple_ids is info.segment_tids[0]
