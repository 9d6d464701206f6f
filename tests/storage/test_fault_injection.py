"""Fault-injecting store, checksum verification, and the retry read path."""

import sys
import threading
from dataclasses import astuple

import numpy as np
import pytest

from repro.errors import (
    ChecksumError,
    PartitionUnreadableError,
    StorageError,
    TransientStorageError,
)
from repro.storage import (
    BALOS_HDD,
    FaultConfig,
    FaultInjectingBlobStore,
    MemoryBlobStore,
    PartitionManager,
    PhysicalPartition,
    RetryPolicy,
    SegmentSpec,
    StorageDevice,
    TID_CATALOG,
    checksum_overhead,
    deserialize_partition,
    serialize_partition,
)
from repro.storage.faults import _draws


@pytest.fixture()
def seeded_store():
    inner = MemoryBlobStore()
    inner.put("p1", bytes(range(256)) * 8)
    inner.put("p2", b"payload-two" * 50)
    return inner


def faulty_manager(small_table, config=None, overrides=None, policy=None):
    """A two-partition manager whose store injects the given faults."""
    store = FaultInjectingBlobStore(
        MemoryBlobStore(), config=config, overrides=overrides
    )
    manager = PartitionManager(
        small_table.schema,
        StorageDevice(BALOS_HDD),
        store,
        retry_policy=policy,
    )
    n = small_table.n_tuples
    manager.materialize_specs(
        [
            [SegmentSpec(("a1", "a2"), np.arange(n, dtype=np.int64))],
            [SegmentSpec(("a3",), np.arange(n, dtype=np.int64))],
        ],
        small_table,
        tid_storage=TID_CATALOG,
    )
    return manager, store


class TestFaultConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(transient_error_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(corruption_rate=-0.1)

    def test_default_is_transparent(self, seeded_store):
        wrapper = FaultInjectingBlobStore(seeded_store)
        assert wrapper.get("p1") == seeded_store.get("p1")
        assert wrapper.stats.n_gets == 1
        assert wrapper.stats.n_transient_errors == 0
        assert wrapper.consume_injected_latency("p1") == 0.0


class TestDeterminism:
    def test_draws_are_pure(self):
        assert _draws(7, "k", 0, 5) == _draws(7, "k", 0, 5)
        assert _draws(7, "k", 0, 5) != _draws(8, "k", 0, 5)
        assert _draws(7, "k", 0, 5) != _draws(7, "k", 1, 5)

    def test_same_seed_replays_identically(self, seeded_store):
        def run(seed):
            wrapper = FaultInjectingBlobStore(
                seeded_store,
                FaultConfig(transient_error_rate=0.4, corruption_rate=0.4),
                seed=seed,
            )
            outcomes = []
            for _ in range(20):
                try:
                    outcomes.append(wrapper.get("p1"))
                except TransientStorageError:
                    outcomes.append("transient")
            return outcomes

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_attempt_counter_gives_fresh_draws(self, seeded_store):
        """Retries must not see the same verdict forever at partial rates."""
        wrapper = FaultInjectingBlobStore(
            seeded_store, FaultConfig(transient_error_rate=0.5), seed=0
        )
        verdicts = set()
        for _ in range(30):
            try:
                wrapper.get("p1")
                verdicts.add("ok")
            except TransientStorageError:
                verdicts.add("fail")
        assert verdicts == {"ok", "fail"}


class TestInjectedFaults:
    def test_transient_raises_storage_error(self, seeded_store):
        wrapper = FaultInjectingBlobStore(
            seeded_store, FaultConfig(transient_error_rate=1.0)
        )
        with pytest.raises(TransientStorageError):
            wrapper.get("p1")
        assert isinstance(TransientStorageError("x"), StorageError)

    def test_truncation_fails_checksum(self, schema_partition, frame_of):
        schema, partition, data = schema_partition
        store = MemoryBlobStore()
        store.put("p", data)
        wrapper = FaultInjectingBlobStore(store, FaultConfig(truncation_rate=1.0))
        truncated = wrapper.get("p")
        assert len(truncated) < len(data)
        with pytest.raises(StorageError):
            deserialize_partition(truncated, schema, frame_of(partition))

    def test_bit_flip_fails_checksum(self, schema_partition, frame_of):
        schema, partition, data = schema_partition
        store = MemoryBlobStore()
        store.put("p", data)
        wrapper = FaultInjectingBlobStore(store, FaultConfig(corruption_rate=1.0))
        corrupted = wrapper.get("p")
        assert corrupted != data
        assert len(corrupted) == len(data)
        with pytest.raises(StorageError):
            deserialize_partition(corrupted, schema, frame_of(partition))

    def test_faults_never_touch_stored_bytes(self, schema_partition):
        _schema, _partition, data = schema_partition
        store = MemoryBlobStore()
        store.put("p", data)
        wrapper = FaultInjectingBlobStore(
            store, FaultConfig(truncation_rate=1.0, corruption_rate=1.0)
        )
        wrapper.get("p")
        assert store.get("p") == data

    def test_latency_is_simulated_not_slept(self, seeded_store):
        wrapper = FaultInjectingBlobStore(
            seeded_store,
            FaultConfig(latency_spike_rate=1.0, latency_spike_s=0.5),
        )
        wrapper.get("p1")
        wrapper.get("p1")
        wrapper.get("p2")
        assert wrapper.consume_injected_latency("p1") == pytest.approx(1.0)
        assert wrapper.consume_injected_latency("p1") == 0.0
        assert wrapper.consume_injected_latency("p2") == pytest.approx(0.5)

    def test_overrides_scope_faults_to_one_key(self, seeded_store):
        wrapper = FaultInjectingBlobStore(
            seeded_store,
            overrides={"p1": FaultConfig(transient_error_rate=1.0)},
        )
        with pytest.raises(TransientStorageError):
            wrapper.get("p1")
        assert wrapper.get("p2") == seeded_store.get("p2")


@pytest.fixture()
def schema_partition(small_table):
    """A serialized one-partition layout: (schema, physical, file bytes)."""
    from repro.storage import build_physical_partition

    n = small_table.n_tuples
    physical = build_physical_partition(
        0,
        [SegmentSpec(("a1", "a2"), np.arange(n, dtype=np.int64))],
        small_table,
        TID_CATALOG,
    )
    data = serialize_partition(physical, small_table.schema)
    return small_table.schema, physical, data


class TestRetryPath:
    def test_always_failing_partition_is_unreadable(self, small_table):
        manager, store = faulty_manager(
            small_table,
            overrides={"p000000.jig": FaultConfig(transient_error_rate=1.0)},
        )
        with pytest.raises(PartitionUnreadableError) as excinfo:
            manager.load(0)
        policy = manager.retry_policy
        assert excinfo.value.pid == 0
        assert store.stats.n_transient_errors == policy.max_attempts
        delta = excinfo.value.io_delta
        assert delta is not None
        assert delta.n_retries == policy.max_attempts - 1
        # Backoff is simulated time on the delta, never a real sleep.
        expected_backoff = sum(
            policy.delay_s(k) for k in range(policy.max_attempts - 1)
        )
        assert delta.io_time_s == pytest.approx(expected_backoff)

    def test_transient_fault_recovers_within_retries(self, small_table):
        # At rate 0.5 the deterministic draws for this (seed, key) fail some
        # attempts and pass others; 3 attempts are enough to get through.
        manager, store = faulty_manager(
            small_table,
            overrides={"p000000.jig": FaultConfig(transient_error_rate=0.5)},
            policy=RetryPolicy(max_attempts=10),
        )
        partition, delta = manager.load(0)
        assert partition.pid == 0
        assert store.stats.n_transient_errors >= 0
        assert delta.bytes_read > 0

    def test_corrupt_read_retries_then_succeeds(self, small_table):
        """A bit-flip on attempt 0 is caught by the checksum; the retry sees
        the pristine blob (faults only corrupt the returned copy)."""
        manager, store = faulty_manager(small_table)
        # Force exactly one corrupted attempt for partition 0 by flipping the
        # override off after the first get.
        key = "p000000.jig"
        store.overrides[key] = FaultConfig(corruption_rate=1.0)
        original_get = store.get

        def get_once(k):
            data = original_get(k)
            if k == key:
                store.overrides.pop(key, None)
            return data

        store.get = get_once
        partition, delta = manager.load(0)
        assert partition.pid == 0
        assert delta.n_retries == 1
        assert store.stats.n_bit_flips == 1

    def test_latency_spikes_charge_io_time(self, small_table):
        manager, _store = faulty_manager(
            small_table,
            config=FaultConfig(latency_spike_rate=1.0, latency_spike_s=0.25),
        )
        _partition, delta = manager.load(0)
        assert delta.io_time_s >= 0.25

    def test_missing_blob_is_unreadable_not_keyerror(self, small_table):
        manager, store = faulty_manager(small_table)
        store.inner.delete("p000000.jig")
        with pytest.raises(PartitionUnreadableError):
            manager.load(0)


class TestAccountingInvariance:
    """The checksums must not change any simulated figure (Fig 6/11)."""

    def test_load_charges_v1_equivalent_bytes(self, small_table):
        manager, store = faulty_manager(small_table)
        for pid in manager.pids():
            info = manager.info(pid)
            physical_size = store.size(info.key)
            n_segments = len(info.segment_tids)
            assert info.n_bytes == physical_size - checksum_overhead(n_segments)
            _partition, delta = manager.load(pid)
            assert delta.bytes_read == info.n_bytes


class TestChecksumDetection:
    def test_every_byte_position_is_protected(self, schema_partition, frame_of):
        """Flipping any single bit anywhere in the file must be detected."""
        schema, physical, data = schema_partition
        rng = np.random.default_rng(0)
        frame = frame_of(physical)
        for position in rng.choice(len(data) * 8, size=64, replace=False):
            corrupted = bytearray(data)
            corrupted[position // 8] ^= 1 << (position % 8)
            with pytest.raises(StorageError):
                deserialize_partition(bytes(corrupted), schema, frame)

    def test_checksum_error_names_segment(self, schema_partition, frame_of):
        schema, physical, data = schema_partition
        corrupted = bytearray(data)
        corrupted[-1] ^= 0xFF  # last cell byte: inside segment #0's body
        with pytest.raises(ChecksumError, match="segment #0"):
            deserialize_partition(bytes(corrupted), schema, frame_of(physical))


class TestVerifyReadLatency:
    """A staged blob's read-back charges no query: the latency a faulting
    store injects into verify reads is drained with them, so the next load
    of the pid pays only its own."""

    SPIKE = FaultConfig(latency_spike_rate=1.0, latency_spike_s=0.5)

    def test_next_load_pays_only_its_own_latency(self, small_table):
        manager, store = faulty_manager(small_table, config=self.SPIKE)
        source, _delta = manager.load(0)
        pid = manager.next_pid()
        (info,) = manager.swap_partitions(
            [PhysicalPartition(pid, source.segments)], remove=[0], verify=True
        )
        _partition, delta = manager.load(pid)
        device = StorageDevice(BALOS_HDD).read_delta(info.key, info.n_bytes)
        assert delta.io_time_s == pytest.approx(device.io_time_s + 0.5)

    def test_failed_verify_attempts_are_drained(self, small_table):
        manager, store = faulty_manager(small_table, config=self.SPIKE)
        source, _delta = manager.load(0)
        pid = manager.next_pid()
        key = f"p{pid:06d}.jig"
        store.overrides[key] = FaultConfig(
            latency_spike_rate=1.0, latency_spike_s=0.5, corruption_rate=1.0
        )
        with pytest.raises(StorageError, match="read-back verification"):
            manager.swap_partitions(
                [PhysicalPartition(pid, source.segments)], verify=True
            )
        assert store.stats.n_bit_flips == manager.retry_policy.max_attempts
        assert store.consume_injected_latency(key) == 0.0


def load_with_fault(manager, store, pid, fault):
    """One ``manager.load(pid)`` whose first ``get`` suffers ``fault``
    (``None``: a clean read); any retry sees the pristine blob."""
    key = manager.info(pid).key
    if fault is not None:
        store.overrides[key] = fault
    injected_get = store.get

    def get_once(k):
        try:
            return injected_get(k)
        finally:
            store.overrides.pop(key, None)

    store.get = get_once
    try:
        return manager.load(pid)
    finally:
        del store.get


FLIP = FaultConfig(corruption_rate=1.0)
TRUNCATE = FaultConfig(truncation_rate=1.0)


@pytest.mark.parametrize("fault", [FLIP, TRUNCATE], ids=["bit_flip", "truncation"])
class TestRepeatedReads:
    """The checksum verdict rides on the bytes object a clean read returned;
    a fault on a later read of the same pid is a different object and gets
    the full check — the 2nd and 5th read fail and recover like the 1st."""

    def test_fault_on_a_verified_pid_is_retried_like_the_first(
        self, small_table, fault
    ):
        reference_manager, reference_store = faulty_manager(small_table)
        _partition, first = load_with_fault(reference_manager, reference_store, 0, fault)
        assert first.n_retries == 1

        manager, store = faulty_manager(small_table)
        key = manager.info(0).key
        for read in range(1, 7):
            injected = fault if read in (2, 5) else None
            partition, delta = load_with_fault(manager, store, 0, injected)
            assert store.inner.get(key).crc_verified
            if injected is None:
                assert delta.n_retries == 0
            else:
                assert astuple(delta) == astuple(first)
            segment = partition.segments[0]
            assert np.array_equal(
                segment.columns["a2"], small_table.column("a2")[segment.tuple_ids]
            )
        assert store.stats.n_bit_flips + store.stats.n_truncations == 2
        assert store.stats.n_gets == 8

    def test_fault_on_a_verified_pid_degrades_like_the_first(
        self, small_table, fault
    ):
        policy = RetryPolicy(max_attempts=1)
        reference_manager, reference_store = faulty_manager(small_table, policy=policy)
        with pytest.raises(PartitionUnreadableError) as first:
            load_with_fault(reference_manager, reference_store, 0, fault)

        manager, store = faulty_manager(small_table, policy=policy)
        for read in range(1, 7):
            if read not in (2, 5):
                _partition, delta = load_with_fault(manager, store, 0, None)
                assert delta.n_retries == 0
                continue
            with pytest.raises(PartitionUnreadableError) as excinfo:
                load_with_fault(manager, store, 0, fault)
            assert str(excinfo.value) == str(first.value)
            assert type(excinfo.value.__cause__) is type(first.value.__cause__)
            assert astuple(excinfo.value.io_delta) == astuple(first.value.io_delta)


class TestStatsUnderThreads:
    def test_every_get_is_counted_exactly_once(self, seeded_store):
        """All counters move under the store's lock: two threads hammering
        one key lose no update, so the outcome classes partition ``n_gets``."""
        store = FaultInjectingBlobStore(
            seeded_store,
            FaultConfig(
                transient_error_rate=0.25, truncation_rate=0.35, corruption_rate=0.5
            ),
        )
        pristine = seeded_store.get("p1")
        n_threads, n_reads = 2, 3000
        clean = [0] * n_threads

        def reader(slot):
            for _ in range(n_reads):
                try:
                    if store.get("p1") is pristine:
                        clean[slot] += 1
                except TransientStorageError:
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=reader, args=(slot,)) for slot in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = store.stats
        assert stats.n_gets == n_threads * n_reads
        assert min(stats.n_transient_errors, stats.n_truncations, stats.n_bit_flips) > 0
        assert stats.n_gets == (
            stats.n_transient_errors
            + stats.n_truncations
            + stats.n_bit_flips
            + sum(clean)
        )

N_PARTITIONS = 8


def build_manager(table, store):
    """An eight-partition manager over ``store``."""
    manager = PartitionManager(table.schema, StorageDevice(BALOS_HDD), store)
    chunk = table.n_tuples // N_PARTITIONS
    specs = [
        [
            SegmentSpec(
                ("a1", "a2"),
                np.arange(i * chunk, (i + 1) * chunk, dtype=np.int64),
            )
        ]
        for i in range(N_PARTITIONS)
    ]
    manager.materialize_specs(specs, table, tid_storage=TID_CATALOG)
    return manager


@pytest.mark.slow
class TestConcurrentFaultDrain:
    def test_per_key_latency_drain_under_concurrent_readers(self, small_table):
        """Satellite regression: concurrent readers of different keys each
        drain exactly their own injected spikes — the sum of all accrued
        I/O time accounts for every injected simulated second, none lost,
        none double-drained."""
        config = FaultConfig(latency_spike_rate=0.5, latency_spike_s=0.025)
        store = FaultInjectingBlobStore(MemoryBlobStore(), config=config, seed=7)
        manager = build_manager(small_table, store)
        pids = list(manager.pids())
        n_rounds = 20
        deltas_by_thread: list = [[] for _ in pids]
        errors: list = []
        barrier = threading.Barrier(len(pids))

        def reader(index: int, pid: int) -> None:
            try:
                barrier.wait()
                for _ in range(n_rounds):
                    _partition, delta = manager.load(pid)
                    deltas_by_thread[index].append(delta)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(f"pid {pid}: {exc!r}")

        threads = [
            threading.Thread(target=reader, args=(i, pid))
            for i, pid in enumerate(pids)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

        # Every injected spike was drained into exactly one load's delta.
        total_io = sum(
            delta.io_time_s
            for deltas in deltas_by_thread
            for delta in deltas
        )
        base_device = StorageDevice(BALOS_HDD)
        base_io = sum(
            base_device.read_delta(
                manager.info(pid).key, manager.info(pid).n_bytes
            ).io_time_s
            for pid in pids
            for _ in range(n_rounds)
        )
        assert store.stats.latency_injected_s > 0
        assert total_io == pytest.approx(base_io + store.stats.latency_injected_s)
        # Nothing left pending after all readers finished.
        for pid in pids:
            assert store.consume_injected_latency(manager.info(pid).key) == 0.0
