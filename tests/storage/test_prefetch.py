"""The read-ahead pipeline: staged outcomes, accounting identity under
concurrency, and the per-key fault-latency drain regression."""

import threading

import numpy as np
import pytest

from repro.errors import PartitionUnreadableError
from repro.storage import (
    BALOS_HDD,
    FaultConfig,
    FaultInjectingBlobStore,
    MemoryBlobStore,
    PartitionManager,
    PhysicalPartition,
    Prefetcher,
    RetryPolicy,
    SegmentSpec,
    StorageDevice,
    TID_CATALOG,
)

N_PARTITIONS = 8


def build_manager(table, store=None, policy=None):
    manager = PartitionManager(
        table.schema,
        StorageDevice(BALOS_HDD),
        store if store is not None else MemoryBlobStore(),
        retry_policy=policy,
    )
    n = table.n_tuples
    chunk = n // N_PARTITIONS
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


class TestPrefetcher:
    def test_staged_outcome_matches_inline_load(self, small_table):
        store = MemoryBlobStore()
        prefetched = build_manager(small_table, store)
        inline = build_manager(small_table, MemoryBlobStore())
        pids = list(prefetched.pids())

        prefetcher = Prefetcher(prefetched, depth=4)
        try:
            prefetcher.start(pids)
            for pid in pids:
                staged = prefetcher.take(pid)
                expected_partition, expected_delta = inline.load(pid)
                if staged is None:  # claimed before a worker started it
                    partition, delta = prefetched.load(pid)
                else:
                    partition, delta = staged
                assert delta == expected_delta
                for got, want in zip(
                    partition.segments, expected_partition.segments
                ):
                    assert np.array_equal(got.tuple_ids, want.tuple_ids)
                    for name in got.attributes:
                        assert np.array_equal(got.columns[name], want.columns[name])
        finally:
            prefetcher.close()
        assert prefetcher.stats.n_submitted == len(pids)

    def test_take_unqueued_pid_returns_none(self, small_table):
        manager = build_manager(small_table)
        prefetcher = Prefetcher(manager, depth=2)
        try:
            assert prefetcher.take(3) is None
            prefetcher.start([3])
            outcome = prefetcher.take(3)
            if outcome is not None:
                partition, _delta = outcome
                assert partition.pid == 3
            # A consumed (or discarded) entry never serves twice.
            assert prefetcher.take(3) is None
        finally:
            prefetcher.close()

    def test_queued_but_unstarted_pid_is_discarded(self, small_table):
        manager = build_manager(small_table)
        # depth=1 with one worker: the worker stages pid 0 and then blocks
        # on the occupied slot, so the rest of the queue stays QUEUED.
        prefetcher = Prefetcher(manager, depth=1, n_threads=1)
        try:
            pids = list(manager.pids())
            prefetcher.start(pids)
            # Wait for the head of the queue to stage; the single depth slot
            # then stays occupied, so the rest of the queue cannot start.
            deadline = 200
            while prefetcher.stats.n_loaded == 0 and deadline:
                threading.Event().wait(0.01)
                deadline -= 1
            first = prefetcher.take(pids[0])
            assert first is not None  # staged, then claimed
            # Claim the tail ahead of the pipeline: with the depth slot held
            # by the next staged entry, the tail is still queued and must be
            # discarded (inline load), never block.
            assert prefetcher.take(pids[-1]) is None
        finally:
            prefetcher.close()
        assert prefetcher.stats.n_discarded >= 1
        assert (
            prefetcher.stats.n_consumed + prefetcher.stats.n_discarded
            <= prefetcher.stats.n_submitted
        )

    def test_staged_read_survives_an_unrelated_commit(self, small_table):
        """A pid names one immutable file, so a commit landing between the
        background load and its consumption cannot stale the staged read —
        not even a swap that retires the very partition (a pinned view
        keeps it loadable)."""
        manager = build_manager(small_table)
        inline = build_manager(small_table)
        prefetcher = Prefetcher(manager, depth=2)
        try:
            with manager.pin_snapshot():
                prefetcher.start([0])
                for _ in range(500):
                    if prefetcher.stats.n_loaded:
                        break
                    threading.Event().wait(0.01)
                assert prefetcher.stats.n_loaded == 1  # staged
                moved, _ = manager.load(1)
                manager.swap_partitions(
                    [PhysicalPartition(manager.next_pid(), moved.segments)],
                    remove=[0, 1],
                )
                outcome = prefetcher.take(0)
        finally:
            prefetcher.close()
        assert outcome is not None
        partition, delta = outcome
        expected_partition, expected_delta = inline.load(0)
        assert partition.pid == 0
        assert delta == expected_delta
        assert np.array_equal(
            partition.segments[0].columns["a1"],
            expected_partition.segments[0].columns["a1"],
        )
        assert prefetcher.stats.n_consumed == 1
        assert prefetcher.stats.n_discarded == 0

    def test_staged_error_reraised_with_io_delta(self, small_table):
        store = FaultInjectingBlobStore(MemoryBlobStore())
        manager = build_manager(
            small_table, store, policy=RetryPolicy(max_attempts=2)
        )
        store.overrides[manager.info(0).key] = FaultConfig(
            transient_error_rate=1.0
        )
        prefetcher = Prefetcher(manager, depth=2)
        try:
            prefetcher.start([0])
            with pytest.raises(PartitionUnreadableError) as excinfo:
                while prefetcher.take(0) is None:
                    # Claimed before the worker started: load inline, which
                    # raises the same error.
                    manager.load(0)
            assert excinfo.value.io_delta is not None
            assert excinfo.value.io_delta.n_retries == 1
        finally:
            prefetcher.close()

    def test_close_discards_unconsumed_loads(self, small_table):
        manager = build_manager(small_table)
        prefetcher = Prefetcher(manager, depth=4)
        prefetcher.start(list(manager.pids()))
        prefetcher.close()
        assert prefetcher.take(0) is None
        # Closed prefetchers ignore further submissions.
        prefetcher.start([1])
        assert prefetcher.take(1) is None


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
        assert store.consume_injected_latency() == 0.0

    def test_prefetcher_replays_serial_accounting_under_latency_faults(
        self, small_table
    ):
        """Background loads must accrue the same per-key spikes the serial
        inline path would (fault draws are per (seed, key, attempt))."""
        config = FaultConfig(latency_spike_rate=0.6, latency_spike_s=0.040)

        def fresh_manager():
            store = FaultInjectingBlobStore(
                MemoryBlobStore(), config=config, seed=13
            )
            return build_manager(small_table, store)

        serial = fresh_manager()
        serial_deltas = {pid: serial.load(pid)[1] for pid in serial.pids()}

        manager = fresh_manager()
        prefetcher = Prefetcher(manager, depth=4)
        try:
            pids = list(manager.pids())
            prefetcher.start(pids)
            for pid in pids:
                outcome = prefetcher.take(pid)
                if outcome is None:
                    outcome = manager.load(pid)
                _partition, delta = outcome
                assert delta == serial_deltas[pid], f"pid {pid} accounting drifted"
        finally:
            prefetcher.close()
