"""Concurrency stress: the buffer pool under a fault-injecting store.

Many threads load partitions through one shared manager + pool while the
store injects transient errors and bit-flips and a chaos thread invalidates
pool entries.  The assertions are about *correctness under concurrency*:
every partition object any thread ever observes carries pristine cell data
(a corrupt read must retry or fail, never serve garbage — including through
the pool), and the pool's budget invariant holds throughout.
"""

import threading

import numpy as np
import pytest

from repro.errors import PartitionUnreadableError
from repro.plan.operators import PlanReader
from repro.plan.stats import ExecutionStats
from repro.storage import (
    BALOS_HDD,
    BufferPool,
    FaultConfig,
    FaultInjectingBlobStore,
    MemoryBlobStore,
    PartitionManager,
    RetryPolicy,
    SegmentSpec,
    StorageDevice,
    TID_CATALOG,
)

N_PARTITIONS = 8
N_THREADS = 8
N_ITERATIONS = 60


def _materialize_stripes(manager, table, n_partitions) -> None:
    """Store (a1, a2) in ``n_partitions`` equal tuple stripes."""
    chunk = table.n_tuples // n_partitions
    specs = [
        [
            SegmentSpec(
                ("a1", "a2"),
                np.arange(i * chunk, (i + 1) * chunk, dtype=np.int64),
            )
        ]
        for i in range(n_partitions)
    ]
    manager.materialize_specs(specs, table, tid_storage=TID_CATALOG)


@pytest.mark.slow
class TestBufferPoolStress:
    def test_loads_stay_correct_under_faults_and_invalidation(self, small_table):
        pool = BufferPool(capacity_bytes=64 * 1024)
        store = FaultInjectingBlobStore(
            MemoryBlobStore(),
            FaultConfig(transient_error_rate=0.25, corruption_rate=0.15),
            seed=11,
        )
        manager = PartitionManager(
            small_table.schema,
            StorageDevice(BALOS_HDD),
            store,
            buffer_pool=pool,
            retry_policy=RetryPolicy(max_attempts=8),
        )
        _materialize_stripes(manager, small_table, N_PARTITIONS)

        a1, a2 = small_table.column("a1"), small_table.column("a2")
        stop = threading.Event()
        errors: list = []
        n_unreadable = [0]

        def verify(partition) -> None:
            for segment in partition.segments:
                tids = segment.tuple_ids
                if not np.array_equal(segment.columns["a1"], a1[tids]):
                    errors.append(f"pid {partition.pid}: corrupt a1 served")
                if not np.array_equal(segment.columns["a2"], a2[tids]):
                    errors.append(f"pid {partition.pid}: corrupt a2 served")

        def reader(thread_id: int) -> None:
            rng = np.random.default_rng(thread_id)
            plan_reader = PlanReader(manager, ExecutionStats())
            try:
                for _ in range(N_ITERATIONS):
                    pid = int(rng.integers(0, N_PARTITIONS))
                    # One-pid runs with no load lock, as the threaded engines
                    # read: hits and loads race concurrent put/invalidate.
                    try:
                        [(_run, [partition])] = plan_reader.load_run((pid,))
                    except PartitionUnreadableError:
                        n_unreadable[0] += 1
                        continue
                    verify(partition)
                    if pool.current_bytes > pool.capacity_bytes:
                        errors.append("pool over budget")
            except Exception as exc:  # noqa: BLE001 - fail the test, not the thread
                errors.append(f"reader {thread_id}: {exc!r}")

        def chaos() -> None:
            rng = np.random.default_rng(999)
            while not stop.is_set():
                pool.invalidate(int(rng.integers(0, N_PARTITIONS)))

        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(N_THREADS)
        ]
        chaos_thread = threading.Thread(target=chaos)
        chaos_thread.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        chaos_thread.join()

        assert errors == []
        # Faults really were injected, and some reads really did recover.
        assert store.stats.n_transient_errors > 0
        assert store.stats.n_bit_flips > 0
        # With 8 retry attempts at these rates almost everything recovers;
        # whatever did not must have aborted loudly, never returned garbage.
        assert pool.current_bytes <= pool.capacity_bytes

        # After the storm: a clean reload of every partition is pristine.
        pool.clear()
        store.config = FaultConfig()
        for pid in manager.pids():
            partition, _delta = manager.load(pid)
            verify(partition)
        assert errors == []


N_READ_PARTITIONS = 12
N_READERS = 6
N_READ_ITERATIONS = 40


@pytest.mark.slow
class TestConcurrentReaders:
    def test_eviction_under_concurrent_readers(self, small_table):
        """Plain reader threads hammer one manager whose buffer pool holds
        only a few partitions, each holding what it scans: every served
        partition must carry pristine cells while eviction churns."""
        # A few entries of ~3.3 KB: twelve partitions cannot all stay.
        pool = BufferPool(capacity_bytes=12 * 1024)
        manager = PartitionManager(
            small_table.schema,
            StorageDevice(BALOS_HDD),
            MemoryBlobStore(),
            buffer_pool=pool,
        )
        _materialize_stripes(manager, small_table, N_READ_PARTITIONS)
        pids = list(manager.pids())
        a1 = small_table.column("a1")

        errors: list = []

        def reader(thread_id: int) -> None:
            rng = np.random.default_rng(thread_id)
            plan_reader = PlanReader(manager, ExecutionStats())
            try:
                for _ in range(N_READ_ITERATIONS):
                    for pid in rng.permutation(pids)[:6].tolist():
                        [(_run, [partition])] = plan_reader.load_run((pid,))
                        for segment in partition.segments:
                            tids = segment.tuple_ids
                            if not np.array_equal(segment.columns["a1"], a1[tids]):
                                errors.append(f"pid {pid}: corrupt cells served")
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(f"thread {thread_id}: {exc!r}")

        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(N_READERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert pool.stats.n_evictions > 0
        assert pool.current_bytes <= pool.capacity_bytes
