"""Slow concurrency regressions: storage read paths vs. live swaps.

The serving tier made ``swap_partitions`` a *concurrent* event: worker
threads hold pooled partitions while the adaptive daemon rewrites the
catalog under them.  These tests race the two sides directly — readers
load and scan while a swapper continuously moves partitions to fresh pids —
and assert the only acceptable outcome: every partition object any thread
ever observes carries pristine cell data, and nothing deadlocks or leaks a
thread.

Marked ``slow``: the nightly tier runs them; ``-m "not slow"`` skips.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.storage import (
    BALOS_HDD,
    BufferPool,
    MemoryBlobStore,
    PartitionManager,
    PhysicalPartition,
    SegmentSpec,
    StorageDevice,
    TID_CATALOG,
)

N_PARTITIONS = 6
N_READERS = 8
N_ITERATIONS = 50
N_SWAPS = 30
ATTRS = ("a1", "a2")


def _build_manager(table, pool=None) -> PartitionManager:
    manager = PartitionManager(
        table.schema,
        StorageDevice(BALOS_HDD),
        MemoryBlobStore(),
        buffer_pool=pool,
    )
    chunk = table.n_tuples // N_PARTITIONS
    specs = [
        [SegmentSpec(ATTRS, np.arange(i * chunk, (i + 1) * chunk,
                                      dtype=np.int64))]
        for i in range(N_PARTITIONS)
    ]
    manager.materialize_specs(specs, table, tid_storage=TID_CATALOG)
    return manager


def _make_verifier(table, errors):
    columns = {name: table.column(name) for name in ATTRS}
    def verify(partition) -> None:
        for segment in partition.segments:
            tids = segment.tuple_ids
            for name in ATTRS:
                if not np.array_equal(segment.columns[name],
                                      columns[name][tids]):
                    errors.append(f"pid {partition.pid}: corrupt {name}")
    return verify


def _swapper(manager, stop, errors):
    """Continuously move partitions to fresh pids: same cells, new catalog
    version — the shape of every adaptive migration commit.  Nothing is
    pruned, so a reader holding a just-retired pid can still load it."""
    try:
        for i in range(N_SWAPS):
            if stop.is_set():
                return
            pid = manager.pids()[i % N_PARTITIONS]
            partition, _delta = manager.load(pid)
            manager.swap_partitions(
                [PhysicalPartition(manager.next_pid(), partition.segments)],
                remove=[pid],
            )
    except Exception as exc:  # noqa: BLE001 - fail the test, not the thread
        errors.append(f"swapper: {exc!r}")


@pytest.mark.slow
class TestBufferPoolVsSwap:
    def test_held_reads_stay_pristine_under_swaps(self, small_table):
        pool = BufferPool(capacity_bytes=1 << 20)
        manager = _build_manager(small_table, pool)
        errors: list = []
        verify = _make_verifier(small_table, errors)
        stop = threading.Event()
        version_before = manager.catalog_version
        barrier = threading.Barrier(N_READERS + 1)

        def reader(thread_id: int) -> None:
            rng = np.random.default_rng(thread_id)
            try:
                barrier.wait()
                for _ in range(N_ITERATIONS):
                    pid = int(rng.choice(manager.pids()))
                    # What a serving worker does: load (a pool hit or a
                    # read) and scan.  A concurrent swap may invalidate the
                    # entry mid-scan; the object in hand must stay pristine.
                    partition, _delta = manager.load(pid)
                    verify(partition)
            except Exception as exc:  # noqa: BLE001
                errors.append(f"reader {thread_id}: {exc!r}")

        threads = [
            threading.Thread(target=reader, args=(i,))
            for i in range(N_READERS)
        ]
        swapper = threading.Thread(
            target=lambda: (barrier.wait(), _swapper(manager, stop, errors))
        )
        for thread in [*threads, swapper]:
            thread.start()
        for thread in threads:
            thread.join(120.0)
            assert not thread.is_alive(), "reader deadlocked"
        stop.set()
        swapper.join(120.0)
        assert not swapper.is_alive(), "swapper deadlocked"

        assert errors == []
        assert manager.catalog_version > version_before
        # The storm over: the pool invariant holds and reloads are pristine.
        assert pool.current_bytes <= pool.capacity_bytes
        pool.clear()
        for pid in manager.pids():
            partition, _delta = manager.load(pid)
            verify(partition)
        assert errors == []
