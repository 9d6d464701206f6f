"""Read-ahead through the engines: simulated accounting must stay
bit-identical with prefetching on, results must stay oracle-exact, and the
PlanReader pin/release protocol must survive prefetch pressure over a tiny
buffer pool."""

import threading

import numpy as np
import pytest

from repro.engine.parallel import ThreadedPartitionEngine
from repro.layouts import BuildContext
from repro.plan.operators import PlanReader
from repro.plan.stats import ExecutionStats
from repro.storage import (
    BALOS_HDD,
    BufferPool,
    MemoryBlobStore,
    PartitionManager,
    Prefetcher,
    SegmentSpec,
    StorageDevice,
    TID_CATALOG,
)
from repro.testing.oracle import ORACLE_LAYOUTS, run_reference_query
from repro.testing.snapshot import collect_stats_snapshot


def prefetch_ctx(depth: int = 4) -> BuildContext:
    return BuildContext(
        file_segment_bytes=2048, schism_sample_size=100, prefetch_depth=depth
    )


class TestPrefetchAccountingIdentity:
    def test_snapshot_sweep_is_bit_identical_with_prefetch(self):
        """The full 768-entry stats snapshot, inline vs prefetch_depth=4:
        every signature (all counters except the wall clock) must match
        entry for entry — read-ahead changes *when* loads run, never what
        they cost."""
        inline = collect_stats_snapshot()
        prefetched = collect_stats_snapshot(ctx=prefetch_ctx())
        assert len(inline) == len(prefetched)
        for base, ahead in zip(inline, prefetched):
            assert base.label == ahead.label
            assert base.signature == ahead.signature, (
                f"{base.label}: accounting drifted under prefetch"
            )

    def test_results_exact_across_layouts_with_prefetch(self, rng):
        from repro.testing.oracle import random_table, random_workload

        table = random_table(rng, n_tuples=300)
        workload = random_workload(rng, table, n_queries=4)
        ctx = prefetch_ctx()
        for name, make in ORACLE_LAYOUTS:
            layout = make().build(table, workload, ctx)
            for query in workload:
                expected = run_reference_query(table, query)
                result, _ = layout.executor.execute(query)
                assert result.equals(expected), f"{name}: {query.label}"

    def test_threaded_engines_exact_with_prefetch(self, rng):
        from repro.testing.oracle import random_table, random_workload

        table = random_table(rng, n_tuples=300)
        workload = random_workload(rng, table, n_queries=4)
        irregular = dict(ORACLE_LAYOUTS)["irregular"]().build(
            table, workload, prefetch_ctx()
        )
        for strategy in ("locking", "shared"):
            engine = ThreadedPartitionEngine(
                irregular.manager, table.meta, n_threads=2,
                strategy=strategy, prefetch_depth=4,
            )
            for query in workload:
                expected = run_reference_query(table, query)
                assert engine.execute(query)[0].equals(expected), (
                    f"threaded-{strategy}: {query.label}"
                )


N_PARTITIONS = 12
N_THREADS = 6
N_ITERATIONS = 40


@pytest.mark.slow
class TestPrefetchPoolStress:
    def test_pin_release_and_eviction_under_prefetch_pressure(self, small_table):
        """Many PlanReaders with their own prefetchers hammer one manager
        whose buffer pool holds only a few partitions: every served
        partition must carry pristine cells while eviction churns."""
        pool = BufferPool(capacity_bytes=48 * 1024)  # a handful of entries
        manager = PartitionManager(
            small_table.schema,
            StorageDevice(BALOS_HDD),
            MemoryBlobStore(),
            buffer_pool=pool,
        )
        n = small_table.n_tuples
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
        manager.materialize_specs(specs, small_table, tid_storage=TID_CATALOG)
        pids = list(manager.pids())
        a1 = small_table.column("a1")

        load_lock = threading.Lock()
        errors: list = []

        def worker(thread_id: int) -> None:
            rng = np.random.default_rng(thread_id)
            try:
                for _ in range(N_ITERATIONS):
                    order = [int(p) for p in rng.permutation(pids)[:6]]
                    stats = ExecutionStats()
                    prefetcher = Prefetcher(manager, depth=3)
                    reader = PlanReader(
                        manager, stats, lock=load_lock,
                        prefetcher=prefetcher,
                    )
                    try:
                        reader.prefetch(order)
                        for pid in order:
                            partition = reader.load(pid)
                            for segment in partition.segments:
                                tids = segment.tuple_ids
                                if not np.array_equal(
                                    segment.columns["a1"], a1[tids]
                                ):
                                    errors.append(
                                        f"pid {pid}: corrupt cells served"
                                    )
                    finally:
                        prefetcher.close()
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(f"thread {thread_id}: {exc!r}")

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert pool.current_bytes <= pool.capacity_bytes
