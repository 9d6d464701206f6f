"""Tests for the parallel engines: threaded correctness + simulator shapes."""

import sys
import threading

import numpy as np
import pytest

from repro.core import Query, TableSchema, Workload
from repro.engine import PartitionAtATimeExecutor
from repro.engine.parallel import (
    ParallelSimParams,
    ThreadedPartitionEngine,
    simulate_lock_based,
    simulate_shared_scan,
)
from repro.layouts import BuildContext, IrregularLayout
from repro.plan.operators import PlanReader
from repro.storage import (
    BALOS_HDD,
    EBS_IO1,
    BufferPool,
    ColumnTable,
    DeviceProfile,
    FaultConfig,
    FaultInjectingBlobStore,
    RetryPolicy,
)
from repro.testing.snapshot import iter_snapshot_cases


@pytest.fixture()
def tiny_layout():
    """A small irregular layout."""
    rng = np.random.default_rng(5)
    schema = TableSchema.uniform([f"a{i}" for i in range(1, 7)])
    columns = {
        name: rng.integers(0, 1000, 800).astype(np.int32)
        for name in schema.attribute_names
    }
    table = ColumnTable.build("T", schema, columns)
    q1 = Query.build(table.meta, ["a2", "a3"], {"a1": (0, 399)}, label="Q1")
    q2 = Query.build(table.meta, ["a5"], {"a4": (500, 999)}, label="Q2")
    train = Workload(table.meta, [q1, q2])
    ctx = BuildContext(file_segment_bytes=2 * 1024)
    layout = IrregularLayout(selection_enabled=False).build(table, train, ctx)
    return table, layout, [q1, q2]


class TestThreadedEngines:
    @pytest.mark.parametrize("strategy", ["locking", "shared"])
    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    def test_matches_serial_engine(self, tiny_layout, strategy, n_threads):
        table, layout, queries = tiny_layout
        serial = PartitionAtATimeExecutor(layout.manager, table.meta)
        threaded = ThreadedPartitionEngine(
            layout.manager, table.meta, n_threads=n_threads, strategy=strategy
        )
        for query in queries:
            expected, _stats = serial.execute(query)
            actual, _ = threaded.execute(query)
            assert actual.equals(expected), (strategy, n_threads, query.label)

    def test_no_predicate_query(self, tiny_layout):
        table, layout, _queries = tiny_layout
        query = Query.build(table.meta, ["a6"])
        serial = PartitionAtATimeExecutor(layout.manager, table.meta)
        threaded = ThreadedPartitionEngine(layout.manager, table.meta, n_threads=3)
        expected, _stats = serial.execute(query)
        assert threaded.execute(query)[0].equals(expected)

    def test_unknown_strategy_rejected(self, tiny_layout):
        table, layout, _queries = tiny_layout
        with pytest.raises(ValueError):
            ThreadedPartitionEngine(layout.manager, table.meta, strategy="magic")

    @pytest.mark.parametrize("strategy", ["locking", "shared"])
    def test_a_worker_exception_reaches_the_caller(
        self, tiny_layout, strategy, monkeypatch
    ):
        """A worker that raises while loading its first partition (for the
        shared scan: before the barrier its peers wait at) ends ``execute``
        with that exception, every thread joined.  ``execute`` runs on a
        helper thread, so a hang fails the test instead of stalling it."""
        table, layout, queries = tiny_layout
        engine = ThreadedPartitionEngine(
            layout.manager, table.meta, n_threads=3, strategy=strategy
        )
        query = queries[0]
        victim = engine.plan(query).selection_pids()[0]
        load_run = PlanReader.load_run

        def failing(reader, pids):
            if victim in pids:
                raise RuntimeError(f"worker step failed on p{victim}")
            return load_run(reader, pids)

        barriers = []

        class Recorded(threading.Barrier):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                barriers.append(self)

        monkeypatch.setattr(PlanReader, "load_run", failing)
        monkeypatch.setattr(threading, "Barrier", Recorded)
        raised = []

        def call():
            try:
                engine.execute(query)
            except Exception as exc:
                raised.append(exc)

        caller = threading.Thread(target=call, name="execute-caller")
        caller.start()
        caller.join(30.0)
        hung = caller.is_alive()
        for barrier in barriers:  # free a peer a hang left waiting
            barrier.abort()
        caller.join(30.0)
        assert not hung, "execute hung on a failed worker"
        (error,) = raised
        assert type(error) is RuntimeError
        assert str(error) == f"worker step failed on p{victim}"
        assert len(barriers) == (1 if strategy == "shared" else 0)


@pytest.fixture(scope="module")
def fragmented():
    """The snapshot script's irregular build: a seeded 3 000 x 24 table
    trained on three narrow templates, built as ``IrregularLayout`` under a
    16 KiB pool (46 partitions, multi-segment ones among them), and 12
    seeded queries over it."""
    return _fragmented_build()


def _fragmented_build():
    rng = np.random.default_rng(0)
    names = [f"a{i}" for i in range(1, 25)]
    table = ColumnTable.build("T", TableSchema.uniform(names), {
        name: rng.integers(0, 100_000, 3_000).astype(np.int32) for name in names
    })
    meta = table.meta
    wide = ["a2", "a3", "a4", "a5", "a6", "a7", "a9", "a10"]
    train = Workload(meta, [
        Query.build(meta, wide, {"a1": (0, 9_999)}),
        Query.build(meta, wide, {"a8": (90_000, 99_999)}),
        Query.build(meta, ["a15", "a16", "a17", "a18"], {"a20": (40_000, 44_999)}),
    ])
    ctx = BuildContext(
        device_profile=DeviceProfile.from_throughput("hdd", 75.0, 0.000001),
        file_segment_bytes=2048, buffer_pool_bytes=16 * 1024,
    )
    layout = IrregularLayout().build(table, train, ctx)
    assert len(layout.manager.pids()) == 46
    queries = []
    for _ in range(12):
        where = {}
        for name in rng.choice(names, int(rng.integers(1, 3)), replace=False):
            lo = int(rng.integers(0, 90_000))
            where[str(name)] = (lo, lo + int(rng.integers(1_000, 30_000)))
        select = rng.choice(names, int(rng.integers(2, 11)), replace=False)
        queries.append(Query.build(meta, [str(n) for n in select], where))
    return layout.manager, meta, queries


def _read_set_cases(fragmented):
    for case in iter_snapshot_cases():
        if case.mode == "oracle":
            yield case.label, case.executor.manager, case.table.meta, case.query
    manager, meta, queries = fragmented
    for index, query in enumerate(queries):
        yield f"irregular/q{index}", manager, meta, query


def test_threaded_engines_read_what_the_serial_engine_reads(fragmented):
    """Jigsaw-L and Jigsaw-S at two threads read exactly as many partitions
    as the partition-at-a-time engine (zone maps off), on every oracle
    layout's snapshot queries and on a 46-partition irregular build: the
    same selection partitions, and the same projection probe over the same
    missing cells."""
    n_cases = 0
    for label, manager, meta, query in _read_set_cases(fragmented):
        expected, serial = PartitionAtATimeExecutor(manager, meta).execute(query)
        for strategy in ("locking", "shared"):
            result, stats = ThreadedPartitionEngine(
                manager, meta, strategy=strategy, n_threads=2
            ).execute(query)
            assert result.equals(expected), (label, strategy)
            assert stats.n_partition_reads == serial.n_partition_reads, (
                label, strategy,
            )
            n_cases += 1
    assert n_cases == 2 * (3 * 8 * 8 + 12)


@pytest.mark.parametrize("strategy", ["locking", "shared"])
def test_a_failed_load_stops_the_selection_queue(fragmented, strategy, monkeypatch):
    """When a worker's load raises, its peers stop popping the selection
    queue: at most ``n_threads`` loads follow the failing one (those in
    flight), not every pid left.  A long switch interval keeps the failing
    thread from being preempted between its raise and the stop flag, so
    the bound is exact rather than likely."""
    manager, meta, _queries = fragmented
    n_threads = 3
    engine = ThreadedPartitionEngine(
        manager, meta, n_threads=n_threads, strategy=strategy
    )
    query = Query.build(meta, ["a3"], {
        name: (0, 99_999) for name in ("a2", "a11", "a15")
    })
    pids = engine.plan(query).selection_pids()
    assert len(pids) > 4 * n_threads
    victim = pids[2]
    load_run = PlanReader.load_run
    calls = []

    def failing(reader, run):  # a worker loads the pid it pops as a run
        calls.extend(run)
        if victim in run:
            raise RuntimeError(f"load failed on p{victim}")
        return load_run(reader, run)

    monkeypatch.setattr(PlanReader, "load_run", failing)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1.0)
    try:
        with pytest.raises(RuntimeError, match=f"load failed on p{victim}"):
            engine.execute(query)
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) - calls.index(victim) - 1 <= n_threads


def _flaky(manager):
    """``manager`` reading through a store whose transient errors are a
    pure function of (key, attempt), under a pool that holds every
    partition and a retry budget no read of this table exhausts."""
    manager.store = FaultInjectingBlobStore(
        manager.store, FaultConfig(transient_error_rate=0.3), seed=3
    )
    manager.buffer_pool = BufferPool(1 << 24)
    manager.retry_policy = RetryPolicy(max_attempts=12)
    return manager


@pytest.mark.parametrize("strategy", ["locking", "shared"])
def test_eight_threads_over_a_flaky_pool_read_as_the_serial_engine(strategy):
    """Jigsaw-L/S at eight threads load with no load lock, each popped pid
    a one-pid run: over a pooled manager whose store injects transient
    errors, every query returns the serial engine's result, and the
    threads' summed reads and retries equal the serial engine's on an
    identical build."""
    serial_manager, meta, queries = _fragmented_build()
    threaded_manager, _meta, _queries = _fragmented_build()
    serial = PartitionAtATimeExecutor(_flaky(serial_manager), meta)
    threaded = ThreadedPartitionEngine(
        _flaky(threaded_manager), meta, strategy=strategy, n_threads=8
    )
    n_retries = 0
    for query in queries:
        expected, want = serial.execute(query)
        result, got = threaded.execute(query)
        assert result.equals(expected)
        assert (got.n_partition_reads, got.n_retries) == (
            want.n_partition_reads, want.n_retries
        )
        n_retries += got.n_retries
    assert n_retries > 0


def test_eight_threads_share_one_status_vector_and_fill_op(fragmented):
    """Eight threads on two cores under a 1 us switch interval: every
    status transition and every fill share lands, so each strategy equals
    the serial engine.  The full-table result, repeated, fills through the
    dense ``tid -> row`` map the threads share: one published before it
    was built failed about one execution in ten."""
    manager, meta, queries = fragmented
    queries = [*queries, *[Query.build(meta, ["a3", "a9", "a21"])] * 20]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for query in queries:
            expected, _ = PartitionAtATimeExecutor(manager, meta).execute(query)
            for strategy in ("locking", "shared"):
                result, _ = ThreadedPartitionEngine(
                    manager, meta, strategy=strategy, n_threads=8
                ).execute(query)
                assert result.equals(expected), strategy
    finally:
        sys.setswitchinterval(interval)


class TestSimulator:
    SIZES = [8 << 20] * 64
    TUPLES = [100_000] * 64

    def test_lock_based_beats_shared_at_few_threads(self):
        lock = simulate_lock_based(self.SIZES, self.TUPLES, 8, EBS_IO1)
        shared = simulate_shared_scan(self.SIZES, self.TUPLES, 8, EBS_IO1)
        assert lock.total_s < shared.total_s

    def test_shared_beats_lock_at_many_threads(self):
        lock = simulate_lock_based(self.SIZES, self.TUPLES, 36, EBS_IO1)
        shared = simulate_shared_scan(self.SIZES, self.TUPLES, 36, EBS_IO1)
        assert shared.total_s < lock.total_s

    def test_lock_compute_grows_with_threads(self):
        few = simulate_lock_based(self.SIZES, self.TUPLES, 8, EBS_IO1)
        many = simulate_lock_based(self.SIZES, self.TUPLES, 36, EBS_IO1)
        assert many.compute_s >= few.compute_s

    def test_shared_compute_shrinks_with_threads(self):
        few = simulate_shared_scan(self.SIZES, self.TUPLES, 8, EBS_IO1)
        many = simulate_shared_scan(self.SIZES, self.TUPLES, 36, EBS_IO1)
        assert many.compute_s < few.compute_s

    def test_shared_io_grows_with_threads(self):
        few = simulate_shared_scan(self.SIZES, self.TUPLES, 8, EBS_IO1)
        many = simulate_shared_scan(self.SIZES, self.TUPLES, 36, EBS_IO1)
        assert many.io_s > few.io_s

    def test_single_thread_has_no_waiting(self):
        lock = simulate_lock_based(self.SIZES, self.TUPLES, 1, BALOS_HDD)
        assert lock.waiting_s == pytest.approx(0.0)

    def test_breakdown_total(self):
        breakdown = simulate_shared_scan(self.SIZES, self.TUPLES, 4, BALOS_HDD)
        assert breakdown.total_s == pytest.approx(
            breakdown.io_s + breakdown.compute_s + breakdown.waiting_s
        )

    def test_custom_params(self):
        params = ParallelSimParams(process_tuple_s=1e-6)
        slow = simulate_lock_based(self.SIZES, self.TUPLES, 4, BALOS_HDD, params)
        fast = simulate_lock_based(self.SIZES, self.TUPLES, 4, BALOS_HDD)
        assert slow.compute_s > fast.compute_s
