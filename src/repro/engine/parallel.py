"""Parallel partition-at-a-time evaluation (Section 5.2.1, Algorithms 6-7).

Two deliverables live here:

1. **Real threaded implementations** of the lock-based (Jigsaw-L) and
   shared-scan (Jigsaw-S) strategies, using ``threading`` primitives exactly
   as the algorithms prescribe (bucket locks for L; a load barrier and
   disjoint tid ranges for S).  The GIL makes them useless for measuring
   speedups, but they demonstrate and test protocol correctness: both must
   produce bit-identical results to the serial engine.  Both are drivers on
   the :class:`~repro.engine.base.QueryEngine` scaffold over the vectorised
   core of :mod:`repro.plan.operators`: selection workers apply
   :meth:`~repro.plan.operators.SelectOp.transition` to one segment mask a
   bucket (L) or their own tid range (S) at a time, and projection threads
   fill disjoint shares of the scaffold's ``ProjectFillOp`` — from the
   partitions the selection loaded, then from those
   :func:`~repro.engine.base.projection_loop` names.  A worker loads each
   pid it pops as a one-pid run
   (:meth:`~repro.plan.operators.PlanReader.load_run`) and the coordinator
   the projection's pids as runs, with no load lock: the device, pool,
   fault store and catalog each hold their own.  Each worker accounts its
   reads in its own ``ExecutionStats``, the coordinator (projection loads)
   in another; the stats ``execute`` returns are their exact sum.
   An exception a worker raises — a partition that stays unreadable, say
   — ends the phase: its peers finish (a shared-scan barrier is broken
   so none waits for ever), and once every thread has ended the first
   exception leaves ``execute``.

2. **A deterministic execution simulator** that produces the Figure-5 cycle
   breakdown (I/O / computation / waiting per active thread).  The model
   captures the effects the paper explains: lock-based threads process
   disjoint partition subsets but suffer false sharing that grows with the
   thread count; shared-scan threads each scan *every* partition (paying a
   per-tuple bucket check) but write disjoint bucket ranges, and their
   concurrent loads contend for device bandwidth.
"""

from __future__ import annotations

import contextvars
import threading
from collections import deque
from dataclasses import dataclass, fields
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.schema import TableMeta
from ..obs import tracer as obs_tracer
from ..plan.operators import PlanReader, ProjectFillOp, SelectOp
from ..plan.predicates import Conjunction
from ..plan.stats import ExecutionStats
from ..storage.device import DeviceProfile
from ..storage.partition_manager import PartitionManager
from ..storage.physical import PhysicalPartition
from .base import QueryEngine, QueryRun, projection_loop

__all__ = [
    "ThreadedPartitionEngine",
    "ParallelSimParams",
    "CycleBreakdown",
    "simulate_lock_based",
    "simulate_shared_scan",
]

#: bucket locks guarding the status vector under the locking strategy.
N_BUCKETS = 64


class _Selection(SelectOp):
    """One execution's selection state — its ``loaded`` partitions are
    line 16's stash, which the projection reuses — plus the call's
    ledgers."""

    __slots__ = ("workers", "coordinator")

    def __init__(self, conjunction: Conjunction, projected: Tuple[str, ...],
                 n_tuples: int, hidden: Optional[np.ndarray], n_threads: int):
        super().__init__(conjunction, projected, n_tuples, hidden)
        self.workers = [ExecutionStats() for _ in range(n_threads)]
        self.coordinator = ExecutionStats()

    def tally(self, stats: ExecutionStats) -> None:
        """Make ``stats`` the ledgers' sum so far, re-added from zero in one
        order (workers, then coordinator): what an audit adding them gets."""
        ledgers = (*self.workers, self.coordinator)
        for name in _FIELD_NAMES:
            setattr(stats, name, sum(getattr(ledger, name) for ledger in ledgers))


_FIELD_NAMES = tuple(spec.name for spec in fields(ExecutionStats))


def _load_one(reader: PlanReader, pid: int) -> PhysicalPartition:
    """Load the pid a worker popped, as a one-pid run."""
    [(_run, [partition])] = reader.load_run((pid,))
    return partition


def _masks(
    conjunction: Conjunction, partition: PhysicalPartition
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """``(tids, passing)`` per non-empty segment: one mask over what the
    segment lets the conjunction evaluate."""
    for segment in partition.segments:
        tids = segment.tuple_ids
        if len(tids):
            yield tids, conjunction.evaluate_available(segment.columns, len(tids))[0]


class ThreadedPartitionEngine(QueryEngine):
    """Reference multi-threaded partition-at-a-time evaluation.

    ``strategy`` is ``"locking"`` (Algorithm 6) or ``"shared"`` (Algorithm 7).
    The status vector is guarded by ``N_BUCKETS`` bucket locks (``tid %
    N_BUCKETS``) in the locking strategy, or range-partitioned by ``tid %
    n_threads`` in the shared-scan strategy.
    """

    defaults = {**QueryEngine.defaults, "n_threads": 4, "strategy": "locking"}
    n_threads: int
    strategy: str

    def __init__(
        self, manager: PartitionManager, table: TableMeta, **options: Any
    ):
        super().__init__(manager, table, **options)
        if self.strategy not in ("locking", "shared"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        self.n_threads = max(1, self.n_threads)
        self.name = "jigsaw-l" if self.strategy == "locking" else "jigsaw-s"
        #: the ledgers of the execute() that finished last, workers' and
        #: coordinator's (their exact sum is the stats it returned).  Each
        #: call fills its own and assigns them here at its end.
        self.worker_stats: List[ExecutionStats] = []
        self.coordinator_stats = ExecutionStats()

    # ------------------------------------------------------------ phase 1

    def _select(self, run: QueryRun) -> _Selection:
        plan, _reader, stats = run
        conjunction = plan.logical.conjunction
        select_op = _Selection(
            conjunction, plan.logical.projected, plan.snapshot.index.tid_domain(),
            plan.snapshot.hidden, self.n_threads,
        )
        if not conjunction:
            select_op.select_all()
            return select_op
        readers = [
            PlanReader(self.manager, ledger, plan.chunk_size)
            for ledger in select_op.workers
        ]
        if self.strategy == "locking":
            self._selection_locking(plan.selection_pids(), select_op, readers)
        else:
            self._selection_shared(plan.selection_pids(), select_op, readers)
        select_op.tally(stats)
        return select_op

    def _selection_locking(self, pids, select_op, readers) -> None:
        """Algorithm 6: threads pop partitions; a segment's transitions run
        one bucket at a time, under that bucket's lock."""
        queue = deque(pids)
        queue_lock = threading.Lock()
        bucket_locks = [threading.Lock() for _ in range(N_BUCKETS)]
        conjunction = select_op.conjunction
        stop = threading.Event()

        def worker(thread_id: int) -> None:
            while True:
                with queue_lock:
                    if not queue or stop.is_set():
                        return
                    pid = queue.popleft()
                partition = _load_one(readers[thread_id], pid)
                select_op.loaded[pid] = partition
                for tids, passing in _masks(conjunction, partition):
                    buckets = tids % N_BUCKETS
                    for bucket in np.unique(buckets).tolist():
                        mine = buckets == bucket
                        with bucket_locks[bucket]:
                            select_op.transition(tids[mine], passing[mine])

        self._run_threads(worker, stop=stop)

    def _selection_shared(self, pids, select_op, readers) -> None:
        """Algorithm 7: barrier after loading; every thread scans every
        partition and transitions its own ``tid % n_threads`` range."""
        partitions: List[Optional[PhysicalPartition]] = [None] * len(pids)
        load_queue = deque(enumerate(pids))
        queue_lock = threading.Lock()
        barrier = threading.Barrier(self.n_threads)
        conjunction, n_threads = select_op.conjunction, self.n_threads
        stop = threading.Event()

        def worker(thread_id: int) -> None:
            while True:
                with queue_lock:
                    if not load_queue or stop.is_set():
                        break
                    index, pid = load_queue.popleft()
                partitions[index] = _load_one(readers[thread_id], pid)
            barrier.wait()
            for partition in partitions:
                for tids, passing in _masks(conjunction, partition):
                    mine = tids % n_threads == thread_id
                    select_op.transition(tids[mine], passing[mine])

        self._run_threads(worker, barrier, stop)
        select_op.loaded.update(zip(pids, partitions))

    # ------------------------------------------------------------ phase 2

    def _project(self, run: QueryRun, fill_op: ProjectFillOp) -> None:
        """Fill the projected cells; safe without locks (Section 5.2.1).

        Threads fill disjoint tid shares: first from the partitions the
        selection loaded, then from those the projection probe names,
        which the coordinator loads serially."""
        plan, _reader, stats = run
        select_op = fill_op.select
        assert isinstance(select_op, _Selection)
        self._fill(fill_op, list(select_op.loaded.values()))
        reader = PlanReader(self.manager, select_op.coordinator, plan.chunk_size)
        self._fill(fill_op, [
            partition
            for _run, partitions in reader.load_run(projection_loop(plan.snapshot, fill_op))
            for partition in partitions
        ])
        select_op.tally(stats)
        self.worker_stats = select_op.workers
        self.coordinator_stats = select_op.coordinator

    def _fill(self, fill_op: ProjectFillOp, partitions: List[PhysicalPartition]) -> None:
        if not partitions or not len(fill_op.valid):
            return
        n_threads = self.n_threads

        def worker(thread_id: int) -> None:
            for partition in partitions:
                fill_op.fill(partition, share=(thread_id, n_threads))

        self._run_threads(worker)

    def _run_threads(
        self,
        worker,
        barrier: Optional[threading.Barrier] = None,
        stop: Optional[threading.Event] = None,
    ) -> None:
        """Run ``worker(i)`` on ``n_threads`` threads and join them all;
        then re-raise the first exception a worker raised.  A failing
        worker records its exception, then sets ``stop`` (the workers check
        it before each pop, so the query stops loading) and breaks
        ``barrier``, so a peer's ``BrokenBarrierError`` never stands in for
        it."""
        tracer = obs_tracer()
        errors: List[BaseException] = []  # appended by workers (atomic)

        def run(thread_index: int) -> None:
            try:
                if tracer.enabled:
                    with tracer.span("exec.worker", worker=thread_index):
                        worker(thread_index)
                else:
                    worker(thread_index)
            except BaseException as exc:
                errors.append(exc)
                if stop is not None:
                    stop.set()
                if barrier is not None:
                    barrier.abort()

        # Each thread runs inside a copy of the spawning context, so the
        # active span (and any scoped trace collector) propagates into the
        # workers — their spans nest under the phase span that started
        # them, tagged with the worker's real thread id.
        threads = [
            threading.Thread(target=contextvars.copy_context().run, args=(run, i))
            for i in range(self.n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]


# ---------------------------------------------------------------------------
# Deterministic cycle simulator (Figure 5)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ParallelSimParams:
    """Per-event costs of the multi-core execution model.

    ``process_tuple_s`` is the work of Algorithm 5 lines 6-16 for one tuple;
    ``lock_s`` the uncontended bucket lock acquire/release; ``false_share_s``
    the coherence penalty per tuple *per additional thread* — lock-based
    threads write random hash-table cache lines, so invalidation traffic and
    lock contention grow with the thread count (this exceeding the base
    per-tuple cost is what makes Jigsaw-L slow down as threads are added, as
    Figure 5 shows); ``bucket_check_s`` is the full per-tuple iteration +
    ``hash(t) in B_th`` test every shared-scan thread pays for *every* tuple
    of every partition.

    Shared-scan threads read the device concurrently, so a thread's I/O busy
    time is a *fraction of the device-serial load time* that grows with the
    thread count: ``serial_io * (io_share_base + io_share_per_thread * T)``.
    This reproduces the paper's observation that Irregular-S spends more I/O
    cycles per thread as threads are added, while Irregular-L (which reads
    independently, interleaved with processing) spends ``serial_io / T``.

    The defaults are calibrated to Figure 5's qualitative result: Jigsaw-L
    wins at 8 threads, the strategies cross, and Jigsaw-S wins at 36 — and
    they hold across partition shapes from compute-dominated (few bytes per
    tuple) to I/O-heavy (~80 ns of device time per tuple).
    """

    process_tuple_s: float = 20e-9
    lock_s: float = 10e-9
    false_share_s: float = 150e-9
    bucket_check_s: float = 135e-9
    io_share_base: float = 0.10
    io_share_per_thread: float = 0.0015


@dataclass(slots=True)
class CycleBreakdown:
    """Average seconds per active thread, split as Figure 5 does."""

    io_s: float
    compute_s: float
    waiting_s: float

    @property
    def total_s(self) -> float:
        return self.io_s + self.compute_s + self.waiting_s


def simulate_lock_based(
    partition_bytes: Sequence[int],
    partition_tuples: Sequence[int],
    n_threads: int,
    device: DeviceProfile,
    params: ParallelSimParams | None = None,
) -> CycleBreakdown:
    """Jigsaw-L: threads independently pull (load + process) partitions.

    Each thread's compute includes the per-tuple lock overhead and a false
    sharing penalty growing with the thread count, because any thread can
    dirty any hash-table cache line.  Threads rarely read concurrently (they
    interleave I/O with processing), so no I/O contention is charged.
    Waiting is the imbalance against the greedy-schedule makespan.
    """
    params = params or ParallelSimParams()
    n_threads = max(1, n_threads)
    per_tuple = (
        params.process_tuple_s
        + params.lock_s
        + params.false_share_s * (n_threads - 1)
    )
    jobs = sorted(
        (
            device.io_model.io_time(size) + tuples * per_tuple,
            device.io_model.io_time(size),
        )
        for size, tuples in zip(partition_bytes, partition_tuples)
    )
    # Greedy longest-processing-time assignment to the earliest-free thread.
    finish = np.zeros(n_threads)
    io_per_thread = np.zeros(n_threads)
    compute_per_thread = np.zeros(n_threads)
    for total, io_part in reversed(jobs):
        worker = int(np.argmin(finish))
        finish[worker] += total
        io_per_thread[worker] += io_part
        compute_per_thread[worker] += total - io_part
    makespan = float(finish.max())
    waiting = makespan * n_threads - float(finish.sum())
    return CycleBreakdown(
        io_s=float(io_per_thread.mean()),
        compute_s=float(compute_per_thread.mean()),
        waiting_s=waiting / n_threads,
    )


def simulate_shared_scan(
    partition_bytes: Sequence[int],
    partition_tuples: Sequence[int],
    n_threads: int,
    device: DeviceProfile,
    params: ParallelSimParams | None = None,
) -> CycleBreakdown:
    """Jigsaw-S: barrier-separated load phase, then every thread scans all.

    All threads hammer the shared device at once, so each thread's I/O busy
    time is a slice of the device-serial load time that *grows* with the
    thread count (queueing and stream-switching overhead), and every thread
    reaches the barrier at roughly the same moment.  After the barrier every
    thread visits every tuple (bucket check) but only processes its own
    ``1/T`` share — with no locks and no false sharing.
    """
    params = params or ParallelSimParams()
    n_threads = max(1, n_threads)
    serial_io = sum(device.io_model.io_time(size) for size in partition_bytes)
    io_share = params.io_share_base + params.io_share_per_thread * n_threads
    io_per_thread = serial_io * io_share
    # Threads drain a shared partition queue, so barrier imbalance is at most
    # one partition's load; charge the mean residual as waiting.
    load_times = sorted(
        (device.io_model.io_time(size) for size in partition_bytes), reverse=True
    )
    waiting = float(load_times[0]) * io_share / 2 if load_times else 0.0

    total_tuples = int(sum(partition_tuples))
    compute = (
        total_tuples * params.bucket_check_s
        + (total_tuples / n_threads) * params.process_tuple_s
    )
    return CycleBreakdown(
        io_s=float(io_per_thread),
        compute_s=float(compute),
        waiting_s=waiting,
    )
