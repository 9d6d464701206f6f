"""Parallel partition-at-a-time evaluation (Section 5.2.1, Algorithms 6-7).

Two deliverables live here:

1. **Real threaded implementations** of the lock-based (Jigsaw-L) and
   shared-scan (Jigsaw-S) strategies, using ``threading`` primitives exactly
   as the algorithms prescribe (bucket locks for L; a load barrier and
   disjoint bucket ranges for S).  The GIL makes them useless for measuring
   speedups, but they demonstrate and test protocol correctness: both must
   produce bit-identical results to the serial engine.  Both strategies are
   drivers over the shared plan layer: the
   :class:`~repro.plan.physical.QueryPlanner` supplies the access lists and
   pushdown sets, :class:`~repro.plan.operators.AccessLoop` the loads and
   degraded substitutes, this module the per-tuple Algorithm 5 transition
   (:func:`_process_tuple`, :func:`_fill_tuple`), and each worker thread
   accounts its reads in its
   own :class:`~repro.plan.stats.ExecutionStats` (summed into the stats
   ``execute`` returns — per-worker counters must add up exactly to the
   reported totals).  From :class:`~repro.engine.base.QueryEngine` the
   engine takes construction and the contract (``name``, ``planner``,
   ``clone``, ``rebind``, ``plan``/``explain``); its whole ``execute`` —
   thread scheduling, the serial drain, the ledgers — is its own.

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
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.query import Query
from ..core.schema import TableMeta
from ..errors import PartitionUnreadableError
from ..obs import request_scope
from ..obs import tracer as obs_tracer
from ..plan.degrade import FaultContext
from ..plan.operators import (
    STATUS_INVALID,
    STATUS_NOT_CHECKED,
    STATUS_VALID,
    AccessLoop,
    PlanReader,
    finalize_stats,
)
from ..plan.predicates import Conjunction
from ..plan.result import ResultSet
from ..plan.stats import ExecutionStats
from ..storage.device import DeviceProfile
from ..storage.partition_manager import CatalogSnapshot, PartitionManager
from .base import QueryEngine

__all__ = [
    "ThreadedPartitionEngine",
    "ParallelSimParams",
    "CycleBreakdown",
    "simulate_lock_based",
    "simulate_shared_scan",
]

_NOT_CHECKED, _VALID, _INVALID = (
    int(STATUS_NOT_CHECKED),
    int(STATUS_VALID),
    int(STATUS_INVALID),
)

#: bucket locks guarding the hash table under the locking strategy.
N_BUCKETS = 64


class ThreadedPartitionEngine(QueryEngine):
    """Reference multi-threaded partition-at-a-time evaluation.

    ``strategy`` is ``"locking"`` (Algorithm 6) or ``"shared"`` (Algorithm 7).
    The hash table is a plain dict guarded by ``N_BUCKETS`` bucket locks in
    the locking strategy, or range-partitioned by ``hash(tid) % n_threads``
    in the shared-scan strategy.
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
        #: audit ledgers of the execute() that finished last: one
        #: ``ExecutionStats`` per worker thread and the coordinator's (serial
        #: drain + projection loads); their exact sum is the stats that
        #: execute returned.  Each call fills its own and assigns them here
        #: once, at the end, so concurrent calls never share a ledger.
        self.worker_stats: List[ExecutionStats] = []
        self.coordinator_stats = ExecutionStats()

    # ------------------------------------------------------------ public

    def execute(
        self, query: Query, snapshot: Optional[CatalogSnapshot] = None
    ) -> Tuple[ResultSet, ExecutionStats]:
        if snapshot is None:
            with self.manager.pin_snapshot() as snapshot:
                return self.execute(query, snapshot)
        started = time.perf_counter()
        coordinator = ExecutionStats()
        workers = [ExecutionStats() for _ in range(self.n_threads)]
        # The phase snapshots sum across every ledger of the execution: the
        # coordinator's plus one per worker thread.
        ledgers = [coordinator, *workers]
        # The tracer is resolved inside the scope: a root scope may install
        # the one that captures this request's spans for the slow-query log.
        with request_scope(self.name, query) as scope, (
            tracer := obs_tracer()
        ).phase("exec.query", ledgers, engine=self.name):
            plan = self.planner.plan(query, snapshot=snapshot)
            conjunction = plan.logical.conjunction
            projected = plan.logical.projected
            status = [_NOT_CHECKED] * self.table.n_tuples
            if snapshot.hidden is not None:
                for tid in snapshot.hidden.tolist():
                    status[tid] = _INVALID
            ret: Dict[int, Dict[str, object]] = {}
            load_lock = threading.Lock()
            fctx = FaultContext()
            failed: List[int] = []  # appended by workers (atomic)

            pred_pids = plan.selection_pids()
            with tracer.phase("exec.selection", ledgers, strategy=self.strategy):
                if not conjunction:
                    for tid in range(self.table.n_tuples):
                        if status[tid] == _NOT_CHECKED:
                            status[tid] = _VALID
                            ret[tid] = {}
                elif self.strategy == "locking":
                    self._selection_locking(
                        plan, pred_pids, status, ret, load_lock, fctx, failed,
                        workers,
                    )
                else:
                    self._selection_shared(
                        plan, pred_pids, status, ret, load_lock, fctx, failed,
                        workers,
                    )
            if failed:
                with tracer.phase("exec.drain", ledgers, n_failed=len(failed)):
                    self._drain_selection_failures(
                        plan, failed, status, ret, fctx, coordinator,
                    )

            with tracer.phase("exec.projection", ledgers):
                self._projection(plan, status, ret, fctx, coordinator)

            totals = ExecutionStats()
            for ledger in ledgers:
                totals.add(ledger)
            valid = np.array(
                sorted(tid for tid, s in enumerate(status) if s == _VALID)
            )
            valid = valid.astype(np.int64) if len(valid) else np.empty(0, np.int64)
            if fctx.unreadable:
                # Degradation either reassembled every needed cell or must
                # abort: a partially filled row would be a silently wrong
                # answer.
                for t in valid:
                    row = ret[int(t)]
                    for name in projected:
                        if name not in row:
                            raise PartitionUnreadableError(
                                f"attribute {name!r} of tuple {int(t)} was "
                                f"lost with partitions "
                                f"{sorted(fctx.unreadable)}"
                            )
            columns = {
                name: np.array([ret[int(t)][name] for t in valid],
                               dtype=self.table.schema[name].np_dtype)
                for name in projected
            }
            totals.n_result_tuples = len(valid)
            finalize_stats(totals, self.cpu_model, started)
            scope.complete(totals, plan)
        self.worker_stats, self.coordinator_stats = workers, coordinator
        return ResultSet(valid, columns), totals

    # --------------------------------------------------------- internals

    def _worker_load(self, reader: PlanReader, pid: int, failed: List[int]):
        """Load through the worker's reader; an unreadable partition is
        recorded in ``failed`` (its I/O cost accrued to this worker) and
        None returned instead of raising, so worker threads never die
        mid-phase."""
        try:
            return reader.load(pid)
        except PartitionUnreadableError as exc:
            if exc.io_delta is not None:
                reader.stats.accrue_io(exc.io_delta)
            failed.append(pid)
            return None

    def _tuple_rows(self, partition, wanted: frozenset | None = None):
        """Yield (tid, {attr: value}) for every tuple of the partition.

        ``wanted`` restricts the per-tuple cell dict to the attributes the
        caller will actually read (predicates + projection); other columns
        stay undecoded.
        """
        for segment in partition.segments:
            attrs = segment.attributes
            if wanted is not None:
                attrs = tuple(a for a in attrs if a in wanted)
            columns = {name: segment.columns[name] for name in attrs}
            for row, tid in enumerate(segment.tuple_ids):
                yield int(tid), {name: columns[name][row] for name in attrs}

    def _selection_locking(
        self, plan, pred_pids, status, ret, load_lock, fctx, failed, workers,
    ):
        """Algorithm 6: threads pop partitions; bucket locks serialize tuples."""
        queue = list(pred_pids)
        queue_lock = threading.Lock()
        bucket_locks = [threading.Lock() for _ in range(N_BUCKETS)]
        conjunction, projected = plan.logical.conjunction, plan.logical.projected
        wanted = plan.logical.selection_columns

        def worker(thread_id: int) -> None:
            reader = PlanReader(self.manager, workers[thread_id], fctx, lock=load_lock)
            while True:
                with queue_lock:
                    if not queue:
                        return
                    pid = queue.pop(0)
                partition = self._worker_load(reader, pid, failed)
                if partition is None:
                    continue
                for tid, cells in self._tuple_rows(partition, wanted):
                    with bucket_locks[tid % N_BUCKETS]:
                        _process_tuple(conjunction, projected, tid, cells, status, ret)

        self._run_threads(worker)

    def _selection_shared(
        self, plan, pred_pids, status, ret, load_lock, fctx, failed, workers,
    ):
        """Algorithm 7: barrier after loading; threads own bucket ranges."""
        partitions: List = [None] * len(pred_pids)
        load_queue = list(enumerate(pred_pids))
        queue_lock = threading.Lock()
        barrier = threading.Barrier(self.n_threads)
        conjunction, projected = plan.logical.conjunction, plan.logical.projected
        wanted = plan.logical.selection_columns

        def worker(thread_id: int) -> None:
            reader = PlanReader(self.manager, workers[thread_id], fctx, lock=load_lock)
            while True:
                with queue_lock:
                    if not load_queue:
                        break
                    index, pid = load_queue.pop(0)
                partitions[index] = self._worker_load(reader, pid, failed)
            barrier.wait()
            for partition in partitions:
                if partition is None:
                    continue
                for tid, cells in self._tuple_rows(partition, wanted):
                    if tid % self.n_threads != thread_id:
                        continue
                    _process_tuple(conjunction, projected, tid, cells, status, ret)

        self._run_threads(worker)

    def _drain_selection_failures(
        self, plan, failed, status, ret, fctx, stats
    ) -> None:
        """Serially re-cover the predicate cells of partitions the worker
        threads could not read.

        Runs after the threads joined, so no locks are needed; Algorithm 5's
        per-tuple processing is idempotent, so replaying a substitute
        partition over already-processed tuples is harmless.  Lost projected
        cells are healed later by :meth:`_projection` through the tuple-level
        index.
        """
        conjunction, projected = plan.logical.conjunction, plan.logical.projected
        wanted = plan.logical.selection_columns
        reader = PlanReader(self.manager, stats, fctx)
        loop = AccessLoop(reader, plan.snapshot.index, conjunction.attributes)
        # Mark every known failure first so the earliest substitution plan
        # already excludes all of them.
        loop.done.update(failed)
        for pid in failed:
            if pid not in fctx.unreadable:
                fctx.unreadable.add(pid)
                stats.n_unreadable_partitions += 1
        for pid in dict.fromkeys(failed):
            loop.fail(pid)

        def process(pid: int, partition) -> None:
            for tid, cells in self._tuple_rows(partition, wanted):
                _process_tuple(conjunction, projected, tid, cells, status, ret)

        loop.run(process)

    def _projection(self, plan, status, ret, fctx, stats):
        """Fill missing projected cells; safe without locks (Section 5.2.1).

        Partitions are loaded once, serially by the coordinator (the load
        path is not thread-safe anyway), which is also where unreadable
        partitions are swapped for substitutes; the threads then split the
        preloaded partitions' tuples by bucket range.
        """
        projected = plan.logical.projected
        missing_tids: Dict[str, List[int]] = {name: [] for name in projected}
        for tid, row in ret.items():
            if status[tid] != _VALID:
                continue
            for name in projected:
                if name not in row:
                    missing_tids[name].append(tid)
        missing_pids: set = set()
        for name, tids in missing_tids.items():
            if tids:
                missing_pids.update(
                    plan.snapshot.partitions_with_missing_cells(
                        name, np.array(tids, dtype=np.int64)
                    )
                )
        if not missing_pids:
            return
        wanted = plan.logical.projection_columns

        def still_missing() -> Dict[str, np.ndarray]:
            return {
                name: np.array(
                    sorted(
                        tid
                        for tid, row in ret.items()
                        if status[tid] == _VALID and name not in row
                    ),
                    dtype=np.int64,
                )
                for name in projected
            }

        partitions: List = []
        reader = PlanReader(self.manager, stats, fctx)
        loop = AccessLoop(
            reader,
            plan.snapshot.index,
            projected,
            replan_known_dead=True,
            tids_by_attribute=still_missing,
        )
        loop.pending.extend(sorted(missing_pids))
        loop.run(lambda pid, partition: partitions.append(partition))

        def worker(thread_id: int) -> None:
            for partition in partitions:
                for tid, cells in self._tuple_rows(partition, wanted):
                    if tid % self.n_threads != thread_id:
                        continue
                    if status[tid] != _VALID:
                        continue
                    _fill_tuple(projected, cells, ret[tid])

        self._run_threads(worker)

    def _run_threads(self, worker) -> None:
        tracer = obs_tracer()

        def run(thread_index: int) -> None:
            if tracer.enabled:
                with tracer.span("exec.worker", worker=thread_index):
                    worker(thread_index)
            else:
                worker(thread_index)

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


def _process_tuple(
    conjunction: Conjunction,
    projected: Tuple[str, ...],
    tid: int,
    cells: Dict[str, object],
    status: List[int],
    ret: Dict[int, Dict[str, object]],
) -> None:
    """Algorithm 5 lines 6-16 for one tuple (the caller holds the tuple's
    bucket lock or owns its bucket range)."""
    if status[tid] == _INVALID:
        return
    for predicate in conjunction.predicates:
        if predicate.attribute in cells:
            value = cells[predicate.attribute]
            if not (predicate.lo <= value <= predicate.hi):
                if status[tid] == _VALID:
                    ret.pop(tid, None)
                status[tid] = _INVALID
                return
    if status[tid] == _NOT_CHECKED:
        ret[tid] = {}
        status[tid] = _VALID
    row = ret.get(tid)
    if row is not None:
        for name in projected:
            if name in cells:
                row[name] = cells[name]


def _fill_tuple(
    projected: Tuple[str, ...], cells: Dict[str, object], row: Dict[str, object]
) -> None:
    """Tuple-at-a-time fill of one hash-table row: the projected cells it
    still misses."""
    for name in projected:
        if name in cells and name not in row:
            row[name] = cells[name]


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
