"""Shared operators: the pipeline every executor drives.

The third planning layer.  Each operator owns one piece of the
selection/projection/degrade loop that used to be copied across the four
engines; the executors are now thin drivers that schedule these operators
(serially, under bucket locks, behind a shared-scan barrier, or
partition-locally) without re-implementing them:

* :class:`PlanReader` — the partition-open/retry/accounting preamble: load
  through the manager, fold the I/O delta into ``ExecutionStats``, count the
  read (and whether it was a degraded substitute read), reuse within-query
  working memory, serialize loads under a lock for threaded drivers, and
  apply the plan's buffer-pool pinning hints.
* :class:`DegradeOp` — replica/overlap substitution when a planned access
  turns out unreadable, wrapping :func:`~repro.plan.degrade.handle_unreadable`.
* :class:`AccessLoop` — the ordered work queue over partition accesses that
  every phase runs: dedup, known-dead handling, skip hooks, load, degrade
  re-planning, process.
* :class:`SelectOp` — predicate evaluation in each engine's native shape
  (dense per-attribute masks, Algorithm 5 status codes, or tuple-at-a-time
  for the threaded protocols).
* :class:`ProjectFillOp` — projected-cell gathering in each native shape.
* :func:`invalidate_pruned` — the catalog-only verdict a partition-policy
  prune must apply (the tuples a skipped read would have invalidated).
* :func:`merge_results` — the normalized result merge every engine ends on.

Every counter increment in this module is verbatim from the engine it was
lifted out of; the differential oracle holds the pipeline to byte-identical
results *and* simulated I/O accounting.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import nullcontext
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..errors import PartitionUnreadableError
from ..obs import tracer as obs_tracer
from ..storage.partition_manager import PartitionInfo, PartitionManager
from ..storage.physical import PhysicalPartition
from .degrade import FaultContext, handle_unreadable
from .predicates import Conjunction
from .result import ResultSet
from .stats import CpuModel, ExecutionStats

__all__ = [
    "STATUS_NOT_CHECKED",
    "STATUS_VALID",
    "STATUS_INVALID",
    "PlanReader",
    "DegradeOp",
    "AccessLoop",
    "SelectOp",
    "ProjectFillOp",
    "base_invalid_tids",
    "count_prune",
    "full_selection",
    "invalidate_pruned",
    "merge_results",
    "finalize_stats",
]

#: Algorithm 5 tuple status codes, shared by every partition-at-a-time driver.
STATUS_NOT_CHECKED = np.uint8(0)
STATUS_VALID = np.uint8(1)
STATUS_INVALID = np.uint8(2)


class PlanReader:
    """The partition-open/accounting preamble, shared by every call site.

    ``cache`` is optional within-query working memory (the scan engine's
    selection phase loads may be revisited by its gather phase); ``lock``
    serializes loads for threaded drivers (the manager's counters are not
    thread-safe); ``pin_hints`` are the physical plan's buffer-pool pinning
    hints — pids kept pinned between phases so a concurrent query cannot
    evict them mid-plan (released by :meth:`release`); ``prefetcher`` is an
    optional read-ahead pipeline — :meth:`prefetch` queues a phase's access
    list and :meth:`load` claims staged outcomes before falling back to an
    inline load, accruing the staged delta exactly as the inline load would.
    """

    __slots__ = (
        "manager", "stats", "fctx", "chunk_size", "cache", "lock",
        "pin_hints", "_pinned", "tracer", "prefetcher",
    )

    def __init__(
        self,
        manager: PartitionManager,
        stats: ExecutionStats,
        fctx: Optional[FaultContext] = None,
        chunk_size: Optional[int] = None,
        cache: Optional[Dict[int, PhysicalPartition]] = None,
        lock: Optional[threading.Lock] = None,
        pin_hints: frozenset = frozenset(),
        prefetcher=None,
    ):
        self.manager = manager
        self.stats = stats
        self.fctx = fctx
        self.chunk_size = chunk_size
        self.cache = cache
        self.lock = lock
        self.pin_hints = pin_hints
        self.prefetcher = prefetcher
        self._pinned: Set[int] = set()
        # Resolved once per execution (readers are per-query objects), so a
        # scoped trace installed before execute() is honoured and a disabled
        # call site pays one attribute load + truth test per partition.
        self.tracer = obs_tracer()

    def prefetch(self, pids: Iterable[int], columns: Optional[frozenset] = None) -> None:
        """Queue read-ahead for the loads a phase is about to drive.

        No-op without a prefetcher.  Pids already in the within-query cache
        or known-dead are filtered out — the inline path would not load them
        either, and a background load of a dead key would perturb its fault
        draw sequence.
        """
        if self.prefetcher is None:
            return
        cache, fctx = self.cache, self.fctx
        wanted = [
            pid for pid in pids
            if (cache is None or pid not in cache)
            and (fctx is None or pid not in fctx.unreadable)
        ]
        if wanted:
            self.prefetcher.start(wanted, columns)

    def load(
        self, pid: int, columns: Optional[frozenset] = None
    ) -> PhysicalPartition:
        """Load one partition, charging this execution's counters."""
        if self.cache is not None and pid in self.cache:
            return self.cache[pid]
        tracer = self.tracer
        if not tracer.enabled:
            return self._load_accounted(pid, columns)[0]
        with tracer.span("exec.partition", pid=pid) as span:
            partition, io_delta, degraded, prefetched = self._load_accounted(
                pid, columns
            )
            span.sim_io_s = io_delta.io_time_s
            span.set(
                bytes_read=io_delta.bytes_read,
                pool_hit=io_delta.n_pool_hits > 0,
                cache_hit=io_delta.n_cache_hits > 0,
                n_retries=io_delta.n_retries,
                degraded=degraded,
                prefetched=prefetched,
            )
        return partition

    def _load_accounted(self, pid: int, columns: Optional[frozenset]):
        """The load + accounting body (verbatim from the seed engines)."""
        staged = None
        if self.prefetcher is not None:
            # Re-raises a staged PartitionUnreadableError here, exactly
            # where the inline load would have raised it.
            staged = self.prefetcher.take(pid)
        if staged is not None:
            partition, io_delta = staged
        else:
            with self.lock if self.lock is not None else nullcontext():
                partition, io_delta = self.manager.load(
                    pid, chunk_size=self.chunk_size, columns=columns
                )
        self.stats.accrue_io(io_delta)
        self.stats.n_partition_reads += 1
        degraded = self.fctx is not None and pid in self.fctx.degraded
        if degraded:
            self.stats.n_degraded_reads += 1
        if self.cache is not None:
            self.cache[pid] = partition
        pool = self.manager.buffer_pool
        if pool is not None and pid in self.pin_hints and pid not in self._pinned:
            if pool.pin(pid):
                self._pinned.add(pid)
        return partition, io_delta, degraded, staged is not None

    def release(self) -> None:
        """Unpin every plan-pinned pool entry (end of execution)."""
        pool = self.manager.buffer_pool
        if pool is not None:
            for pid in self._pinned:
                pool.unpin(pid)
        self._pinned.clear()


class DegradeOp:
    """Substitute reads for unreadable partitions, per the plan's policy.

    Holds the execution's :class:`FaultContext` so every phase shares one
    exclusion set; disabling degradation (``enabled=False``) re-raises
    instead of re-planning, which is the replica-local engine's behaviour
    (it retreats to the standard engine rather than degrade in place).
    """

    __slots__ = ("manager", "stats", "fctx", "enabled")

    def __init__(
        self,
        manager: PartitionManager,
        stats: ExecutionStats,
        fctx: Optional[FaultContext] = None,
        enabled: bool = True,
    ):
        self.manager = manager
        self.stats = stats
        self.fctx = fctx if fctx is not None else FaultContext()
        self.enabled = enabled

    def handle(
        self,
        pid: int,
        attributes: Iterable[str],
        pending: deque,
        done: Set[int],
        exc: Optional[PartitionUnreadableError] = None,
        tids_by_attribute: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        if not self.enabled and exc is not None:
            raise exc
        tracer = obs_tracer()
        if not tracer.enabled:
            handle_unreadable(
                self.manager, pid, attributes, self.fctx, self.stats,
                pending, done, exc, tids_by_attribute,
            )
            return
        with tracer.span(
            "exec.degrade", pid=pid, discovered=exc is not None
        ) as span:
            n_pending_before = len(pending)
            handle_unreadable(
                self.manager, pid, attributes, self.fctx, self.stats,
                pending, done, exc, tids_by_attribute,
            )
            span.set(n_substitutes=len(pending) - n_pending_before)


class AccessLoop:
    """The ordered partition work queue every engine phase runs.

    Selection phases (``replan_known_dead=False``) silently skip pids that
    already died — their predicate cells were re-planned when the death was
    discovered.  Projection phases (``replan_known_dead=True``) re-plan a
    known-dead pid's cells instead: the dead partition's projected cells
    still need substitute homes, without burning another retry cycle.

    ``tids_by_attribute`` narrows a rescue to specific tuples; passing a
    callable defers the computation to failure time (e.g. "the projected
    cells of selected tuples no readable partition has supplied *yet*").
    """

    __slots__ = (
        "reader", "degrade", "attributes", "columns", "replan_known_dead",
        "tids_by_attribute", "pending", "done",
    )

    def __init__(
        self,
        reader: PlanReader,
        degrade: DegradeOp,
        attributes: Iterable[str],
        columns: Optional[frozenset],
        replan_known_dead: bool = False,
        tids_by_attribute=None,
    ):
        self.reader = reader
        self.degrade = degrade
        self.attributes = tuple(attributes)
        self.columns = columns
        self.replan_known_dead = replan_known_dead
        self.tids_by_attribute = tids_by_attribute
        self.pending: deque = deque()
        self.done: Set[int] = set()

    def enqueue(self, pids: Iterable[int]) -> None:
        self.pending.extend(pids)

    def fail(self, pid: int, exc: Optional[PartitionUnreadableError] = None) -> None:
        """Record one dead access and enqueue its substitutes."""
        tids = self.tids_by_attribute
        if callable(tids):
            tids = tids()
        self.degrade.handle(
            pid, self.attributes, self.pending, self.done, exc, tids
        )

    def run(
        self,
        process: Callable[[int, PhysicalPartition], None],
        skip: Optional[Callable[[int], bool]] = None,
    ) -> None:
        fctx = self.degrade.fctx
        while self.pending:
            pid = self.pending.popleft()
            if self.replan_known_dead:
                if pid in self.done:
                    continue
                self.done.add(pid)
                if pid in fctx.unreadable:
                    self.fail(pid, None)
                    continue
            else:
                if pid in self.done or pid in fctx.unreadable:
                    continue
                self.done.add(pid)
            if skip is not None and skip(pid):
                continue
            try:
                partition = self.reader.load(pid, columns=self.columns)
            except PartitionUnreadableError as exc:
                self.fail(pid, exc)
                continue
            process(pid, partition)


class SelectOp:
    """Predicate evaluation over one partition, in each driver's shape."""

    __slots__ = ("conjunction", "projected", "projected_set", "row_major")

    def __init__(
        self,
        conjunction: Conjunction,
        projected: Tuple[str, ...] = (),
        row_major: bool = False,
    ):
        self.conjunction = conjunction
        self.projected = projected
        self.projected_set = frozenset(projected)
        self.row_major = row_major

    def scan_masks(
        self,
        partition: PhysicalPartition,
        masks: Dict[str, np.ndarray],
        stats: ExecutionStats,
    ) -> None:
        """Dense per-attribute masks (the rectangular scan engines)."""
        for segment in partition.segments:
            tids = segment.tuple_ids
            if not len(tids):
                continue
            if self.row_major:
                stats.tuples_iterated += len(tids)
            for name in segment.attributes:
                predicate = self.conjunction.predicate_for(name)
                if predicate is None:
                    continue
                masks[name][tids] = predicate.mask(segment.columns[name])
                stats.cells_scanned += len(tids)

    def filter_partition(
        self,
        partition: PhysicalPartition,
        status: np.ndarray,
        values: Dict[str, np.ndarray],
        present: Dict[str, np.ndarray],
        stats: ExecutionStats,
    ) -> None:
        """Algorithm 5 lines 6-16, vectorized per segment.

        Status transitions, hash-table event counting, and the line-16 stash
        of co-located projected cells (so the projection phase never reloads
        this partition).
        """
        for segment in partition.segments:
            tids = segment.tuple_ids
            if not len(tids):
                continue
            stats.cells_scanned += len(tids) * len(segment.attributes)
            active = status[tids] != STATUS_INVALID
            satisfied, _n_preds = self.conjunction.evaluate_available(
                segment.columns, len(tids)
            )
            failing = active & ~satisfied
            if np.any(failing):
                # Lines 8-11: drop the tuple (and its hash-table row).
                failed_tids = tids[failing]
                previously_valid = status[failed_tids] == STATUS_VALID
                stats.hash_updates += int(previously_valid.sum())
                status[failed_tids] = STATUS_INVALID
            passing = active & satisfied
            if not np.any(passing):
                continue
            passing_tids = tids[passing]
            fresh = status[passing_tids] == STATUS_NOT_CHECKED
            stats.hash_inserts += int(fresh.sum())
            status[passing_tids[fresh]] = STATUS_VALID
            for name in segment.attributes:
                if name not in self.projected_set:
                    continue
                values[name][passing_tids] = segment.columns[name][passing]
                present[name][passing_tids] = True
                stats.hash_updates += len(passing_tids)

    def process_tuple(
        self,
        tid: int,
        cells: Dict[str, object],
        status: List[int],
        ret: Dict[int, Dict[str, object]],
    ) -> None:
        """Algorithm 5 lines 6-16 for one tuple (threaded drivers; the
        caller holds the tuple's bucket lock or owns its bucket range)."""
        if status[tid] == STATUS_INVALID:
            return
        for predicate in self.conjunction.predicates:
            if predicate.attribute in cells:
                value = cells[predicate.attribute]
                if not (predicate.lo <= value <= predicate.hi):
                    if status[tid] == STATUS_VALID:
                        ret.pop(tid, None)
                    status[tid] = STATUS_INVALID
                    return
        if status[tid] == STATUS_NOT_CHECKED:
            ret[tid] = {}
            status[tid] = STATUS_VALID
        row = ret.get(tid)
        if row is not None:
            for name in self.projected:
                if name in cells:
                    row[name] = cells[name]


class ProjectFillOp:
    """Projected-cell gathering over one partition, in each driver's shape."""

    __slots__ = ("projected", "projected_set")

    def __init__(self, projected: Tuple[str, ...]):
        self.projected = projected
        self.projected_set = frozenset(projected)

    def gather(
        self,
        partition: PhysicalPartition,
        selection: np.ndarray,
        values: Dict[str, np.ndarray],
        present: Dict[str, np.ndarray],
        stats: ExecutionStats,
        skip_replicas: bool = False,
    ) -> None:
        """Mask-based gather (scan engines; replica-local emit with
        ``skip_replicas=True`` so replicated cells are not double-emitted)."""
        for segment in partition.segments:
            if skip_replicas and segment.replica:
                continue
            tids = segment.tuple_ids
            if not len(tids):
                continue
            wanted = [a for a in segment.attributes if a in self.projected_set]
            if not wanted:
                continue
            mask = selection[tids]
            if not np.any(mask):
                continue
            hit_tids = tids[mask]
            for name in wanted:
                values[name][hit_tids] = segment.columns[name][mask]
                present[name][hit_tids] = True
                stats.cells_gathered += len(hit_tids)

    def fill_valid(
        self,
        partition: PhysicalPartition,
        status: np.ndarray,
        values: Dict[str, np.ndarray],
        present: Dict[str, np.ndarray],
        stats: ExecutionStats,
    ) -> None:
        """Status-based fill (partition-at-a-time projection phase)."""
        for segment in partition.segments:
            tids = segment.tuple_ids
            if not len(tids):
                continue
            stats.cells_scanned += len(tids) * len(segment.attributes)
            mask = status[tids] == STATUS_VALID
            if not np.any(mask):
                continue
            hit_tids = tids[mask]
            for name in segment.attributes:
                if name not in self.projected_set:
                    continue
                values[name][hit_tids] = segment.columns[name][mask]
                present[name][hit_tids] = True
                stats.hash_updates += len(hit_tids)

    def fill_tuple(self, tid: int, cells: Dict[str, object],
                   row: Dict[str, object]) -> None:
        """Tuple-at-a-time fill of one hash-table row (threaded drivers)."""
        for name in self.projected:
            if name in cells and name not in row:
                row[name] = cells[name]


def full_selection(n: int, snapshot=None) -> np.ndarray:
    """Dense no-WHERE selection vector over ``n`` tids.

    Without a snapshot (the read-only path) every tuple qualifies — the
    seed-exact ``ones`` vector.  A pinned snapshot carrying a write-path
    ``valid_mask`` restricts the scan to tids base partitions actually store
    at that version: tids folded out by a delta compaction are excluded, and
    delta-only tids (False here) are merged in later by the transactional
    wrapper, never by the base engine.
    """
    if snapshot is not None and snapshot.valid_mask is not None:
        mask = np.zeros(n, dtype=bool)
        valid = np.asarray(snapshot.valid_mask, dtype=bool)
        m = min(n, len(valid))
        mask[:m] = valid[:m]
        return mask
    return np.ones(n, dtype=bool)


def base_invalid_tids(n: int, snapshot=None) -> np.ndarray:
    """Tids below ``n`` that a base scan under ``snapshot`` must not return.

    The WHERE-path counterpart of :func:`full_selection`: a budgeted delta
    compaction drops a deleted tuple's cells from the partitions it rewrites
    while deferred partitions still hold the rest, so such a tuple can pass
    the predicates in one partition and have no projected cell in another.
    Engines mark these tids invalid before the selection phase.  Empty
    without a write-path ``valid_mask`` (every read-only execution).
    """
    if snapshot is None or snapshot.valid_mask is None:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(~full_selection(n, snapshot))


def count_prune(decision, stats: ExecutionStats) -> None:
    """Count one planner-pruned partition, attributing sketch-won skips.

    A verdict replayed from the partition cache keeps its original
    ``source`` (so sketch attribution is identical cache-on vs cache-off)
    and additionally counts in ``n_partitions_cache_pruned``.
    """
    stats.n_partitions_skipped += 1
    stats.n_partitions_pruned += 1
    if decision.source == "sketch":
        stats.n_partitions_sketch_pruned += 1
    if decision.via_cache:
        stats.n_partitions_cache_pruned += 1


def invalidate_pruned(
    info: PartitionInfo,
    pruned_attributes: frozenset,
    status: np.ndarray,
    stats: ExecutionStats,
) -> None:
    """Apply a partition-policy prune's verdict without the read.

    Every tuple owning a cell of a refuted predicate attribute in this
    partition fails the conjunction; mark it INVALID straight from the
    catalog's tuple-ID arrays, counting evicted hash-table rows exactly as
    the read would have.
    """
    for attrs, tids in zip(info.segment_attrs, info.segment_tids):
        if pruned_attributes & set(attrs) and len(tids):
            previously_valid = status[tids] == STATUS_VALID
            stats.hash_updates += int(previously_valid.sum())
            status[tids] = STATUS_INVALID


def merge_results(
    valid: np.ndarray,
    values: Dict[str, np.ndarray],
    projected: Tuple[str, ...],
    stats: ExecutionStats,
) -> ResultSet:
    """The normalized result merge every engine ends on."""
    result = ResultSet(valid, {name: values[name][valid] for name in projected})
    stats.n_result_tuples = result.n_tuples
    return result


def finalize_stats(
    stats: ExecutionStats, cpu_model: CpuModel, started: float
) -> None:
    """Convert event counters to simulated CPU time and stamp wall time."""
    stats.charge_cpu(cpu_model)
    stats.wall_time_s = time.perf_counter() - started
