"""Shared operators: the pipeline every executor drives.

The third planning layer.  Each operator owns one piece of the
selection/projection/degrade loop that used to be copied across the
engines; the executors are now thin drivers that schedule these operators
(serially, under bucket locks, or behind a shared-scan barrier) without
re-implementing them:

* :class:`PlanReader` — the partition-open/retry/accounting preamble: load
  through the manager, fold the I/O delta into ``ExecutionStats``, count the
  read (and whether it was a degraded substitute read), reuse within-query
  working memory, and serialize loads under a lock for threaded drivers.
* :class:`DegradeOp` — overlap substitution when a planned access
  turns out unreadable, wrapping :func:`~repro.plan.degrade.handle_unreadable`.
* :class:`AccessLoop` — the ordered work queue over partition accesses that
  every phase runs: dedup, known-dead handling, skip hooks, load, degrade
  re-planning, process.
* :class:`SelectOp` / :class:`ProjectFillOp` — the vectorized engine core,
  one implementation under the partition-at-a-time and scan drivers, built
  on **selection vectors and result-sized output**: the only
  table-sized scratch is Algorithm 5's status vector (one byte per tuple);
  a segment's passing mask becomes positions once; co-located projected
  cells are stashed as |hits|-sized chunks; and once selection is final the
  ascending VALID tids *are* the ``tid -> output row`` map, so stash and
  projection write into |result|-sized columns.  Both ops also carry the
  tuple-at-a-time form the threaded protocols use.
* :meth:`SelectOp.invalidate` — a planner-pruned partition's catalog-only
  verdict.

**Closed-form counter rule.**  The simulated accounting prices the paper's
tuple-at-a-time loop, not the numpy calls: the ops return event counts
computed from segment lengths and mask sums, and each driver prices them by
its own algorithm's rule, partition by partition — never by redoing dense
work.  The differential oracle holds the pipeline to byte-identical results
*and* simulated accounting.

**Hit-only selection.**  An INVALID mark is written only where a later
visit in this query can read it: under the plan's visit-once verdict
(``plan.visits_once``) :meth:`SelectOp.select` marks the hits alone (none
in a zone-refuted partition: it evaluates nothing) and keeps their tids, up
to 1/16 of the table, as the VALID set.  A planner-pruned partition's
tuples stay NOT_CHECKED too: the selection loop
(``engine.base.run_selection``) counts it without a visit or an
:meth:`SelectOp.invalidate`.  A view's hidden tids are INVALID before the
first read, so under a view that hides any a hit counts only where its
status is not INVALID.

**Owner-addressed fill.**  The owner map that finds a projection partition
also names its result rows, ``VALID ∩ tids(pid)``: for a segment holding
the attribute that is ``VALID ∩ tids(segment)``, the status pass's
rows, so a binary search gives the positions and no status pass runs.
Beyond a schema's fourth segment, one writer places fills per attribute.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import nullcontext
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..errors import PartitionUnreadableError, StorageError
from ..obs import tracer as obs_tracer
from ..storage.partition_manager import (
    CatalogIndex,
    PartitionInfo,
    PartitionManager,
)
from ..storage.physical import TID_IMPLICIT, PhysicalPartition
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
    "stored_cells",
    "finalize_stats",
]

#: Algorithm 5 tuple status codes, shared by every partition-at-a-time driver.
STATUS_NOT_CHECKED = np.uint8(0)
STATUS_VALID = np.uint8(1)
STATUS_INVALID = np.uint8(2)


class PlanReader:
    """The partition-open/accounting preamble, shared by every call site.

    ``cache`` is optional within-query working memory (the scan engine's
    selection phase loads may be revisited by its gather phase; a driver
    whose later phase revisits partitions sets it); ``lock`` serializes
    loads for threaded drivers (the manager's counters are not
    thread-safe).  Every load runs inline, on the thread that evaluates
    the partition.
    """

    __slots__ = ("manager", "stats", "fctx", "chunk_size", "cache", "lock")

    def __init__(
        self,
        manager: PartitionManager,
        stats: ExecutionStats,
        fctx: Optional[FaultContext] = None,
        chunk_size: Optional[int] = None,
        cache: Optional[Dict[int, PhysicalPartition]] = None,
        lock: Optional[threading.Lock] = None,
    ):
        self.manager = manager
        self.stats = stats
        self.fctx = fctx
        self.chunk_size = chunk_size
        self.cache = cache
        self.lock = lock if lock is not None else nullcontext()

    def load(self, pid: int) -> PhysicalPartition:
        """Load one partition, charging this execution's counters."""
        if self.cache is not None and pid in self.cache:
            return self.cache[pid]
        with self.lock:
            partition, io_delta = self.manager.load(pid, chunk_size=self.chunk_size)
        if io_delta.n_pool_hits:  # a pool hit charges nothing else
            self.stats.n_pool_hits += 1
        else:
            self.stats.accrue_io(io_delta)
        self.stats.n_partition_reads += 1
        if self.fctx is not None and pid in self.fctx.degraded:
            self.stats.n_degraded_reads += 1
        if self.cache is not None:
            self.cache[pid] = partition
        return partition


class DegradeOp:
    """Substitute reads for unreadable partitions.

    Holds the plan's catalog index — substitutes come from the version the
    query reads — and the execution's :class:`FaultContext`, so every phase
    shares one exclusion set.
    """

    __slots__ = ("index", "stats", "fctx")

    def __init__(
        self,
        index: CatalogIndex,
        stats: ExecutionStats,
        fctx: Optional[FaultContext] = None,
    ):
        self.index = index
        self.stats = stats
        self.fctx = fctx if fctx is not None else FaultContext()

    def handle(
        self,
        pid: int,
        attributes: Iterable[str],
        pending: deque,
        done: Set[int],
        exc: Optional[PartitionUnreadableError] = None,
        tids_by_attribute: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        with obs_tracer().span(
            "exec.degrade", pid=pid, discovered=exc is not None
        ) as span:
            n_pending_before = len(pending)
            handle_unreadable(
                self.index, pid, attributes, self.fctx, self.stats,
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
        "reader", "degrade", "attributes", "replan_known_dead",
        "tids_by_attribute", "pending", "done",
    )

    def __init__(
        self,
        reader: PlanReader,
        degrade: DegradeOp,
        attributes: Iterable[str],
        replan_known_dead: bool = False,
        tids_by_attribute=None,
    ):
        self.reader = reader
        self.degrade = degrade
        self.attributes = tuple(attributes)
        self.replan_known_dead = replan_known_dead
        self.tids_by_attribute = tids_by_attribute
        self.pending: deque = deque()
        self.done: Set[int] = set()

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
                partition = self.reader.load(pid)
            except PartitionUnreadableError as exc:
                self.fail(pid, exc)
                continue
            process(pid, partition)


def _address(tids: np.ndarray, tid_storage: str):
    """How a per-tuple vector is indexed by one segment's tuples: a segment
    stored as a contiguous natural-order run (``TID_IMPLICIT``: every
    Row/Column partition) by slice — never a gather — any other by its tids."""
    if tid_storage == TID_IMPLICIT:
        return slice(int(tids[0]), int(tids[0]) + len(tids))
    return tids


def stored_cells(partition: PhysicalPartition) -> int:
    """Cells a row-major read of the partition passes over: every stored
    attribute of every stored tuple (Algorithm 5's ``cells_scanned``)."""
    return sum(len(s.tuple_ids) * len(s.attributes) for s in partition.segments)


class _ProjectingOp:
    """What both core ops know about the projection: its attributes, and —
    derived once per distinct segment schema per plan, not per segment —
    which of a segment's attributes are wanted."""

    __slots__ = ("projected", "_wanted")

    def __init__(self, projected: Tuple[str, ...]):
        self.projected = projected
        self._wanted: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    def wanted(self, attributes: Tuple[str, ...]) -> Tuple[str, ...]:
        wanted = self._wanted.get(attributes)
        if wanted is None:
            wanted = tuple(a for a in attributes if a in self.projected)
            self._wanted[attributes] = wanted
        return wanted


class SelectOp(_ProjectingOp):
    """Algorithm 5's selection state: one status byte per tuple, nothing
    else table-sized.

    :meth:`select` turns each segment's passing mask into positions once
    and stashes the co-located projected cells (line 16) as |hits|-sized
    chunks, which reach their output rows only once the selection is final
    (:class:`ProjectFillOp`) — a tuple some later partition invalidates
    just never gets one.  The tuple-at-a-time drivers keep their own status
    list and hash table and use :meth:`process_tuple` alone.

    An INVALID mark is written only where a later visit in this query can
    read it.  ``hit_only`` is the catalog's verdict that no tuple is reached
    twice (every selection segment stores every predicate attribute, each
    with one home, so no degraded substitute can reach it either): failing
    tuples stay NOT_CHECKED.  So a ``refuted`` partition (the plan's
    ``zone_refuted``) is read but not evaluated.

    The view's ``hidden`` tids start INVALID: those a write-path version
    does not show, whose cells may still be stored — a budgeted fold drops
    a deleted tuple's cells from the partitions it rewrites while deferred
    ones keep the rest, so such a tuple can pass here and have no projected
    cell elsewhere."""

    __slots__ = ("conjunction", "status", "stash", "hit_only", "refuted",
                 "hides", "hits", "_n_hits")

    def __init__(
        self,
        conjunction: Conjunction,
        projected: Tuple[str, ...] = (),
        n_tuples: int = 0,
        hidden: Optional[np.ndarray] = None,
        hit_only: bool = False,
        refuted: frozenset = frozenset(),
    ):
        super().__init__(projected)
        self.conjunction = conjunction
        self.status = np.zeros(n_tuples, dtype=np.uint8)
        self.hides = hidden is not None
        if self.hides:
            self.status[hidden] = STATUS_INVALID
        #: wanted attributes -> ``(tids, their cells)`` of every segment of
        #: that schema that stashed anything.
        self.stash: Dict[
            Tuple[str, ...], List[Tuple[np.ndarray, List[np.ndarray]]]
        ] = {}
        self.hit_only = hit_only
        self.refuted = refuted
        #: hit tids while they are the VALID set (not past 1/16)
        self.hits: Optional[List[np.ndarray]] = [np.empty(0, np.intp)] if hit_only else None
        self._n_hits = 0

    def select_all(self) -> int:
        """No WHERE clause: every tuple a base scan may return turns VALID
        (lines 3-16 degenerate to one hash-table row per tuple)."""
        fresh = self.status == STATUS_NOT_CHECKED
        self.status[fresh] = STATUS_VALID
        self.hits = None
        return int(np.count_nonzero(fresh))

    def select(self, partition: PhysicalPartition) -> Tuple[int, int, int]:
        """Algorithm 5 lines 6-16 over one partition: every tuple of a
        segment ends VALID (passed what is evaluable here, was not INVALID)
        or INVALID.  Returns the hash-table events in closed form,
        ``(inserts, evictions, stashed)``: NOT_CHECKED tuples that passed,
        VALID tuples that failed, projected cells stashed."""
        if self.hit_only and partition.pid in self.refuted:
            return 0, 0, 0
        status = self.status
        inserts = evictions = stashed = 0
        for segment in partition.segments:
            tids = segment.tuple_ids
            if not len(tids):
                continue
            where = _address(tids, segment.tid_storage)
            passing, _ = self.conjunction.evaluate_available(
                segment.columns, len(tids)
            )
            if self.hit_only:
                hits = passing.nonzero()[0]
                found = tids[hits]
                if self.hides:  # a hidden tuple stays INVALID
                    kept = status[found] != STATUS_INVALID
                    hits, found = hits[kept], found[kept]
                if where is tids or self.hides:
                    status[found] = STATUS_VALID
                else:  # a run the view hides nothing of: one contiguous write
                    status[where] = passing.view(np.uint8)
                if self.hits is not None:
                    self.hits.append(found)
                    self._n_hits += len(found)
                    if 16 * self._n_hits > len(status):
                        self.hits = None
            else:
                before = status[where]
                if before.any():  # some tuple here already carries a verdict
                    passing &= before != STATUS_INVALID
                    was_valid = before == STATUS_VALID
                    still_valid = int(np.count_nonzero(was_valid & passing))
                    evictions += int(np.count_nonzero(was_valid)) - still_valid
                    inserts -= still_valid
                hits = passing.nonzero()[0]
                status[where] = STATUS_INVALID - passing.view(np.uint8)
            inserts += len(hits)
            wanted = self.wanted(segment.attributes)
            if not wanted or not len(hits):
                continue
            self.stash.setdefault(wanted, []).append(
                (tids[hits], [segment.columns[name][hits] for name in wanted])
            )
            stashed += len(hits) * len(wanted)
        return inserts, evictions, stashed

    def invalidate(self, info: PartitionInfo, attributes: frozenset) -> int:
        """Apply a prune's verdict without the read: every tuple owning a
        cell of the refuted predicate ``attributes`` here fails the
        conjunction, so mark it INVALID straight from the catalog's tuple-ID
        arrays.  Returns the VALID tuples evicted, as the read would have
        counted them."""
        status = self.status
        evictions = 0
        for attrs, tids, mode in zip(
            info.segment_attrs, info.segment_tids, info.segment_tid_modes
        ):
            if not len(tids) or attributes.isdisjoint(attrs):
                continue
            where = _address(tids, mode)
            evictions += int(np.count_nonzero(status[where] == STATUS_VALID))
            status[where] = STATUS_INVALID
        return evictions

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


class ProjectFillOp(_ProjectingOp):
    """Algorithm 5's result hash table at its true size.

    Built once the selection is final: ``valid`` (the ascending VALID tids)
    *is* the ``tid -> output row`` map, so stash and projection write into
    |result|-sized columns; ``filled`` flags of the same size say which
    cells are still missing.  A segment's rows (:meth:`_hits`) are a slice
    of ``valid`` for a run, its pid's rows in an owner map (``owned``) for a
    segment of an addressed attribute, else one status pass.
    :meth:`fill` writes a schema's first segments as gathered and leaves the
    rest to one writer (:meth:`_absorb`) before anything reads ``filled``.  The
    tuple-at-a-time drivers pass no selection and use :meth:`fill_tuple`.
    """

    __slots__ = ("status", "valid", "columns", "filled", "owned", "_row_of",
                 "_touched", "_pending", "_held", "_seen")

    def __init__(
        self,
        projected: Tuple[str, ...],
        select: Optional[SelectOp] = None,
        schema=None,
    ):
        super().__init__(projected)
        if select is None:
            return
        status = self.status = select.status
        self.valid = (  # the hit-only form's hit tids are the VALID set
            np.flatnonzero(status == STATUS_VALID) if select.hits is None
            else np.sort(np.concatenate(select.hits)).astype(np.intp, copy=False))
        n_rows = len(self.valid)
        self.columns: Dict[str, np.ndarray] = {
            name: np.empty(n_rows, dtype=schema[name].np_dtype)
            for name in projected
        }
        self.filled: Dict[str, np.ndarray] = {
            name: np.zeros(n_rows, dtype=bool) for name in projected
        }
        self._touched: Dict[int, bool] = {}
        #: wanted attributes -> pending ``(rows, chunks)`` per segment (their
        #: cells stay under half the table's tuple count), and segments seen.
        self._pending: Dict[Tuple[str, ...], list] = {}
        self._held = 0
        self._seen: Dict[Tuple[str, ...], int] = {}
        # From a quarter of the table up, rows come from a dense map, not
        # a binary search (n log n on a full-table result); the map's 4 B
        # per tuple are then at most 16 B per result row.
        self._row_of = None
        if 4 * n_rows >= len(status):
            self._row_of = np.empty(len(status), dtype=np.int32)
            self._row_of[self.valid] = np.arange(n_rows, dtype=np.int32)
        #: attribute -> its owner map's ``rows(valid)``; None with the dense
        #: map (a status pass is then one gather; owner rows cost 8 B a row).
        self.owned = {} if self._row_of is None else None
        # Per stashed schema, not per segment: drop the tuples a later
        # partition invalidated, place the survivors.
        for wanted, entries in select.stash.items():
            tids, chunks = zip(*entries)
            tids = np.concatenate(tids)
            keep = status[tids] == STATUS_VALID
            keep = None if keep.all() else keep
            rows = self._rows(tids if keep is None else tids[keep])
            self._write(wanted, rows, zip(*chunks), keep)

    def _write(self, wanted: Tuple[str, ...], rows, chunks, keep=None) -> None:
        """The one writer: per attribute, one concat of its chunks (in row
        order), one scatter and one flag write — so at most one extra result
        column is alive.  ``keep`` drops stashed tuples a later partition
        invalidated."""
        for name, parts in zip(wanted, chunks):
            chunk = parts[0] if len(parts) == 1 else np.concatenate(parts)
            self.columns[name][rows] = chunk if keep is None else chunk[keep]
            self.filled[name][rows] = True

    def _absorb(self) -> None:
        """Write the pending fills, a schema's segments at once."""
        pending, self._pending, self._held = self._pending, {}, 0
        for wanted, entries in pending.items():
            rows, chunks = zip(*entries)
            rows = rows[0] if len(rows) == 1 else np.concatenate(rows)
            self._write(wanted, rows, zip(*chunks))

    def _rows(self, tids: np.ndarray) -> np.ndarray:
        """Output rows of result tids."""
        if self._row_of is not None:
            return self._row_of[tids]
        return np.searchsorted(self.valid, tids)

    def _hits(self, tids: np.ndarray, tid_storage: str, owned=None, shared=False):
        """``(output rows, positions in the segment)`` of the result tuples
        one segment stores.  ``owned``, its pid's rows in an owner map, are
        this segment's unless it has siblings (``shared``)."""
        where = _address(tids, tid_storage)
        if where is not tids:
            first, last = np.searchsorted(self.valid, (where.start, where.stop))
            return slice(first, last), self.valid[first:last] - where.start
        if owned is not None:
            found = self.valid[owned]
            hits = np.searchsorted(tids, found)
            if shared:
                stored = tids.take(hits, mode="clip") == found
                owned, hits = owned[stored], hits[stored]
            return owned, hits
        hits = (self.status[tids] == STATUS_VALID).nonzero()[0]
        return self._rows(tids[hits]), hits

    def touches(self, info: PartitionInfo) -> bool:
        """Whether any result tuple lives in the partition (the catalog's
        verdict, reached once per plan and reused by every caller)."""
        touched = self._touched.get(info.pid)
        if touched is None:
            touched = self._touched[info.pid] = bool(len(self.valid)) and any(
                len(tids) and len(self._hits(tids, mode)[1])
                for tids, mode in zip(info.segment_tids, info.segment_tid_modes)
            )
        return touched

    def missing(self, name: str) -> np.ndarray:
        """Result tids whose ``name`` cell no partition has supplied yet."""
        if self._pending:
            self._absorb()
        return self.valid[~self.filled[name]]

    def fill(self, partition: PhysicalPartition) -> int:
        """Write the partition's projected cells of result tuples (beyond a
        schema's fourth segment: gather them for the writer); returns the
        cells (hits x wanted attributes, per segment)."""
        written = 0
        for segment in partition.segments:
            wanted = self.wanted(segment.attributes)
            tids = segment.tuple_ids
            if not wanted or not len(tids):
                continue
            owned = None
            for name in wanted if self.owned else ():
                if name in self.owned:
                    owned = self.owned[name](partition.pid)
                    break
            rows, hits = self._hits(
                tids, segment.tid_storage, owned, len(partition.segments) > 1
            )
            if not len(hits):
                continue
            # A run, and a schema's first four segments (all a point query
            # has), are written as gathered: a concat only pays beyond.
            seen = self._seen[wanted] = self._seen.get(wanted, 0) + 1
            if type(rows) is slice or seen <= 4:
                for name in wanted:
                    self.columns[name][rows] = segment.columns[name][hits]
                    self.filled[name][rows] = True
            else:
                self._pending.setdefault(wanted, []).append(
                    (rows, [segment.columns[name][hits] for name in wanted])
                )
                self._held += len(hits) * len(wanted)
            written += len(hits) * len(wanted)
        if 2 * self._held > len(self.status):
            self._absorb()
        return written

    def result(self, stats: ExecutionStats, lost=()) -> ResultSet:
        """The normalized result every engine ends on — complete, or an
        error, never a silently partial answer: a projected cell no read
        supplied was taken by the ``lost`` (unreadable) partitions, a
        legitimate outcome of faults, or the layout does not cover the
        table."""
        for name in self.projected:
            missing = self.missing(name)
            if len(missing):
                error = PartitionUnreadableError if lost else StorageError
                raise error(
                    f"attribute {name!r} is missing for {len(missing)} "
                    f"selected tuples (first: {missing[:5].tolist()}); "
                    f"unreadable partitions: {sorted(lost)}"
                )
        stats.n_result_tuples = len(self.valid)
        return ResultSet(self.valid, self.columns)

    def fill_tuple(self, tid: int, cells: Dict[str, object],
                   row: Dict[str, object]) -> None:
        """Tuple-at-a-time fill of one hash-table row (threaded drivers)."""
        for name in self.projected:
            if name in cells and name not in row:
                row[name] = cells[name]


def finalize_stats(
    stats: ExecutionStats, cpu_model: Optional[CpuModel], started: float
) -> None:
    """Convert event counters to simulated CPU time (for an engine that
    prices them) and stamp wall time."""
    if cpu_model is not None:
        stats.charge_cpu(cpu_model)
    stats.wall_time_s = time.perf_counter() - started
