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
* :class:`AccessLoop` — the ordered work queue over partition accesses that
  every phase runs: dedup, known-dead handling, skip hooks, load, process;
  a planned access that turns out unreadable is re-planned onto overlapping
  substitutes (:func:`~repro.plan.degrade.handle_unreadable`, inside one
  ``exec.degrade`` span).
* :class:`SelectOp` / :class:`ProjectFillOp` — the vectorized engine core,
  built on **selection vectors and result-sized output**: the only
  table-sized scratch is Algorithm 5's status vector (one byte per tuple);
  a segment's passing mask becomes hit tids once; and once selection is
  final the ascending VALID tids *are* the ``tid -> output row`` map, so
  every fill writes into |result|-sized columns.  The scan driver selects
  and fills partition by partition.  (The threaded protocols keep the
  tuple-at-a-time form, in :mod:`repro.engine.parallel`.)
* :class:`GroupSelectOp` — the partition-at-a-time driver's core: loads
  stay per partition, evaluation runs per schema group over the
  schema-group image (:mod:`repro.storage.image`) — one predicate mask per
  group under the visit-once verdict, one position gather per (group,
  attribute) for the projection.
* :meth:`SelectOp.invalidate` — a planner-pruned partition's catalog-only
  verdict.

**Closed-form counter rule.**  The simulated accounting prices the paper's
tuple-at-a-time loop, not the numpy calls: the ops return event counts
computed from segment (slot) lengths and hit counts, and each driver prices
them by its own algorithm's rule, as if it had visited partition by
partition — never by redoing dense work.  Line 16's stash is such a count:
a hit's co-located projected cells stay where they are stored and are
gathered once the selection is final.  The differential oracle holds the
pipeline to byte-identical results *and* simulated accounting.

**Hit-only selection.**  An INVALID mark is written only where a later
visit in this query can read it: under the plan's visit-once verdict
(``plan.visits_once``) the selection marks the hits alone (none in a
zone-refuted partition: it evaluates nothing) and keeps their tids, up to
1/16 of the table, as the VALID set.  No tuple is reached twice, so the
order of evaluation is free: the partition-at-a-time driver evaluates
after the loads, per schema group.  A planner-pruned partition's tuples
stay NOT_CHECKED too: the selection loop (``engine.base.run_selection``)
counts it without a visit or an :meth:`SelectOp.invalidate`.  A view's
hidden tids are INVALID before the first read, so under a view that hides
any a hit counts only where its status is not INVALID.  Other plans select
partition by partition in plan order (:meth:`SelectOp.select`), whose
status transitions the counters price.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..errors import PartitionUnreadableError, StorageError
from ..obs import tracer as obs_tracer
from ..storage.buffer_pool import BufferPool
from ..storage.image import ImageGroup, ImageSlot, SchemaImage
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
    "AccessLoop",
    "SelectOp",
    "ProjectFillOp",
    "GroupSelectOp",
    "stored_cells",
    "finalize_stats",
]

#: Algorithm 5 tuple status codes, shared by every partition-at-a-time driver.
STATUS_NOT_CHECKED = np.uint8(0)
STATUS_VALID = np.uint8(1)
STATUS_INVALID = np.uint8(2)


class PlanReader:
    """The partition-open/accounting preamble, shared by every call site.

    ``fctx`` is the execution's fault context, shared by every reader and
    access loop of the execution so every phase sees one exclusion set;
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
        fctx: FaultContext,
        chunk_size: Optional[int] = None,
        cache: Optional[Dict[int, PhysicalPartition]] = None,
        lock: Optional[threading.Lock] = None,
    ):
        self.manager = manager
        self.stats = stats
        self.fctx = fctx
        self.chunk_size = chunk_size
        self.cache = cache
        self.lock = lock

    def load(self, pid: int) -> PhysicalPartition:
        """Load one partition, charging this execution's counters."""
        if self.cache is not None and pid in self.cache:
            return self.cache[pid]
        if self.lock is None:
            partition, io_delta = self.manager.load(pid, chunk_size=self.chunk_size)
        else:
            with self.lock:
                partition, io_delta = self.manager.load(pid, chunk_size=self.chunk_size)
        if io_delta.n_pool_hits:  # a pool hit charges nothing else
            self.stats.n_pool_hits += 1
        else:
            self.stats.accrue_io(io_delta)
        self.stats.n_partition_reads += 1
        if pid in self.fctx.degraded:
            self.stats.n_degraded_reads += 1
        if self.cache is not None:
            self.cache[pid] = partition
        return partition


class AccessLoop:
    """The ordered partition work queue every engine phase runs.

    Selection phases (``replan_known_dead=False``) silently skip pids that
    already died — their predicate cells were re-planned when the death was
    discovered.  Projection phases (``replan_known_dead=True``) re-plan a
    known-dead pid's cells instead: the dead partition's projected cells
    still need substitute homes, without burning another retry cycle.
    Substitutes come from ``index``, the catalog version the query reads;
    the reader's fault context and stats record the death.

    ``tids_by_attribute`` narrows a rescue to specific tuples; passing a
    callable defers the computation to failure time (e.g. "the projected
    cells of selected tuples no readable partition has supplied *yet*").
    """

    __slots__ = (
        "reader", "index", "attributes", "replan_known_dead",
        "tids_by_attribute", "pending", "done",
    )

    def __init__(
        self,
        reader: PlanReader,
        index: CatalogIndex,
        attributes: Iterable[str],
        replan_known_dead: bool = False,
        tids_by_attribute=None,
    ):
        self.reader = reader
        self.index = index
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
        with obs_tracer().span(
            "exec.degrade", pid=pid, discovered=exc is not None
        ) as span:
            n_pending_before = len(self.pending)
            handle_unreadable(
                self.index, pid, self.attributes, self.reader.fctx,
                self.reader.stats, self.pending, self.done, exc, tids,
            )
            span.set(n_substitutes=len(self.pending) - n_pending_before)

    def run(
        self,
        process: Callable[[int, PhysicalPartition], None],
        skip: Optional[Callable[[int], bool]] = None,
    ) -> None:
        fctx = self.reader.fctx
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
    cells = 0
    for segment in partition.segments:
        cells += len(segment.tuple_ids) * len(segment.attributes)
    return cells


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

    :meth:`select` evaluates one partition's segments into the status
    vector and counts the co-located projected cells its hits carry
    (line 16's stash, in closed form: the cells stay where they are stored
    and reach their output rows once the selection is final).

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

    __slots__ = ("conjunction", "status", "hit_only", "refuted", "hides",
                 "hits", "_n_hits")

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
        VALID tuples that failed, projected cells the hits carry."""
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
                if where is tids or self.hides:
                    n_hits = self.hit(tids[passing])
                else:  # a run the view hides nothing of: one contiguous write
                    status[where] = passing.view(np.uint8)
                    n_hits = self._keep(tids[passing])
            else:
                before = status[where]
                if before.any():  # some tuple here already carries a verdict
                    passing &= before != STATUS_INVALID
                    was_valid = before == STATUS_VALID
                    still_valid = int(np.count_nonzero(was_valid & passing))
                    evictions += int(np.count_nonzero(was_valid)) - still_valid
                    inserts -= still_valid
                n_hits = int(np.count_nonzero(passing))
                status[where] = STATUS_INVALID - passing.view(np.uint8)
            inserts += n_hits
            stashed += n_hits * len(self.wanted(segment.attributes))
        return inserts, evictions, stashed

    def hit(self, found: np.ndarray) -> int:
        """The hit-only form's verdict on tuples that passed: VALID, unless
        the view hides them.  Returns how many turned VALID."""
        if self.hides:  # a hidden tuple stays INVALID
            found = found[self.status[found] != STATUS_INVALID]
        self.status[found] = STATUS_VALID
        return self._keep(found)

    def _keep(self, found: np.ndarray) -> int:
        if self.hits is not None:
            self.hits.append(found)
            self._n_hits += len(found)
            if 16 * self._n_hits > len(self.status):
                self.hits = None
        return len(found)

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


class ProjectFillOp(_ProjectingOp):
    """Algorithm 5's result hash table at its true size.

    Built once the selection is final: ``valid`` (the ascending VALID tids)
    *is* the ``tid -> output row`` map, so every fill writes into
    |result|-sized columns; ``filled`` flags of the same size say which
    cells are still missing.  The partition-at-a-time driver writes them
    from the schema-group image (:meth:`GroupSelectOp.fill`); the scan
    driver's :meth:`fill` writes a segment's cells as it reads them, its
    rows (:meth:`_hits`) a slice of ``valid`` for a run, else found by one
    status pass.
    """

    __slots__ = ("select", "status", "valid", "columns", "filled", "_row_of")

    def __init__(self, projected: Tuple[str, ...], select: SelectOp, schema):
        super().__init__(projected)
        #: the selection this table was built from.
        self.select = select
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
        self._row_of: Optional[np.ndarray] = None

    def _rows(self, tids: np.ndarray) -> np.ndarray:
        """Output rows of result tids.  From a quarter of the table up, from
        a dense map, not a binary search (n log n on a full-table result);
        the map's 4 B per tuple are then at most 16 B per result row."""
        n_rows = len(self.valid)
        if self._row_of is None and 4 * n_rows >= len(self.status):
            self._row_of = np.empty(len(self.status), dtype=np.int32)
            self._row_of[self.valid] = np.arange(n_rows, dtype=np.int32)
        if self._row_of is not None:
            return self._row_of[tids]
        return np.searchsorted(self.valid, tids)

    def _hits(self, tids: np.ndarray, tid_storage: str):
        """``(output rows, positions in the segment)`` of the result tuples
        one segment stores."""
        where = _address(tids, tid_storage)
        if where is not tids:
            first, last = np.searchsorted(self.valid, (where.start, where.stop))
            return slice(first, last), self.valid[first:last] - where.start
        hits = (self.status[tids] == STATUS_VALID).nonzero()[0]
        return self._rows(tids[hits]), hits

    def touches(self, info: PartitionInfo) -> bool:
        """Whether any result tuple lives in the partition (the catalog's
        verdict; an access loop asks once per pid)."""
        return bool(len(self.valid)) and any(
            len(tids) and len(self._hits(tids, mode)[1])
            for tids, mode in zip(info.segment_tids, info.segment_tid_modes)
        )

    def missing(self, name: str) -> np.ndarray:
        """Result tids whose ``name`` cell no partition has supplied yet."""
        return self.valid[~self.filled[name]]

    def fill(self, partition: PhysicalPartition) -> int:
        """Write the partition's projected cells of result tuples; returns
        the cells (hits x wanted attributes, per segment)."""
        written = 0
        for segment in partition.segments:
            wanted = self.wanted(segment.attributes)
            tids = segment.tuple_ids
            if not wanted or not len(tids):
                continue
            rows, hits = self._hits(tids, segment.tid_storage)
            if not len(hits):
                continue
            for name in wanted:
                self.columns[name][rows] = segment.columns[name][hits]
                self.filled[name][rows] = True
            written += len(hits) * len(wanted)
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


class GroupSelectOp(SelectOp):
    """Algorithm 5 per schema group: the partition-at-a-time driver's
    selection state plus the slots of every partition it loaded.

    Loads stay per partition, in plan order (:class:`AccessLoop`,
    :class:`PlanReader`); :meth:`add` files each loaded partition's
    segments as slots of the schema-group image — the pool's
    (:meth:`~repro.storage.buffer_pool.BufferPool.image_slots`) while the
    pool holds the partition, else a private one over every partition this
    query loaded, dropped with the query.  Evaluation then runs once per
    group, over this query's slots only:

    * :meth:`select_groups` — the visit-once form: one predicate mask over
      each group's loaded, unrefuted slots (contiguous runs of rows, in
      blocks of at most ``_BLOCK``);
    * :meth:`fill` — one position gather per (group, attribute) into the
      result columns.

    Other plans select partition by partition, in plan order
    (:meth:`SelectOp.select`), so their counters see the same status
    transitions.  Every counter comes in closed form from slot lengths and
    hit counts, as the paper's loop would have counted them."""

    __slots__ = ("pool", "image", "loaded", "slots", "evaluated", "_epoch")

    def __init__(self, conjunction: Conjunction, projected: Tuple[str, ...],
                 n_tuples: int, hidden: Optional[np.ndarray], hit_only: bool,
                 refuted: frozenset, pool: Optional[BufferPool]):
        super().__init__(conjunction, projected, n_tuples, hidden, hit_only, refuted)
        self.pool = pool
        self.image = pool.image if pool is not None else SchemaImage()
        #: an epoch no later than every admission of this query's slots
        self._epoch = self.image.epoch
        self.loaded: Dict[int, PhysicalPartition] = {}
        self.slots: Dict[int, Tuple[ImageSlot, ...]] = {}
        #: selection pids whose segments were evaluated, in load order.
        self.evaluated: List[int] = []

    def add(self, pid: int, partition: PhysicalPartition, selection: bool) -> None:
        """File one loaded partition's segments as slots (a refuted
        selection partition is read, never evaluated: it needs none)."""
        if selection:
            if self.hit_only and pid in self.refuted:
                return
            self.evaluated.append(pid)
        self.loaded[pid] = partition
        slots = self.image.slots(pid)
        if slots is None:
            slots = (
                self.pool.image_slots(pid, partition) if self.pool is not None
                else self.image.attach(partition)
            )
            if slots is None:
                self._private()
                return
        self.slots[pid] = slots

    def _private(self) -> None:
        """Move to a private image over every partition loaded so far."""
        self.pool, self.image = None, SchemaImage()
        self.slots = {
            pid: self.image.attach(partition)
            for pid, partition in self.loaded.items()
        }

    def _locked(self):
        """Acquire an image lock under which every slot of this query is
        live (else move to a private image first); returns the lock."""
        lock = self.image.lock
        lock.acquire()
        if self.pool is not None and self.image.epoch != self._epoch:
            if all(slot.live for slots in self.slots.values() for slot in slots):
                self._epoch = self.image.epoch
            else:
                lock.release()
                self._private()
                lock = self.image.lock
                lock.acquire()
        return lock

    def _by_group(self, pids: List[int]) -> Dict[ImageGroup, List[ImageSlot]]:
        """The slots of ``pids`` (distinct: each phase reads a pid once)
        with rows, per group."""
        groups: Dict[ImageGroup, List[ImageSlot]] = {}
        for pid in pids:
            for slot in self.slots[pid]:
                if slot.stop > slot.start:
                    groups.setdefault(slot.group, []).append(slot)
        return groups

    def select_groups(self) -> Tuple[int, int]:
        """The visit-once selection of every evaluated slot, one mask per
        group (per block of its rows).  Returns ``(inserts, stashed)`` as
        :meth:`select` counts them."""
        conjunction = self.conjunction
        found = []
        lock = self._locked()
        try:
            for group, slots in self._by_group(self.evaluated).items():
                columns = {
                    p.attribute: group.column(p.attribute)
                    for p in conjunction.predicates if p.attribute in group.attributes
                }
                hits = []
                for block in _blocks(slots):
                    start, stop = block[0].start, block[-1].stop
                    passing, _ = conjunction.evaluate_available(
                        {name: column[start:stop] for name, column in columns.items()},
                        stop - start,
                    )
                    for slot in block:
                        hits.append(slot.tids[passing[slot.start - start:slot.stop - start]])
                found.append((
                    hits[0] if len(hits) == 1 else np.concatenate(hits),
                    len(self.wanted(group.attributes)),
                ))
        finally:
            lock.release()
        inserts = stashed = 0
        for hits, n_wanted in found:
            n_hits = self.hit(hits)
            inserts += n_hits
            stashed += n_hits * n_wanted
        return inserts, stashed

    def fill(self, fill_op: ProjectFillOp, pids: List[int]) -> int:
        """Write the projected cells the slots of ``pids`` hold for result
        tuples: per group one ``tid -> row`` gather, then one gather per
        wanted attribute.  Returns the cells per slot (hits x wanted
        attributes), as the per-partition fill counted them."""
        valid = fill_op.valid
        if not len(valid) or not pids:
            return 0
        written = 0
        lock = self._locked()
        try:
            for group, slots in self._by_group(pids).items():
                wanted = self.wanted(group.attributes)
                if not wanted:
                    continue
                rows = group.rows(valid)
                held = rows >= 0
                if len(slots) < group.n_live:  # some live slot is not ours
                    ours = np.zeros(group.n_rows, dtype=bool)
                    for slot in slots:
                        ours[slot.start:slot.stop] = True
                    held &= ours[rows]  # (row -1 reads the last: not held)
                n_held = int(np.count_nonzero(held))
                if not n_held:
                    continue
                written += n_held * len(wanted)
                if n_held < len(valid):
                    out = held.nonzero()[0]
                    rows = rows[out]
                    for name in wanted:
                        fill_op.columns[name][out] = group.column(name)[rows]
                        fill_op.filled[name][out] = True
                else:
                    for name in wanted:
                        np.take(group.column(name), rows, out=fill_op.columns[name])
                        fill_op.filled[name].fill(True)
        finally:
            lock.release()
        return written


#: most rows one predicate mask spans, unless one slot is longer (its
#: temporaries stay block-sized).
_BLOCK = 1 << 16


def _blocks(slots: List[ImageSlot]) -> List[List[ImageSlot]]:
    """The slots in row order, cut into runs of adjacent rows of at most
    ``_BLOCK`` rows (or one slot)."""
    blocks: List[List[ImageSlot]] = []
    for slot in sorted(slots, key=lambda slot: slot.start):
        if (blocks and blocks[-1][-1].stop == slot.start
                and slot.stop - blocks[-1][0].start <= _BLOCK):
            blocks[-1].append(slot)
        else:
            blocks.append([slot])
    return blocks


def finalize_stats(
    stats: ExecutionStats, cpu_model: Optional[CpuModel], started: float
) -> None:
    """Convert event counters to simulated CPU time (for an engine that
    prices them) and stamp wall time."""
    if cpu_model is not None:
        stats.charge_cpu(cpu_model)
    stats.wall_time_s = time.perf_counter() - started
