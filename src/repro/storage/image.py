"""The schema-group image: resident partitions, columnar, per segment schema.

Jigsaw's partitions collapse to a handful of segment schemas (a 94-partition
irregular layout of a 24-attribute table has six).  The image lays the
segments a query engine reads out per schema, so that engine evaluates a
predicate once per schema group and gathers a projected attribute once per
group, not once per partition:

* a **slot** is one segment of one partition: a contiguous row slice of its
  group, appended in admission order, with the catalog's tuple IDs of the
  segment;
* a **group** is one layer of one segment schema.  It holds its slots' rows:
  one column per attribute, materialized from the segments when a query
  first reads that attribute (a group of one segment reads the segment's
  own), plus — once it has a second segment — a dense ``tid -> row``
  position array (the row plus one, 0 where no live slot of the group
  holds the tuple, as uint16 while the group has under 65 535 rows and
  uint32 after; its last entry is always 0, so a clipped ``take`` answers
  tids past the domain; one segment answers by binary search) and, once a
  selection first asks, the inverse ``row -> tid`` array, in the narrowest
  dtype that holds its largest tid (a group of one segment answers with
  the segment's own tids), so a block of rows turns its hits into tids
  with one gather.  A tuple has at most one live row per group: a segment
  whose tuples a live slot already holds opens the schema's next layer.
  The catalog's live set gives each cell one home, but the pool serves
  every pinned version, and an ``AS OF`` read can admit a retired
  partition beside its rewrite;
* a slot **dies** when its pid is dropped (:meth:`SchemaImage.drop`): its
  positions are cleared and its segment released.  Its rows stay until the
  group's dead rows outnumber its live ones; then the group is rebuilt from
  its live slots, in place.  A group with no live row is dropped;
* the image **sizes itself**: a group's columns and row tids grow by half
  again when an admission outruns them, its positions by an eighth past
  the largest tid admitted.  It reserves nothing and asks the catalog
  nothing.

Two lifetimes, two admissions.  The
:class:`~repro.storage.buffer_pool.BufferPool` holds one image over its
resident partitions: a pid is admitted (:meth:`SchemaImage.attach`,
segment by segment, each checked against the schema's layers) when an
engine first reads it through the pool, and dies when the pool evicts or
invalidates it.  That image serves every pinned version, hence the layers.
Without a pool, or when one of a query's pids was evicted while the query
ran, the engine builds a private image over the partitions it loaded and
drops it with the query.  Those partitions come from one pinned view, so
the private image needs no layer: it admits a query's loads in one batch
(:meth:`SchemaImage.stack`), one :class:`StackedGroup` per schema, whose
columns, row tids and positions are each built in one step when a read
first asks.  The positions check that no tuple was stacked twice; if one
was, the query admits its partitions in layers after all.

Every mutation, and every read that relies on its slots being live, holds
:attr:`SchemaImage.lock`.  The image charges nothing to the simulated
accounting: loads are charged by the partition manager before a segment
is admitted, and the image's bytes are outside the pool's budget.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from .physical import PhysicalPartition, PhysicalSegment

__all__ = ["ImageGroup", "ImageSlot", "SchemaImage", "StackedGroup", "TupleStackedTwice"]


_UINT16, _UINT32, _INT64 = np.dtype(np.uint16), np.dtype(np.uint32), np.dtype(np.int64)
_UINT16_MAX = int(np.iinfo(np.uint16).max)
_UINT32_MAX = int(np.iinfo(np.uint32).max)


def _tid_dtype(tid: int) -> np.dtype:
    """The narrowest dtype for tuple IDs up to ``tid``: unsigned up to 32
    bits, int64 past them (it mixes with int64 tids without a float)."""
    if tid <= _UINT16_MAX:
        return _UINT16
    return _UINT32 if tid <= _UINT32_MAX else _INT64


def _row_dtype(n_rows: int) -> np.dtype:
    """The narrowest position dtype for rows up to ``n_rows`` (a position
    is its row plus one: 0 means no row)."""
    return _UINT16 if n_rows < _UINT16_MAX else _UINT32


class ImageSlot:
    """One segment in its group: rows ``[start, stop)``; ``source`` is the
    segment's column mapping, None once the slot died.  The slot refers to
    its group weakly, so a dropped image is freed at once, not at the next
    cycle collection."""

    __slots__ = ("pid", "_group", "start", "stop", "tids", "source")

    def __init__(self, pid: int, group: "ImageGroup", start: int,
                 tids: np.ndarray, source: Mapping[str, np.ndarray]):
        self.pid = pid
        self._group = weakref.ref(group)
        self.start = start
        self.stop = start + len(tids)
        self.tids = tids
        self.source: Optional[Mapping[str, np.ndarray]] = source

    @property
    def live(self) -> bool:
        return self.source is not None

    @property
    def group(self) -> "ImageGroup":
        group = self._group()
        assert group is not None
        return group


class ImageGroup:
    """One layer of one segment schema; see the module docstring."""

    __slots__ = ("attributes", "slots", "n_rows", "n_dead", "n_live",
                 "positions", "columns", "tids", "capacity", "__weakref__")

    def __init__(self, attributes: Tuple[str, ...]):
        self.attributes = attributes
        self.slots: List[ImageSlot] = []
        self.n_rows = self.n_dead = self.n_live = 0
        #: None while the group is its first segment alone.
        self.positions: Optional[np.ndarray] = None
        self.columns: Dict[str, np.ndarray] = {}
        #: the ``row -> tid`` array, None until a selection first asks.
        self.tids: Optional[np.ndarray] = None
        self.capacity = 0

    def rows(self, tids: np.ndarray) -> np.ndarray:
        """The rows of ascending ``tids`` (-1 where no live slot holds one)."""
        if self.positions is not None:
            return np.subtract(self.positions.take(tids, mode="clip"), 1, dtype=np.int64)
        own = self.slots[0].tids  # the group is this one segment
        at = np.minimum(np.searchsorted(own, tids), max(len(own) - 1, 0))
        return np.where(own.take(at, mode="clip") == tids, at, -1)

    def holds_any(self, tids: np.ndarray) -> bool:
        """Whether a live slot holds one of ``tids``."""
        if not len(tids) or not self.n_live:
            return False
        if self.positions is None:
            self._position()
        return bool((self.rows(tids) >= 0).any())

    def _position(self) -> None:
        """Index the live slots' tuples; from the second segment on, every
        admission keeps the index."""
        domain = 0
        for slot in self.slots:
            if slot.live and len(slot.tids):
                domain = max(domain, int(slot.tids[-1]) + 1)
        self.positions = np.zeros(domain + 1, dtype=_row_dtype(self.capacity))
        for slot in self.slots:
            if slot.live:
                self._place(slot)

    def _place(self, slot: ImageSlot) -> None:
        assert self.positions is not None
        self.positions[slot.tids] = np.arange(
            slot.start + 1, slot.stop + 1, dtype=self.positions.dtype
        )

    def column(self, name: str) -> np.ndarray:
        """``name``'s column over every row, materialized from the live
        slots on first use (rows of dead slots are undefined).  A group that
        is one segment reads that segment's own column: nothing to copy."""
        column = self.columns.get(name)
        if column is None:
            live = [s.source for s in self.slots if s.source is not None]
            if len(live) == 1 == len(self.slots):
                return live[0][name]
            column = np.empty(self.capacity, dtype=live[0][name].dtype)
            for slot in self.slots:
                if slot.source is not None:
                    column[slot.start:slot.stop] = slot.source[name]
            self.columns[name] = column
        return column

    def row_tids(self) -> np.ndarray:
        """Every row's tuple ID (dead rows' undefined), materialized from
        the live slots on first use in the narrowest dtype that holds the
        largest.  A group that is one segment answers with that segment's
        own tids: nothing to copy."""
        if self.tids is None:
            live = [s for s in self.slots if s.live]
            if len(live) == 1 == len(self.slots):
                return live[0].tids
            top = max((int(s.tids[-1]) for s in live if len(s.tids)), default=0)
            self.tids = np.empty(self.capacity, dtype=_tid_dtype(top))
            for slot in live:
                self.tids[slot.start:slot.stop] = slot.tids
        return self.tids

    def admit(self, pid: int, tids: np.ndarray,
              source: Mapping[str, np.ndarray]) -> ImageSlot:
        """Append one segment (ascending ``tids``, none held by a live slot)."""
        n = self.n_rows
        slot = ImageSlot(pid, self, n, tids, source)
        if slot.stop > self.capacity:  # half as many rows again
            self._grow(max(slot.stop, self.capacity + self.capacity // 2))
        if self.slots and self.positions is None:
            self._position()
        if self.positions is not None and len(tids):
            domain = int(tids[-1]) + 1
            if domain >= len(self.positions):
                # The sentinel past the domain, and an eighth to spare: a
                # table grows by commits.
                positions = np.zeros(domain + 1 + domain // 8, self.positions.dtype)
                positions[:len(self.positions) - 1] = self.positions[:-1]
                self.positions = positions
            if slot.stop >= _UINT16_MAX:
                self.positions = self.positions.astype(_UINT32, copy=False)
            self._place(slot)
        for name, column in self.columns.items():
            column[n:slot.stop] = source[name]
        if self.tids is not None and len(tids):
            dtype = _tid_dtype(int(tids[-1]))
            if dtype.itemsize > self.tids.itemsize:
                self.tids = self.tids.astype(dtype)
            self.tids[n:slot.stop] = tids
        self.slots.append(slot)
        self.n_rows = slot.stop
        self.n_live += 1
        return slot

    def _grow(self, capacity: int) -> None:
        """Room for ``capacity`` rows (a tail no row was written to is never
        resident)."""
        self.capacity = capacity
        for name, old in self.columns.items():
            self.columns[name] = self._resized(old)
        if self.tids is not None:
            self.tids = self._resized(self.tids)

    def _resized(self, old: np.ndarray) -> np.ndarray:
        """``old``'s rows in an array of ``capacity`` rows."""
        array = np.empty(self.capacity, dtype=old.dtype)
        array[:self.n_rows] = old[:self.n_rows]
        return array

    def kill(self, slot: ImageSlot) -> bool:
        """One slot died; returns whether the group has no live row left."""
        if self.positions is not None:
            self.positions[slot.tids] = 0
        slot.source = None
        self.n_dead += slot.stop - slot.start
        self.n_live -= 1
        if not self.n_live:
            return True
        if 2 * self.n_dead > self.n_rows:
            self._rebuild()
        return False

    def _rebuild(self) -> None:
        """Reclaim dead rows: the live slots, compacted in their order."""
        live = [s for s in self.slots if s.live]
        self.capacity = sum(s.stop - s.start for s in live)
        columns = {
            name: np.empty(self.capacity, dtype=old.dtype)
            for name, old in self.columns.items()
        }
        row = 0
        for slot in live:
            stop = row + slot.stop - slot.start
            for name, old in self.columns.items():
                columns[name][row:stop] = old[slot.start:slot.stop]
            slot.start, slot.stop = row, stop
            if self.positions is not None:
                self._place(slot)
            row = stop
        if self.tids is not None:
            self.tids = np.empty(self.capacity, dtype=self.tids.dtype)
            for slot in live:
                self.tids[slot.start:slot.stop] = slot.tids
        self.columns, self.slots = columns, live
        self.n_rows, self.n_dead = row, 0

    def nbytes(self, live: bool = False) -> int:
        """Bytes of the rows in use (only live ones with ``live``) and of the
        positions."""
        rows = self.n_rows - self.n_dead if live else self.n_rows
        width = sum(column.itemsize for column in self.columns.values())
        if self.tids is not None:
            width += self.tids.itemsize
        positions = 0 if self.positions is None else self.positions.nbytes
        return rows * width + positions


class TupleStackedTwice(Exception):
    """Two slots of a :class:`StackedGroup` hold one tuple."""


class StackedGroup(ImageGroup):
    """One segment schema of a private image: the segments of one query's
    batches (:meth:`stack`), laid out one after another.  Nothing is copied
    when a batch is stacked: a read builds what it asks for over the rows
    stacked since it last asked — a column or the ``row -> tid`` array by
    one ``np.concatenate``, the positions by one ``arange``.  A group of
    one segment reads the segment's own arrays, as :class:`ImageGroup`
    does.

    Its slots never die, and no tuple is stacked twice: every partition
    comes from one pinned view, whose catalog gives each cell one home.
    :meth:`rows` checks that (positions placed == rows stacked) and raises
    :class:`TupleStackedTwice` when it fails, so the query admits its
    partitions in layers."""

    __slots__ = ("n_placed",)

    def __init__(self, attributes: Tuple[str, ...]):
        super().__init__(attributes)
        #: rows the positions index.
        self.n_placed = 0

    def stack(self, batch: List[Tuple[int, PhysicalSegment]]) -> List[ImageSlot]:
        """Append ``(pid, segment)`` pairs as contiguous slots."""
        slots = []
        start = self.n_rows
        for pid, segment in batch:
            slot = ImageSlot(pid, self, start, segment.tuple_ids, segment.columns)
            slots.append(slot)
            start = slot.stop
        self.slots += slots
        self.n_live += len(slots)
        self.n_rows = self.capacity = start
        return slots

    def _since(self, row: int) -> List[ImageSlot]:
        """The slots from ``row`` on (slot starts ascend)."""
        slots = self.slots
        first = len(slots)
        while first and slots[first - 1].start >= row:
            first -= 1
        return slots[first:]

    def column(self, name: str) -> np.ndarray:
        if len(self.slots) == 1:
            return self._extended(None, name)
        column = self.columns.get(name)
        if column is None or len(column) < self.n_rows:
            column = self.columns[name] = self._extended(column, name)
        return column

    def row_tids(self) -> np.ndarray:
        if len(self.slots) == 1:
            return self.slots[0].tids
        if self.tids is None or len(self.tids) < self.n_rows:
            self.tids = self._extended(self.tids, None)
        return self.tids

    def _extended(self, built: Optional[np.ndarray], name: Optional[str]) -> np.ndarray:
        """``built`` (None: no row yet) followed by ``name``'s cells (the
        tids for None) of the rows stacked since: one concatenate, none for
        one array."""
        parts = [] if built is None else [built]
        parts += [
            slot.tids if name is None else slot.source[name]
            for slot in self._since(0 if built is None else len(built))
            if slot.source is not None
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def rows(self, tids: np.ndarray) -> np.ndarray:
        """The rows of ascending ``tids`` (-1 where no slot holds one);
        raises :class:`TupleStackedTwice` if two slots hold one tuple."""
        if len(self.slots) == 1:
            return super().rows(tids)
        if self.n_placed < self.n_rows:
            placed = self.n_placed
            top = max((int(s.tids[-1]) for s in self._since(placed) if len(s.tids)),
                      default=0)
            positions = self.positions
            dtype = _row_dtype(self.n_rows)
            if positions is None or top + 1 >= len(positions):
                grown = np.zeros(top + 2, dtype=dtype)
                if positions is not None:
                    grown[:len(positions)] = positions
                positions = grown
            elif dtype.itemsize > positions.itemsize:
                positions = positions.astype(dtype)
            positions[self.row_tids()[placed:]] = np.arange(
                placed + 1, self.n_rows + 1, dtype=positions.dtype)
            if np.count_nonzero(positions) != self.n_rows:
                self.positions, self.n_placed = None, 0
                raise TupleStackedTwice(self.attributes)
            self.positions, self.n_placed = positions, self.n_rows
        return super().rows(tids)


class SchemaImage:
    """The slots of a set of partitions, grouped by segment schema."""

    def __init__(self) -> None:
        self.lock = threading.RLock()
        #: bumped whenever a slot dies: a reader that saw the same epoch
        #: before its first admission knows its slots are all live.
        self.epoch = 0
        self._groups: Dict[Tuple[str, ...], List[ImageGroup]] = {}
        self._slots: Dict[int, Tuple[ImageSlot, ...]] = {}

    def attach(self, partition: PhysicalPartition) -> Tuple[ImageSlot, ...]:
        """The partition's slots, one per segment, admitting it on first use."""
        with self.lock:
            slots = self._slots.get(partition.pid)
            if slots is None:
                slots = self._slots[partition.pid] = tuple(
                    self._admit(partition.pid, segment)
                    for segment in partition.segments
                )
            return slots

    def stack(
        self, partitions: List[PhysicalPartition]
    ) -> Dict[int, Tuple[ImageSlot, ...]]:
        """Admit a batch of partitions, none admitted yet, into a private
        image: their segments stacked per schema, one :class:`StackedGroup`
        a schema (see its checks).  Returns each pid's slots, one per
        segment, in segment order."""
        batch: Dict[Tuple[str, ...], List[Tuple[int, PhysicalSegment]]] = {}
        for partition in partitions:
            for segment in partition.segments:
                batch.setdefault(segment.attributes, []).append((partition.pid, segment))
        with self.lock:
            fresh: Dict[Tuple[str, ...], Iterator[ImageSlot]] = {}
            for attributes, entries in batch.items():
                layers = self._groups.setdefault(attributes, [])
                if not layers:
                    layers.append(StackedGroup(attributes))
                group = layers[0]
                assert isinstance(group, StackedGroup)
                fresh[attributes] = iter(group.stack(entries))
            # Each schema's fresh slots are in partition, then segment, order.
            admitted: Dict[int, Tuple[ImageSlot, ...]] = {}
            for partition in partitions:
                admitted[partition.pid] = self._slots[partition.pid] = tuple(
                    next(fresh[segment.attributes]) for segment in partition.segments
                )
            return admitted

    def slots(self, pid: int) -> Optional[Tuple[ImageSlot, ...]]:
        """``pid``'s slots if it is admitted: one lookup, no lock (whether
        they are still live is checked under the lock before any read)."""
        return self._slots.get(pid)

    def _admit(self, pid: int, segment: PhysicalSegment) -> ImageSlot:
        layers = self._groups.setdefault(segment.attributes, [])
        for group in layers:
            if not group.holds_any(segment.tuple_ids):
                break
        else:
            group = ImageGroup(segment.attributes)
            layers.append(group)
        return group.admit(pid, segment.tuple_ids, segment.columns)

    def drop(self, pid: int) -> None:
        """Kill ``pid``'s slots (the pool no longer holds it)."""
        with self.lock:
            slots = self._slots.pop(pid, ())
            if slots:
                self.epoch += 1
            for slot in slots:
                group = slot.group
                if group.kill(slot):
                    layers = self._groups[group.attributes]
                    layers.remove(group)
                    if not layers:
                        del self._groups[group.attributes]

    def clear(self) -> None:
        """Kill every slot."""
        with self.lock:
            for slots in self._slots.values():
                for slot in slots:
                    slot.source = None
            self._slots.clear()
            self._groups.clear()
            self.epoch += 1

    def groups(self) -> List[ImageGroup]:
        with self.lock:
            return [group for layers in self._groups.values() for group in layers]

    def pids(self) -> Tuple[int, ...]:
        """Pids with live slots."""
        with self.lock:
            return tuple(self._slots)

    def nbytes(self, live: bool = False) -> int:
        """Bytes the image holds (:meth:`ImageGroup.nbytes`), summed."""
        with self.lock:
            return sum(group.nbytes(live) for group in self.groups())
