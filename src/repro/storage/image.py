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
  tids past the domain; one segment answers by binary search).  A tuple has
  at most one live row per group: a segment whose tuples a live slot
  already holds opens the schema's next layer, as overlapping primaries
  spill into further layers of the catalog's owner map;
* a slot **dies** when its pid is dropped (:meth:`SchemaImage.drop`): its
  positions are cleared and its segment released.  Its rows stay until the
  group's dead rows outnumber its live ones; then the group is rebuilt from
  its live slots, in place.  A group with no live row is dropped;
* the image **sizes itself**: a group's columns grow by half again when an
  admission outruns them, its positions by an eighth past the largest tid
  admitted.  It reserves nothing and asks the catalog nothing.

Two lifetimes, one form.  The :class:`~repro.storage.buffer_pool.BufferPool`
holds one image over its resident partitions: a pid is admitted when an
engine first reads it through the pool, and dies when the pool evicts or
invalidates it.  Without a pool, or when one of a query's pids was evicted
while the query ran, the engine builds a private image over the partitions
it loaded and drops it with the query.

Every mutation, and every read that relies on its slots being live, holds
:attr:`SchemaImage.lock`.  The image charges nothing to the simulated
accounting: loads are charged by the partition manager before a segment
is admitted, and the image's bytes are outside the pool's budget.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .physical import PhysicalPartition, PhysicalSegment

__all__ = ["ImageGroup", "ImageSlot", "SchemaImage"]


def _row_dtype(n_rows: int) -> np.dtype:
    """The narrowest position dtype for rows up to ``n_rows`` (a position
    is its row plus one: 0 means no row)."""
    return np.dtype(np.uint16 if n_rows < np.iinfo(np.uint16).max else np.uint32)


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
                 "positions", "columns", "capacity", "__weakref__")

    def __init__(self, attributes: Tuple[str, ...]):
        self.attributes = attributes
        self.slots: List[ImageSlot] = []
        self.n_rows = self.n_dead = self.n_live = 0
        #: None while the group is its first segment alone.
        self.positions: Optional[np.ndarray] = None
        self.columns: Dict[str, np.ndarray] = {}
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
            if slot.stop >= np.iinfo(self.positions.dtype).max:
                self.positions = self.positions.astype(np.uint32)
            self._place(slot)
        for name, column in self.columns.items():
            column[n:slot.stop] = source[name]
        self.slots.append(slot)
        self.n_rows = slot.stop
        self.n_live += 1
        return slot

    def _grow(self, capacity: int) -> None:
        """Room for ``capacity`` rows (a tail no row was written to is never
        resident)."""
        self.capacity = capacity
        for name, old in self.columns.items():
            column = np.empty(capacity, dtype=old.dtype)
            column[:self.n_rows] = old[:self.n_rows]
            self.columns[name] = column

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
        self.columns, self.slots = columns, live
        self.n_rows, self.n_dead = row, 0

    def nbytes(self, live: bool = False) -> int:
        """Bytes of the rows in use (only live ones with ``live``) and of the
        positions."""
        rows = self.n_rows - self.n_dead if live else self.n_rows
        width = sum(column.itemsize for column in self.columns.values())
        positions = 0 if self.positions is None else self.positions.nbytes
        return rows * width + positions


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
