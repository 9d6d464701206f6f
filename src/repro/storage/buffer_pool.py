"""A byte-budgeted buffer pool of *deserialized* partitions.

The simulated :class:`~repro.storage.device.StorageDevice` already models the
OS page cache at the byte level (the Figure 11 warm-data experiment), but it
cannot model the very real Python-side cost of re-decoding a partition file
on every access — which dominates wall-clock time in repeated-query
workloads.  The :class:`BufferPool` sits *above* the device and caches whole
deserialized :class:`~repro.storage.physical.PhysicalPartition` objects keyed
by partition id, the way cloud engines cache decoded micro-partitions.

Accounting composes with the device model as follows:

* **pool miss** — the read is charged through the simulated device exactly as
  without a pool (the simulated OS cache still applies), the partition is
  decoded, and the result is inserted into the pool.
* **pool hit** — neither simulated I/O nor decode work happens; the hit is
  reported through ``IOStats.n_pool_hits`` / ``pool_hit_bytes`` so engines
  can surface it in ``ExecutionStats``.

Eviction is LRU, bounded by ``capacity_bytes`` of *file* bytes (the
serialized size is the natural budget unit: it is what the catalog already
tracks and a good proxy for the decoded footprint).  Evicting an entry only
drops the pool's reference: a query that holds the partition keeps reading
it, so no entry needs protecting from eviction while it is scanned.

The pool also holds the :class:`~repro.storage.image.SchemaImage` of its
resident partitions: :meth:`BufferPool.image_slots` admits a resident
partition on an engine's first read, and every way an entry leaves the pool
(LRU eviction, a refresh, :meth:`~BufferPool.invalidate`,
:meth:`~BufferPool.clear`) kills its slots.  The image's bytes are not
charged to ``capacity_bytes``: charging them would move evictions, and with
them every counter above.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from .image import ImageSlot, SchemaImage
from .io_stats import IOStats
from .physical import PhysicalPartition

__all__ = ["BufferPool", "BufferPoolStats"]


@dataclass(slots=True)
class BufferPoolStats:
    """Lifetime counters of one pool (all monotonically increasing)."""

    n_hits: int = 0
    n_misses: int = 0
    n_insertions: int = 0
    n_evictions: int = 0
    n_invalidations: int = 0
    hit_bytes: int = 0
    evicted_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        lookups = self.n_hits + self.n_misses
        return self.n_hits / lookups if lookups else 0.0


class _Entry:
    __slots__ = ("hit", "n_bytes")

    def __init__(self, partition: PhysicalPartition, n_bytes: int):
        #: what every hit returns: the partition and its (read-only) delta.
        self.hit = (partition, IOStats(n_pool_hits=1, pool_hit_bytes=n_bytes))
        self.n_bytes = n_bytes


class BufferPool:
    """Thread-safe LRU cache of deserialized partitions, keyed by pid."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("buffer pool capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self.stats = BufferPoolStats()
        self._lock = threading.RLock()
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        self._current_bytes = 0
        self.image = SchemaImage()

    # ------------------------------------------------------------- lookups

    def get(self, pid: int) -> Optional[PhysicalPartition]:
        """Return the cached partition (refreshing LRU order) or ``None``."""
        hit = self.hit(pid)
        return None if hit is None else hit[0]

    def hit(self, pid: int) -> Optional[Tuple[PhysicalPartition, IOStats]]:
        """:meth:`get`, returning ``(partition, delta)`` on a hit: the delta
        a read served by the pool charges (one pool hit of the entry's
        bytes), built once per entry and shared — never mutate it."""
        with self._lock:
            entry = self._entries.get(pid)
            if entry is None:
                self.stats.n_misses += 1
                return None
            self._entries.move_to_end(pid)
            self.stats.n_hits += 1
            self.stats.hit_bytes += entry.n_bytes
            return entry.hit

    def put(self, pid: int, partition: PhysicalPartition, n_bytes: int) -> None:
        """Insert (or refresh) an entry, evicting LRU entries.

        A partition larger than the whole budget is not admitted — callers
        still hold the object they passed in, so nothing breaks; the pool
        just refuses to be wiped by one oversized partition.
        """
        n_bytes = int(n_bytes)
        with self._lock:
            old = self._entries.pop(pid, None)
            if old is not None:
                self._current_bytes -= old.n_bytes
                self.image.drop(pid)
            if n_bytes > self.capacity_bytes:
                return
            self._entries[pid] = _Entry(partition, n_bytes)
            self._current_bytes += n_bytes
            self.stats.n_insertions += 1
            self._evict_over_budget()

    def _evict_over_budget(self) -> None:
        """Drop entries oldest-first until back under budget."""
        while self._current_bytes > self.capacity_bytes:
            pid, entry = self._entries.popitem(last=False)
            self.image.drop(pid)
            self._current_bytes -= entry.n_bytes
            self.stats.n_evictions += 1
            self.stats.evicted_bytes += entry.n_bytes

    # -------------------------------------------------------- invalidation

    def invalidate(self, pid: int) -> None:
        """Drop one pid (its partition retired or unreadable): the cached
        object must not be served again."""
        with self._lock:
            entry = self._entries.pop(pid, None)
            if entry is not None:
                self._current_bytes -= entry.n_bytes
                self.stats.n_invalidations += 1
                self.image.drop(pid)

    def clear(self) -> None:
        """Drop everything (e.g. between cold benchmark repetitions)."""
        with self._lock:
            self._entries.clear()
            self._current_bytes = 0
            self.image.clear()

    def image_slots(
        self, pid: int, partition: PhysicalPartition
    ) -> Optional[Tuple[ImageSlot, ...]]:
        """``partition``'s image slots, admitting it on first use, or None
        unless it is the object the pool holds for ``pid`` (an entry the
        pool refused, evicted or replaced has no slots to keep)."""
        with self._lock:
            entry = self._entries.get(pid)
            if entry is None or entry.hit[0] is not partition:
                return None
            return self.image.attach(partition)

    # ----------------------------------------------------------- inspection

    @property
    def current_bytes(self) -> int:
        return self._current_bytes

    @property
    def image_bytes(self) -> int:
        """Bytes the schema-group image holds (outside ``capacity_bytes``)."""
        return self.image.nbytes()

    def pids(self) -> tuple:
        """Resident pids in LRU → MRU order."""
        with self._lock:
            return tuple(self._entries)

    def __contains__(self, pid: int) -> bool:
        with self._lock:
            return pid in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BufferPool({len(self._entries)} partitions, "
            f"{self._current_bytes}/{self.capacity_bytes} bytes, "
            f"hit_rate={self.stats.hit_rate:.2f})"
        )
