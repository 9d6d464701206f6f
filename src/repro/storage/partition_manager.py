"""The partition manager (Section 5.1).

Stores each partition in one file (blob), charges reads through the storage
device, and holds the catalog of the paper's two indexes — the
*attribute-level* index (attribute -> partitions storing it) and the
*tuple-level* index (which partitions store a given tuple's cells) — as one
immutable :class:`~repro.storage.catalog.Catalog` value, replaced whole at
every commit.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

import numpy as np

from ..core.partition import PartitioningPlan
from ..core.schema import TableSchema
from ..obs import tracer as obs_tracer
from ..errors import (
    InvalidPartitioningError,
    PartitionUnreadableError,
    StorageError,
)
from .blob import BlobStore, MemoryBlobStore
from .buffer_pool import BufferPool
from .catalog import Catalog, CatalogIndex, CatalogSnapshot, PartitionInfo
from .device import StorageDevice
from .faults import RetryPolicy
from .io_stats import IOStats
from .format import (
    append_trailer,
    checksum_overhead,
    deserialize_partition,
    serialize_partition,
)
from .sketches import SketchSet
from .physical import (
    TID_CATALOG,
    TID_EXPLICIT,
    PhysicalPartition,
    PhysicalSegment,
    SegmentSpec,
    build_physical_partition,
    physical_from_logical,
)
from .table_data import ColumnTable

__all__ = ["CatalogIndex", "CatalogSnapshot", "PartitionInfo", "PartitionManager"]


#: Picks the sketch set stored with a partition from its just-built catalog
#: entry (``None`` for none); see :meth:`PartitionManager.materialize`.
Sketcher = Callable[[PartitionInfo], Optional[SketchSet]]


class PartitionManager:
    """Materializes partitions to a blob store and serves indexed reads."""

    def __init__(
        self,
        schema: TableSchema,
        device: StorageDevice,
        store: BlobStore | None = None,
        key_prefix: str = "",
        buffer_pool: BufferPool | None = None,
        retry_policy: RetryPolicy | None = None,
    ):
        self.schema = schema
        self.device = device
        self.store = store if store is not None else MemoryBlobStore()
        self.key_prefix = key_prefix
        self.buffer_pool = buffer_pool
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        #: bound methods, held weakly, invoked (outside the catalog mutex)
        #: after any commit that invalidates memoized pruning state; each
        #: receives the new ``catalog_version``.
        self._invalidation_hooks: List[weakref.WeakMethod] = []
        #: serializes commits, prunes, pins and stage reservations — the
        #: serving tier plans queries while the adaptive daemon swaps.
        #: Readers of the head take no lock: it is one immutable value.
        self._mutex = threading.RLock()
        #: the committed catalog, replaced by one assignment per commit.
        self._head = Catalog()
        #: version -> ``(pins, that version's index, its hidden tids)`` while
        #: it is pinned.
        self._pins: Dict[int, Tuple[int, CatalogIndex, Optional[np.ndarray]]] = {}
        #: ``(version, hidden)`` of the head when it was last pinned, so
        #: successive reads at the head share one array.
        self._head_hidden: Tuple[int, Optional[np.ndarray]] = (-1, None)
        #: pids claimed by a stage in flight, refused to every other stage.
        self._staging: Set[int] = set()

    @property
    def catalog_version(self) -> int:
        """Bumped once per commit — the only thing a pruning verdict can go
        stale against."""
        return self._head.version

    # ------------------------------------------------------- invalidation

    def add_invalidation_hook(self, hook: Callable[[int], None]) -> None:
        """Register a bound method fired after every catalog commit.

        Hooks receive the new ``catalog_version`` and run outside the
        catalog mutex (they may take their own locks but must not re-enter
        the manager's write path).  The semantic partition cache registers
        here to drop entries memoized against versions nothing can reach.
        The manager holds the hook weakly: a cache refers to its manager, so
        a strong reference back would make the two — and every blob and
        pooled partition the manager holds — a cycle that outlives its last
        user until a full garbage collection.
        """
        with self._mutex:
            self._invalidation_hooks.append(weakref.WeakMethod(hook))

    def _notify_invalidation(self) -> None:
        with self._mutex:
            hooks = [ref() for ref in self._invalidation_hooks]
            version = self.catalog_version
        for hook in hooks:
            if hook is not None:
                hook(version)

    # -------------------------------------------------------- materialize

    def _key(self, pid: int) -> str:
        return f"{self.key_prefix}p{pid:06d}.jig"

    def _build_info(
        self, physical: PhysicalPartition, data: bytes, sketcher: Optional[Sketcher]
    ) -> PartitionInfo:
        # ``n_bytes`` is the *accounted* size — the file's bytes less its
        # checksums, the count every simulated-I/O and footprint figure is
        # calibrated to.  Checksum bytes exist in the file but charge
        # nothing, and neither does the sketch trailer.
        info = PartitionInfo(
            pid=physical.pid,
            key=self._key(physical.pid),
            n_bytes=len(data) - checksum_overhead(len(physical.segments)),
            attributes=physical.attribute_set(),
            n_tuples=physical.n_tuples,
            zone_map=physical.zone_map(),
            segment_attrs=[tuple(s.attributes) for s in physical.segments],
            segment_tids=[self._frame_tids(s) for s in physical.segments],
            segment_tid_modes=[s.tid_storage for s in physical.segments],
        )
        if sketcher is not None:
            info.sketches = sketcher(info)
        return info

    def _frame_tids(self, segment: PhysicalSegment) -> np.ndarray:
        """The catalog's tuple-ID array of one segment: a private, read-only
        copy, validated here — once, at write time — so that a read can hand
        it to the decoded segment as is.  The array must equal the file's
        row order, hence strictly ascending tids and schema-ordered
        attributes (what the format's attribute bitmap can express)."""
        tids = np.array(segment.tuple_ids, dtype=np.int64)
        if not (tids[1:] > tids[:-1]).all():
            raise InvalidPartitioningError(
                "a stored segment's tuple IDs must be strictly ascending"
            )
        positions = [self.schema.position(name) for name in segment.attributes]
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise InvalidPartitioningError(
                f"segment attributes {segment.attributes!r} are not in schema order"
            )
        tids.flags.writeable = False
        return tids

    def read(self, info: PartitionInfo) -> PhysicalPartition:
        """Read a stored partition for a rewrite or a write-side lookup:
        fetch, checksum and decode under its catalog entry, retried within
        the retry budget.  It charges nothing — no device time, no simulated
        OS cache, no buffer-pool admission or counter — and drains the
        latency a fault-injecting store pends for it after every attempt.
        Raises :class:`~repro.errors.StorageError` when no attempt decodes."""
        drain_latency = getattr(self.store, "consume_injected_latency", None)
        last_error: StorageError | None = None
        for _attempt in range(self.retry_policy.max_attempts):
            try:
                return deserialize_partition(self.store.get(info.key), self.schema, info)
            except StorageError as exc:
                last_error = exc
            finally:
                if drain_latency is not None:
                    drain_latency(info.key)
        raise StorageError(
            f"partition {info.pid} ({info.key!r}) unreadable after "
            f"{self.retry_policy.max_attempts} attempts: {last_error}"
        ) from last_error

    def swap_partitions(
        self,
        add: Sequence[PhysicalPartition],
        remove: Iterable[int] = (),
        verify: bool = False,
        deleted: Sequence[int] = (),
    ) -> List[PartitionInfo]:
        """Atomically make ``add`` visible, retire ``remove`` and delete the
        tuples ``deleted`` (a write commit's tombstones).

        The one way the catalog or a partition file ever changes: plain
        partition adds, write commits, folds and layout migrations are all
        one swap of *fresh* pids.  A pid names one immutable file for as
        long as the catalog knows it, so an ``add`` whose pid is live,
        retired or being staged by a concurrent swap is refused
        (:class:`~repro.errors.InvalidPartitioningError`) before anything is
        written.  Every new partition file is then *staged* — serialized and
        put, once, under its own key — before the catalog is touched; with
        ``verify`` each staged file is also read back and decoded (through
        the fault-injection path, within the retry budget).  A staging
        failure deletes every staged blob and raises, leaving the old
        catalog, and every file it names, fully intact — this is what makes
        migrations abort-safe.

        The commit itself is one :meth:`Catalog.apply
        <repro.storage.catalog.Catalog.apply>`, swapped in under the mutex.
        It refuses an ``add`` that would give a cell a second home
        (:class:`~repro.errors.StorageError`), and the refusal rolls back
        like a staging failure.  Otherwise
        the catalog version is bumped once, removed pids become *retired*
        (still served by :meth:`info`/:meth:`load`, and still in the index
        of every view pinned before the commit, but absent from the live
        index so new views never see them) and give up their buffer-pool
        slots, and the added partitions are indexed.
        :meth:`prune_retired` reclaims the retired blobs no pinned view
        still needs.
        """
        return self._swap_partitions([list(add)], set(remove), verify, deleted=deleted)

    def _swap_partitions(
        self,
        batches: Iterable[Sequence[PhysicalPartition]],
        removals: Set[int],
        verify: bool = False,
        sketcher: Optional[Sketcher] = None,
        deleted: Sequence[int] = (),
    ) -> List[PartitionInfo]:
        with obs_tracer().span(
            "storage.swap", n_remove=len(removals), verify=verify
        ) as span:
            with self._stage(batches, verify, sketcher) as staged, self._mutex:
                retiring = removals & self._head.index.pids
                self._head = self._head.apply(staged, retiring, deleted)
                self._staging.difference_update(info.pid for info in staged)
            if self.buffer_pool is not None:
                for pid in retiring:
                    self.buffer_pool.invalidate(pid)
            self._notify_invalidation()
            span.set(
                n_add=len(staged),
                catalog_version=self.catalog_version,
                bytes_written=sum(info.n_bytes for info in staged),
            )
        return staged

    @contextmanager
    def _stage(
        self,
        batches: Iterable[Sequence[PhysicalPartition]],
        verify: bool,
        sketcher: Optional[Sketcher],
    ) -> Iterator[List[PartitionInfo]]:
        """Write each added partition's file — body plus, when ``sketcher``
        picks a sketch set for the entry just built, its trailer — with one
        put, and yield the entries to the commit.  Each batch's pids are
        reserved before its first put; on any failure, the commit's own
        included (a refused second home), delete what was put, release the
        reservations and re-raise."""
        staged: List[PartitionInfo] = []
        reserved: List[int] = []
        try:
            for batch in batches:
                reserved.extend(self._reserve([physical.pid for physical in batch]))
                for physical in batch:
                    data = serialize_partition(physical, self.schema)
                    info = self._build_info(physical, data, sketcher)
                    if info.sketches is not None:
                        data = append_trailer(data, info.sketches.to_bytes())
                    self.store.put(info.key, data)
                    staged.append(info)
            if verify:
                for info in staged:
                    try:
                        self.read(info)
                    except StorageError as error:
                        raise StorageError(
                            f"staged partition {info.pid} failed read-back "
                            f"verification: {error}"
                        ) from error
            yield staged
        except Exception:
            for info in staged:
                self.store.delete(info.key)
            with self._mutex:
                self._staging.difference_update(reserved)
            raise

    def _reserve(self, pids: List[int]) -> List[int]:
        """Claim ``pids`` for one stage, refusing any the catalog holds or
        another stage has claimed."""
        if len(set(pids)) != len(pids):
            raise InvalidPartitioningError("swap adds the same pid twice")
        with self._mutex:
            taken = sorted(
                pid for pid in pids
                if pid in self._staging or self._head.holds(pid)
            )
            if not taken:
                self._staging.update(pids)
        if taken:
            raise InvalidPartitioningError(
                f"swap adds pids the catalog already holds {taken}: a "
                f"partition file is written once, use a fresh pid"
            )
        return pids

    def add_partition(self, physical: PhysicalPartition) -> PartitionInfo:
        """Serialize one partition, write it, and index it."""
        return self.swap_partitions([physical])[0]

    def prune_retired(self) -> int:
        """Drop retired partitions (catalog entries + blobs); returns count.

        Pinned views clamp the prune: a partition retired by version ``v``
        was still live at every version below ``v``, and while any view pins
        such a version the entry is spared — every query pins its view for
        its whole execution, so a prune never takes a partition from under a
        reader.  Pruning an entry raises the manager's *floor* — versions
        below the floor can no longer be pinned (their blobs are gone),
        which is what :class:`~repro.errors.SnapshotUnavailableError`
        reports.
        """
        with self._mutex:
            self._head, doomed = self._head.prune(
                min(self._pins, default=self._head.version)
            )
        for info in doomed:
            self.store.delete(info.key)
            self.device.invalidate(info.key)
            if self.buffer_pool is not None:
                self.buffer_pool.invalidate(info.pid)
        return len(doomed)

    # ---------------------------------------------------------- snapshots

    def advance_version(self, deleted: Sequence[int] = ()) -> int:
        """Commit a version bump that changes no partition, deleting the
        tuples ``deleted``.

        The write path calls this when a commit changes what a scan must
        return without adding a partition (a delete-only batch): the catalog
        version is the transaction timeline, so every committed batch of
        writes gets its own pinnable version.  Fires the invalidation hooks.
        """
        with self._mutex:
            self._head = self._head.apply((), (), deleted)
        self._notify_invalidation()
        return self.catalog_version

    def pin_snapshot(self, version: int | None = None) -> CatalogSnapshot:
        """Pin a refcounted, immutable view of the catalog at ``version``.

        Defaults to the current version.  The returned
        :class:`CatalogSnapshot` freezes the *live pid set* of that version:
        the head's :class:`CatalogIndex` itself when no swap has committed
        since, else one built from :meth:`Catalog.live_at
        <repro.storage.catalog.Catalog.live_at>` (:meth:`Catalog.index_at
        <repro.storage.catalog.Catalog.index_at>`; shared by every pin of
        that version and dropped with the last of them) — and what the
        version hides, the tids deleted by then (:meth:`Catalog.hidden_at
        <repro.storage.catalog.Catalog.hidden_at>`; shared likewise, and
        kept for the head version, so a read at the head after another
        computes nothing over the table).  While pinned,
        :meth:`prune_retired` spares every retired partition the snapshot
        still needs.  Release with :meth:`CatalogSnapshot.release` (or use
        it as a context manager).

        Raises :class:`~repro.errors.SnapshotUnavailableError` for future
        versions and for versions below the prune floor.
        """
        with self._mutex:
            head = self._head
            version = head.version if version is None else int(version)
            pin = self._pins.get(version)
            if pin is None:
                index = head.index_at(version)
                memo_version, hidden = self._head_hidden
                if memo_version != version:
                    hidden = head.hidden_at(version, index)
                    if version == head.version:
                        self._head_hidden = (version, hidden)
                pin = (0, index, hidden)
            count, index, hidden = pin
            self._pins[version] = (count + 1, index, hidden)
            return CatalogSnapshot(self, version, index, hidden)

    def release_snapshot(self, snapshot: CatalogSnapshot) -> None:
        """Drop one pin on ``snapshot``'s version (idempotence is the
        snapshot's job — :meth:`CatalogSnapshot.release` only calls once)."""
        with self._mutex:
            pin = self._pins.pop(snapshot.version, None)
            if pin is not None and pin[0] > 1:
                self._pins[snapshot.version] = (pin[0] - 1, *pin[1:])
                return
            superseded = snapshot.version != self.catalog_version
        if superseded:
            # The last reader of a superseded version is gone, and with it
            # the reason to keep what was memoized for that version.
            self._notify_invalidation()

    def snapshot_refcount(self) -> int:
        """Total outstanding snapshot pins across all versions."""
        with self._mutex:
            return sum(pin[0] for pin in self._pins.values())

    def pinned_versions(self) -> Tuple[int, ...]:
        with self._mutex:
            return tuple(sorted(self._pins))

    def floor_version(self) -> int:
        """Oldest catalog version that can still be pinned."""
        return self._head.floor

    def next_pid(self) -> int:
        """A pid never committed (live, retired or pruned) nor being staged."""
        with self._mutex:
            return max([self._head.next_pid, *(pid + 1 for pid in self._staging)])

    def materialize(
        self,
        physicals: Iterable[PhysicalPartition],
        sketcher: Optional[Sketcher] = None,
    ) -> List[PartitionInfo]:
        """Store a layout's partitions as one commit (one version).

        Each partition is staged as it is handed in, so a layout's
        partitions are never all in memory at once; no pinnable version
        shows a half-built layout, and a staging failure rolls back every
        put.  ``sketcher`` picks each partition's data-skipping sketches
        from its just-built catalog entry; they become part of the entry
        and of the file (its trailer) at the partition's one put.  Like
        checksum overhead, trailer bytes charge nothing: ``n_bytes`` is the
        same with or without them.
        """
        return self._swap_partitions(
            ([physical] for physical in physicals), set(), sketcher=sketcher
        )

    def materialize_plan(
        self,
        plan: PartitioningPlan,
        table: ColumnTable,
        tid_storage: str = TID_EXPLICIT,
        sketcher: Optional[Sketcher] = None,
    ) -> List[PartitionInfo]:
        """Resolve every logical partition against the data and store it."""
        tids = np.arange(table.n_tuples, dtype=np.int64)
        columns = table.columns(table.schema.attribute_names)
        return self.materialize(
            (physical_from_logical(partition, tids, columns, table.schema, tid_storage)
             for partition in plan),
            sketcher,
        )

    def materialize_specs(
        self,
        spec_groups: Sequence[Sequence[SegmentSpec]],
        table: ColumnTable,
        tid_storage: str = TID_CATALOG,
        sketcher: Optional[Sketcher] = None,
    ) -> List[PartitionInfo]:
        """Materialize explicit tuple-assignment partitions (baselines)."""
        return self.materialize(
            (build_physical_partition(pid, specs, table, tid_storage)
             for pid, specs in enumerate(spec_groups)),
            sketcher,
        )

    # -------------------------------------------------------------- reads

    def load(
        self, pid: int, chunk_size: int | None = None
    ) -> Tuple[PhysicalPartition, "IOStats"]:
        """Read a partition file from the store, charging simulated device
        time, and admit it to the buffer pool.

        The store read only: a pool hit is answered before this is called
        (:meth:`PlanReader.load_run
        <repro.plan.operators.PlanReader.load_run>`).  Returns ``(partition,
        io_delta)`` where ``io_delta`` holds exactly what this read cost:
        bytes and simulated seconds when it reached the device, or a cache
        hit when the simulated OS buffer cache served it.  The file is
        decoded under its catalog entry, and a cell decodes on first access
        — so a pooled partition serves any later projection.  The whole file
        is charged on a device read: the row-major format offers no
        byte-level skip.

        Reads are fault tolerant: a failed fetch or a corrupt file (bad
        magic, truncation, checksum mismatch) is retried up to
        ``retry_policy.max_attempts`` times with exponential *simulated*
        backoff charged to the returned delta.  A partition that stays
        unreadable raises :class:`PartitionUnreadableError` carrying the
        accumulated ``io_delta``, and any pooled copy is invalidated so a
        stale object can never be served after a failed refresh.
        """
        pool = self.buffer_pool
        info = self.info(pid)
        policy = self.retry_policy
        delta = IOStats()
        drain_latency = getattr(self.store, "consume_injected_latency", None)
        last_error: StorageError | None = None
        for attempt in range(policy.max_attempts):
            if attempt:
                delta.n_retries += 1
                delta.io_time_s += policy.delay_s(attempt - 1)
            try:
                data = self.store.get(info.key)
            except StorageError as exc:
                if drain_latency is not None:
                    delta.io_time_s += drain_latency(info.key)
                last_error = exc
                continue
            # Bytes flowed, so the device charge applies even if the payload
            # turns out corrupt; the accounted size excludes the checksums.
            delta.add(self.device.read_delta(info.key, info.n_bytes, chunk_size=chunk_size))
            if drain_latency is not None:
                delta.io_time_s += drain_latency(info.key)
            try:
                partition = deserialize_partition(data, self.schema, info)
            except StorageError as exc:
                # Corrupt on the wire or at rest: never cache, maybe retry.
                self.device.invalidate(info.key)
                last_error = exc
                continue
            if pool is not None:
                pool.put(pid, partition, info.n_bytes)
            return partition, delta
        if pool is not None:
            pool.invalidate(pid)
        raise PartitionUnreadableError(
            f"partition {pid} ({info.key!r}) unreadable after "
            f"{policy.max_attempts} attempts: {last_error}",
            pid=pid,
            io_delta=delta,
        ) from last_error

    # ---------------------------------------------------- the live catalog

    def info(self, pid: int) -> PartitionInfo:
        """Catalog entry for an active — or retired but unpruned — pid."""
        return self._head.info(pid)

    def pids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._head.index.pids))

    @property
    def tid_end(self) -> int:
        """One past the highest tid ever committed: the write path's tid
        watermark."""
        return self._head.tid_end

    def retired_pids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._head.retired))

    def deleted(self, tids: np.ndarray) -> np.ndarray:
        """Per tid of ``tids``: whether a committed version deleted it."""
        return self._head.deleted(tids)

    def catalog_index(self) -> CatalogIndex:
        """The live partition set's index (shared with every snapshot pinned
        since the last swap; a new object after each swap)."""
        return self._head.index

    def partitions_with_missing_cells(
        self, attribute: str, tids: np.ndarray
    ) -> Tuple[int, ...]:
        """Tuple-level lookup on the live index; queries probe their pinned
        view instead.  Kept as the public name the layer benchmark's
        tracer wraps (``benchmarks/layers/adapters.py``)."""
        return self._head.index.partitions_with_cells(attribute, tids)

    def total_bytes(self) -> int:
        """Total stored bytes across all partitions (storage footprint)."""
        return sum(info.n_bytes for info in self._head.index.infos())

    def __len__(self) -> int:
        return len(self._head.index.pids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionManager({len(self)} partitions, "
            f"{self.total_bytes()} bytes, device={self.device.profile.name!r})"
        )
