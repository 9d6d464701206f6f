"""The partition manager (Section 5.1).

Stores each partition in one file (blob), charges reads through the storage
device, and maintains the two indexes of the paper: the *attribute-level*
index (attribute -> partitions storing it) and the *tuple-level* index
(which partitions store a given tuple's cells).  Both live in one immutable
:class:`CatalogIndex` per base-catalog state: the tuple-level half is a dense
``tid -> owning partition`` array per attribute, so the projection phase's
"partitions containing attribute ``a`` of tuples ``T``" lookup costs
O(|T|) whatever the partition count.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.partition import PartitioningPlan
from ..core.schema import TableSchema
from ..obs import tracer as obs_tracer
from ..errors import (
    InvalidPartitioningError,
    PartitionNotFoundError,
    PartitionUnreadableError,
    SnapshotUnavailableError,
    StorageError,
)
from .blob import BlobStore, MemoryBlobStore
from .buffer_pool import BufferPool
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


@dataclass(slots=True)
class PartitionInfo:
    """Catalog entry for one materialized partition.

    ``attributes`` holds the *primary* attribute set; replica segments (the
    limited-replication extension) are catalogued separately so the paper's
    indexes keep pointing at each cell's single primary home.
    ``full_coverage_attrs`` lists the attributes — primary or replica — for
    which the partition stores a cell for *every* one of its tuples, which is
    the precondition for evaluating a predicate entirely partition-locally.

    The ``segment_*`` lists are the partition file's *frame*
    (:class:`~repro.storage.format.PartitionFrame`): one entry per physical
    segment, in file order.  ``segment_tids`` holds read-only arrays equal to
    the file's row order, validated when the partition was added; a read
    cross-checks the file's segment headers against the frame and shares
    these arrays with the decoded segments instead of rebuilding them.

    An entry describes one immutable file and is itself never edited once
    its swap has committed: every view that names it sees the same fields.
    """

    pid: int
    key: str
    n_bytes: int
    attributes: frozenset
    n_tuples: int
    zone_map: Dict[str, Tuple[float, float]]
    segment_attrs: List[Tuple[str, ...]] = field(default_factory=list)
    segment_tids: List[np.ndarray] = field(default_factory=list)
    segment_tid_modes: List[str] = field(default_factory=list)
    segment_replicas: List[bool] = field(default_factory=list)
    replica_attributes: frozenset = frozenset()
    full_coverage_attrs: frozenset = frozenset()
    #: catalog version at which this partition became visible.
    version: int = 0
    #: optional per-partition data-skipping sketches (see
    #: :mod:`repro.storage.sketches`), chosen when the entry was built and
    #: stored in the file's trailer; ``None`` when none were built.
    sketches: Optional[SketchSet] = None
    _tuple_ids_cache: Optional[np.ndarray] = field(default=None, repr=False)

    def tuple_ids(self) -> np.ndarray:
        """Sorted unique tuple IDs with a primary cell in the partition.

        Memoized: the projection phase and ``_full_coverage`` call this once
        per attribute pass, and the unique/concatenate is pure recomputation.
        """
        if self._tuple_ids_cache is None:
            primary = [
                tids
                for tids, replica in zip(self.segment_tids, self.segment_replicas)
                if not replica
            ] or self.segment_tids
            if not primary:
                self._tuple_ids_cache = np.empty(0, dtype=np.int64)
            else:
                self._tuple_ids_cache = np.unique(np.concatenate(primary))
        return self._tuple_ids_cache

    def zone_disjoint(
        self, attribute: str, lo: float, hi: float
    ) -> Optional[bool]:
        """Whether the partition's zone for ``attribute`` misses ``[lo, hi]``.

        Returns ``None`` when the catalog has no bounds for the attribute
        (not stored here, or stored with no cells) — callers must treat that
        as "cannot prune", not as disjoint.
        """
        bounds = self.zone_map.get(attribute)
        if bounds is None:
            return None
        zone_lo, zone_hi = bounds
        return zone_hi < lo or zone_lo > hi


#: Picks the sketch set stored with a partition from its just-built catalog
#: entry (``None`` for none); see :meth:`PartitionManager.materialize`.
Sketcher = Callable[[PartitionInfo], Optional[SketchSet]]


def _full_coverage(info: PartitionInfo) -> frozenset:
    """Attributes (primary or replica) stored for every tuple of the partition."""
    all_tids = info.tuple_ids()
    if not len(all_tids):
        return frozenset()
    coverage: Dict[str, int] = {}
    for attrs, tids in zip(info.segment_attrs, info.segment_tids):
        unique = len(np.unique(tids))
        for attribute in attrs:
            coverage[attribute] = coverage.get(attribute, 0) + unique
    return frozenset(a for a, count in coverage.items() if count >= len(all_tids))


class _OwnerMap:
    """Dense ``tid -> owning partition`` arrays of one primary placement.

    ``layers[k][tid]`` is the rank in ``pids`` of a partition storing the
    cell, or ``len(pids)`` — the *no owner* rank — when layer ``k`` has none.
    One layer suffices while every cell has a single primary home (every
    built-in layout); overlapping primaries spill into further layers, each
    partition landing in the first layer where none of its tids is taken,
    so no home is ever dropped.  Every layer ends in one extra *no owner*
    slot: probing with ``take(mode="clip")`` sends tids past the stored
    domain (cells no partition of this set stores) there instead of raising.

    ``base`` is the map of the same placement minus its trailing
    ``holders`` — an add-only swap's predecessor — whose layers are carried
    over instead of scattered again; the result equals a build from scratch.
    """

    __slots__ = ("pids", "layers", "placement", "ranks")

    def __init__(
        self,
        holders: Sequence[Tuple[int, np.ndarray]],
        placement: Tuple[Tuple[int, int], ...],
        base: Optional["_OwnerMap"] = None,
    ):
        #: the ``(pid, segment)`` pairs the map was built from, in order.
        self.placement = placement
        old_pids = base.pids if base is not None else ()
        self.pids = old_pids + tuple(pid for pid, _tids in holders)
        self.ranks = {pid: rank for rank, pid in enumerate(self.pids)}
        no_owner = len(self.pids)
        domain = 1 + max(
            (int(tids.max()) for _pid, tids in holders if len(tids)), default=-1
        )
        self.layers: List[np.ndarray] = []
        if base is not None and base.layers:
            domain = max(domain, len(base.layers[0]) - 1)
            for old in base.layers:
                layer = np.full(
                    domain + 1, no_owner, dtype=np.min_scalar_type(no_owner)
                )
                np.copyto(layer[:len(old)], old, where=old != len(old_pids))
                self.layers.append(layer)
        for rank, (_pid, tids) in enumerate(holders, start=len(old_pids)):
            for layer in self.layers:
                if not np.any(layer[tids] != no_owner):
                    break
            else:
                layer = np.full(
                    domain + 1, no_owner, dtype=np.min_scalar_type(no_owner)
                )
                self.layers.append(layer)
            layer[tids] = rank

    def probe(self, tids: np.ndarray) -> Tuple[int, ...]:
        """Partitions owning a cell of any of ``tids``, in ``pids`` order."""
        no_owner = len(self.pids)
        seen = np.zeros(no_owner + 1, dtype=bool)
        for layer in self.layers:
            seen[layer.take(tids, mode="clip")] = True
        return tuple(
            self.pids[rank] for rank in np.flatnonzero(seen[:no_owner]).tolist()
        )

    def rows(self, tids: np.ndarray) -> Callable[[int], Optional[np.ndarray]]:
        """``rows(tids)(pid)``: the ascending positions in ``tids`` of those
        ``pid`` owns (None outside the map) — per layer one ``take`` and one
        stable sort, then a slice per pid, found in the one layer holding it
        (so each of overlapping primaries gets its own)."""
        by_layer = []
        for layer in self.layers:
            ranks = layer.take(tids, mode="clip")
            ends = np.bincount(ranks, minlength=len(self.pids)).cumsum()
            by_layer.append((ranks.argsort(kind="stable"), [0] + ends.tolist()))

        def of(pid: int) -> Optional[np.ndarray]:
            rank = self.ranks.get(pid)
            if rank is None:
                return None
            for order, ends in by_layer:
                if ends[rank + 1] > ends[rank]:
                    break
            return order[ends[rank]:ends[rank + 1]]

        return of


class CatalogIndex:
    """The paper's two catalog indexes, frozen for one base-catalog state.

    A *base-catalog state* is one live partition set: it changes when
    :meth:`PartitionManager.swap_partitions` commits, not when a write
    commit merely advances the version, so the live manager and every
    :class:`CatalogSnapshot` pinned since the last swap share one object.
    ``attribute_pids`` / ``replica_pids`` are the attribute-level index (in
    the order the partitions were handed in); the tuple-level index is one
    :class:`_OwnerMap` per attribute, built on first probe — a layout that
    is never probed (a column scan) allocates nothing — and shared between
    attributes whose primary cells sit in the same segments.

    Immutable once published: an owner map is fully built before it becomes
    reachable, so concurrent probes need no lock.  An add-only swap (a write
    commit) derives its index from the predecessor's (:meth:`with_added`),
    so the owner maps built so far survive it; the :meth:`visits_once`
    verdicts do not (O(partitions) to recompute).
    """

    def __init__(self, infos: Iterable[PartitionInfo]):
        self._infos = {info.pid: info for info in infos}
        self.pids = frozenset(self._infos)
        attribute_pids: Dict[str, List[int]] = {}
        replica_pids: Dict[str, List[int]] = {}
        for pid, info in self._infos.items():
            for attribute in info.attributes:
                attribute_pids.setdefault(attribute, []).append(pid)
            for attribute in info.replica_attributes - info.attributes:
                replica_pids.setdefault(attribute, []).append(pid)
        self.attribute_pids = {a: tuple(p) for a, p in attribute_pids.items()}
        self.replica_pids = {a: tuple(p) for a, p in replica_pids.items()}
        self._owners: Dict[str, _OwnerMap] = {}
        self._by_placement: Dict[Tuple[Tuple[int, int], ...], _OwnerMap] = {}
        self._visits_once: Dict[frozenset, bool] = {}
        self._build_lock = threading.Lock()

    def info(self, pid: int) -> PartitionInfo:
        """Catalog entry of a pid of this partition set."""
        try:
            return self._infos[pid]
        except KeyError:
            raise PartitionNotFoundError(f"no partition with id {pid}") from None

    def pids_for_attributes(self, attributes: Iterable[str]) -> Tuple[int, ...]:
        """Ascending pids storing a primary cell of any of ``attributes``."""
        pids: set = set()
        for attribute in attributes:
            pids.update(self.attribute_pids.get(attribute, ()))
        return tuple(sorted(pids))

    def owner_bytes(self) -> int:
        """Bytes held by the owner arrays built so far (shared ones once)."""
        with self._build_lock:
            return sum(
                layer.nbytes
                for owners in self._by_placement.values()
                for layer in owners.layers
            )

    def partitions_with_cells(
        self, attribute: str, tids: np.ndarray
    ) -> Tuple[int, ...]:
        """Tuple-level lookup: the partitions whose *primary* segments store
        ``attribute`` for at least one of ``tids``, in ``attribute_pids``
        order.  Replica copies never count."""
        tracer = obs_tracer()
        if not tracer.enabled:
            return self._probe(attribute, tids)
        with tracer.span(
            "storage.catalog_probe", attribute=attribute, n_tids=len(tids)
        ) as span:
            hits = self._probe(attribute, tids)
            span.set(n_hits=len(hits))
        return hits

    def _probe(self, attribute: str, tids: np.ndarray) -> Tuple[int, ...]:
        owners = self.owners(attribute) if len(tids) else None
        return owners.probe(tids) if owners is not None else ()

    def owners(self, attribute: str) -> Optional[_OwnerMap]:
        """``attribute``'s owner map (shared by the attributes of one primary
        placement; built on first use), or None if none stores it primarily."""
        if attribute not in self.attribute_pids:
            return None
        return self._owners.get(attribute) or self._build_owners(attribute)

    def visits_once(self, attributes: frozenset) -> bool:
        """Whether a selection over ``attributes`` reaches each tuple in one
        segment at most (Algorithm 5's hit-only form): every segment of
        every partition storing one of them is primary, stores all of them
        and shares no tuple with its siblings, and each has a single primary
        home (a one-layer owner map).  Metadata only, memoised."""
        verdict = self._visits_once.get(attributes)
        if verdict is None:
            infos = [self._infos[p] for p in self.pids_for_attributes(attributes)]
            verdict = all(
                not replica and attributes.issubset(attrs)
                for info in infos
                for attrs, replica in zip(info.segment_attrs, info.segment_replicas)
            ) and all(
                len(info.segment_tids) < 2
                or len(info.tuple_ids()) == sum(map(len, info.segment_tids))
                for info in infos
            ) and all(
                len(self._build_owners(a).layers) <= 1
                for a in attributes if a in self.attribute_pids
            )
            with self._build_lock:
                self._visits_once[attributes] = verdict
        return verdict

    def _build_owners(self, attribute: str) -> _OwnerMap:
        with self._build_lock:
            owners = self._owners.get(attribute)
            if owners is not None:
                return owners
            holders, key = _primary_holders(
                attribute,
                [self._infos[pid] for pid in self.attribute_pids[attribute]],
            )
            owners = self._by_placement.get(key)
            if owners is None:
                owners = self._by_placement[key] = _OwnerMap(holders, key)
            self._owners[attribute] = owners
            return owners

    def attribute_tids(self, pid: int, attribute: str) -> np.ndarray:
        """Sorted unique tuple IDs for which ``pid`` stores a cell of
        ``attribute`` — in *any* segment, primary or replica.

        Catalog metadata only; usable even when the partition file itself is
        unreadable, which is exactly when degraded reads need it.
        """
        info = self.info(pid)
        holding = [
            tids
            for attrs, tids in zip(info.segment_attrs, info.segment_tids)
            if attribute in attrs and len(tids)
        ]
        if not holding:
            return np.empty(0, dtype=np.int64)
        if len(holding) == 1:
            return holding[0]
        return np.unique(np.concatenate(holding))

    def cover_attribute(
        self, attribute: str, tids: np.ndarray, exclude: Iterable[int] = ()
    ) -> Tuple[Tuple[int, ...], np.ndarray]:
        """Greedy cover of ``(attribute, tids)`` cells from other partitions.

        Candidates are every partition of this set holding ``attribute``
        primarily or as replicas, minus ``exclude`` (typically the
        unreadable partition).  Returns ``(chosen_pids,
        still_missing_tids)``; an empty second item means full coverage.
        """
        excluded = frozenset(exclude)
        remaining = np.unique(np.asarray(tids, dtype=np.int64))
        chosen: List[int] = []
        candidates = (
            self.attribute_pids.get(attribute, ())
            + self.replica_pids.get(attribute, ())
        )
        for pid in candidates:
            if pid in excluded or not len(remaining):
                continue
            held = self.attribute_tids(pid, attribute)
            if not len(held):
                continue
            hit = np.isin(remaining, held, assume_unique=True)
            if hit.any():
                chosen.append(pid)
                remaining = remaining[~hit]
        return tuple(chosen), remaining

    def with_added(self, infos: Sequence[PartitionInfo]) -> "CatalogIndex":
        """The index of this partition set plus ``infos`` (fresh pids):
        what a rebuild over both would hold, with every owner map built so
        far extended by the new partitions instead of scattered again."""
        successor = CatalogIndex(infos)
        successor._infos = {**self._infos, **successor._infos}
        successor.pids = self.pids | successor.pids
        for name in ("attribute_pids", "replica_pids"):
            old, new = getattr(self, name), getattr(successor, name)
            setattr(successor, name, {
                **old, **{a: old.get(a, ()) + p for a, p in new.items()}
            })
        with self._build_lock:
            built = dict(self._owners)
        for attribute, owners in built.items():
            holders, added = _primary_holders(
                attribute,
                [info for info in infos if attribute in info.attributes],
            )
            key = owners.placement + added
            derived = successor._by_placement.get(key)
            if derived is None:
                derived = successor._by_placement[key] = (
                    _OwnerMap(holders, key, base=owners) if holders else owners
                )
            successor._owners[attribute] = derived
        return successor


def _primary_holders(
    attribute: str, infos: Iterable[PartitionInfo]
) -> Tuple[List[Tuple[int, np.ndarray]], Tuple[Tuple[int, int], ...]]:
    """``(holders, placement)`` of ``attribute`` over ``infos``: per
    partition the tids its primary segments store the attribute for, and the
    ``(pid, segment)`` pairs those came from."""
    holders: List[Tuple[int, np.ndarray]] = []
    placement: List[Tuple[int, int]] = []
    for info in infos:
        held = [
            ordinal
            for ordinal, (attrs, replica) in enumerate(
                zip(info.segment_attrs, info.segment_replicas)
            )
            if not replica and attribute in attrs
        ]
        placement.extend((info.pid, ordinal) for ordinal in held)
        segments = [info.segment_tids[ordinal] for ordinal in held]
        holders.append((
            info.pid,
            segments[0] if len(segments) == 1 else np.concatenate(segments),
        ))
    return holders, tuple(placement)


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
        #: bumped once per successful :meth:`swap_partitions` commit — the
        #: only thing a pruning verdict can go stale against.
        self.catalog_version = 0
        #: callbacks invoked (outside the catalog mutex) after any commit
        #: that invalidates memoized pruning state; each receives the new
        #: ``catalog_version``.
        self._invalidation_hooks: List[Callable[[int], None]] = []
        #: serializes catalog/index mutation against concurrent readers —
        #: the serving tier plans queries while the adaptive daemon swaps.
        self._mutex = threading.RLock()
        self._catalog: Dict[int, PartitionInfo] = {}
        #: pid -> ``(retiring version, info)`` for partitions removed by a
        #: swap but kept readable so queries planned against the old catalog
        #: can still finish.  The partition was live at every version below
        #: the retiring one, which is what :meth:`prune_retired` reads.
        self._retired: Dict[int, Tuple[int, PartitionInfo]] = {}
        #: the live partition set's :class:`CatalogIndex`: derived from its
        #: predecessor by an add-only swap, dropped by any other and rebuilt
        #: on the next lookup (a bulk materialize never looks, so it builds
        #: once); :meth:`advance_version` never touches it.
        self._index: Optional[CatalogIndex] = None
        #: catalog version of the last swap — every version from here on
        #: shares the live partition set, and so the live index.
        self._base_version = 0
        #: version -> index of an *older* base state, kept while pinned.
        self._pinned_indexes: Dict[int, CatalogIndex] = {}
        #: commit log: ``(version, pids_added, pids_retired)`` per catalog
        #: commit, in version order; walking it backwards reconstructs the
        #: live pid set at any retained version.
        self._history: List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = []
        #: version -> number of :class:`CatalogSnapshot` pins holding it.
        self._pins: Dict[int, int] = {}
        #: oldest version still reconstructible; raised by
        #: :meth:`prune_retired` when it reclaims blobs older versions need.
        self._floor_version = 0

    # ------------------------------------------------------- invalidation

    def add_invalidation_hook(self, hook: Callable[[int], None]) -> None:
        """Register a callback fired after every catalog commit.

        Hooks receive the new ``catalog_version`` and run outside the
        catalog mutex (they may take their own locks but must not re-enter
        the manager's write path).  The semantic partition cache registers
        here to drop entries memoized against versions nothing can reach.
        """
        with self._mutex:
            self._invalidation_hooks.append(hook)

    def _notify_invalidation(self) -> None:
        with self._mutex:
            hooks = tuple(self._invalidation_hooks)
            version = self.catalog_version
        for hook in hooks:
            hook(version)

    # -------------------------------------------------------- materialize

    def _key(self, pid: int) -> str:
        return f"{self.key_prefix}p{pid:06d}.jig"

    def _build_info(
        self, physical: PhysicalPartition, data: bytes, sketcher: Optional[Sketcher]
    ) -> PartitionInfo:
        replica_attrs: frozenset = frozenset()
        for segment in physical.segments:
            if segment.replica:
                replica_attrs |= frozenset(segment.attributes)
        # ``n_bytes`` is the *accounted* size — the version-1-equivalent byte
        # count every simulated-I/O and footprint figure is calibrated to.
        # Checksum bytes exist in the file but charge nothing, and neither
        # does the sketch trailer.
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
            segment_replicas=[s.replica for s in physical.segments],
            replica_attributes=replica_attrs,
        )
        info.full_coverage_attrs = _full_coverage(info)
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

    def _verify_readable(self, info: PartitionInfo) -> StorageError | None:
        """Read a just-staged blob back through the fault path; None when a
        decode succeeds within the retry budget, else the last error."""
        last_error: StorageError | None = None
        for _attempt in range(self.retry_policy.max_attempts):
            try:
                data = self.store.get(info.key)
                deserialize_partition(data, self.schema, frame=info)
                return None
            except StorageError as exc:
                last_error = exc
        return last_error

    def swap_partitions(
        self,
        add: Sequence[PhysicalPartition],
        remove: Iterable[int] = (),
        verify: bool = False,
    ) -> List[PartitionInfo]:
        """Atomically make ``add`` visible and retire ``remove``.

        The one way the catalog or a partition file ever changes: plain
        partition adds, write commits, folds and layout migrations are all
        one swap of *fresh* pids.  A pid names one immutable file for as
        long as the catalog knows it, so an ``add`` whose pid is live or
        retired is refused (:class:`~repro.errors.InvalidPartitioningError`)
        before anything is written.  Every new partition file is then
        *staged* — serialized and put, once, under its own key — before the
        catalog is touched; with ``verify`` each staged file is also read
        back and decoded (through the fault-injection path, within the retry
        budget).  A staging failure deletes every staged blob and raises,
        leaving the old catalog, and every file it names, fully intact —
        this is what makes migrations abort-safe.

        The commit itself is pure in-memory bookkeeping: the catalog version
        is bumped once, removed pids move to the *retired* set (still served
        by :meth:`info`/:meth:`load`, and still in the index of every view
        pinned before the commit, but absent from the live index so new
        views never see them) and give up their buffer-pool slots, and the
        added partitions are indexed.  :meth:`prune_retired` reclaims the
        retired blobs no pinned view still needs.
        """
        return self._swap_partitions(list(add), set(remove), verify)

    def _swap_partitions(
        self,
        additions: List[PhysicalPartition],
        removals: Set[int],
        verify: bool = False,
        sketcher: Optional[Sketcher] = None,
    ) -> List[PartitionInfo]:
        with obs_tracer().span(
            "storage.swap",
            n_add=len(additions),
            n_remove=len(removals),
            verify=verify,
        ) as span:
            staged = self._stage(additions, verify, sketcher)
            with self._mutex:
                self.catalog_version += 1
                retired_now: List[int] = []
                for pid in sorted(removals):
                    old = self._catalog.pop(pid, None)
                    if old is None:
                        continue
                    self._retired[pid] = (self.catalog_version, old)
                    retired_now.append(pid)
                    if self.buffer_pool is not None:
                        self.buffer_pool.invalidate(pid)
                for info in staged:
                    info.version = self.catalog_version
                    self._catalog[info.pid] = info
                self._history.append((
                    self.catalog_version,
                    tuple(sorted(info.pid for info in staged)),
                    tuple(retired_now),
                ))
                if self._index is not None and not removals:
                    self._index = self._index.with_added(staged)
                else:
                    self._index = None
                self._base_version = self.catalog_version
            self._notify_invalidation()
            span.set(
                catalog_version=self.catalog_version,
                bytes_written=sum(info.n_bytes for info in staged),
            )
        return staged

    def _stage(
        self,
        additions: List[PhysicalPartition],
        verify: bool,
        sketcher: Optional[Sketcher],
    ) -> List[PartitionInfo]:
        """Write each added partition's file — body plus, when ``sketcher``
        picks a sketch set for the entry just built, its trailer — with one
        put; on any failure delete what was put and re-raise."""
        added_pids = {physical.pid for physical in additions}
        if len(added_pids) != len(additions):
            raise InvalidPartitioningError("swap adds the same pid twice")
        with self._mutex:
            taken = sorted(
                pid for pid in added_pids
                if pid in self._catalog or pid in self._retired
            )
        if taken:
            raise InvalidPartitioningError(
                f"swap adds pids the catalog already holds {taken}: a "
                f"partition file is written once, use a fresh pid"
            )
        staged: List[PartitionInfo] = []
        try:
            for physical in additions:
                data = serialize_partition(physical, self.schema)
                info = self._build_info(physical, data, sketcher)
                if info.sketches is not None:
                    data = append_trailer(data, info.sketches.to_bytes())
                self.store.put(info.key, data)
                staged.append(info)
            if verify:
                for info in staged:
                    error = self._verify_readable(info)
                    if error is not None:
                        raise StorageError(
                            f"staged partition {info.pid} ({info.key!r}) failed "
                            f"read-back verification: {error}"
                        )
        except Exception:
            for info in staged:
                self.store.delete(info.key)
            raise
        return staged

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
            min_pinned = min(self._pins) if self._pins else None
            doomed = sorted(
                pid for pid, (retired_at, _info) in self._retired.items()
                if min_pinned is None or retired_at <= min_pinned
            )
            entries = [self._retired.pop(pid) for pid in doomed]
            if entries:
                self._floor_version = max(
                    self._floor_version,
                    max(retired_at for retired_at, _info in entries),
                )
                # Commits at or below the floor can no longer be replayed
                # (their retirees' blobs are gone) — trim the log.
                self._history = [
                    entry for entry in self._history
                    if entry[0] > self._floor_version
                ]
        for _retired_at, info in entries:
            self.store.delete(info.key)
            self.device.invalidate(info.key)
            if self.buffer_pool is not None:
                self.buffer_pool.invalidate(info.pid)
        return len(entries)

    # ---------------------------------------------------------- snapshots

    def advance_version(self) -> int:
        """Commit a version bump with no catalog change.

        The write path calls this when a commit changes what a scan must
        return without adding a partition (a delete-only batch): the catalog
        version is the transaction timeline, so every committed batch of
        writes gets its own pinnable version.  Fires the invalidation hooks.
        """
        with self._mutex:
            self.catalog_version += 1
            self._history.append((self.catalog_version, (), ()))
        self._notify_invalidation()
        return self.catalog_version

    def pin_snapshot(self, version: int | None = None) -> "CatalogSnapshot":
        """Pin a refcounted, immutable view of the catalog at ``version``.

        Defaults to the current version.  The returned
        :class:`CatalogSnapshot` freezes the *live pid set* of that version:
        the live :class:`CatalogIndex` itself when no swap has committed
        since, else one rebuilt by replaying the commit log backwards from
        the current catalog (shared by every pin of that version and
        dropped with the last of them).  While pinned,
        :meth:`prune_retired` spares every retired partition the snapshot
        still needs.  Release with :meth:`CatalogSnapshot.release` (or use
        it as a context manager).

        Raises :class:`~repro.errors.SnapshotUnavailableError` for future
        versions and for versions below the prune floor.
        """
        with self._mutex:
            if version is None:
                version = self.catalog_version
            version = int(version)
            if version > self.catalog_version:
                raise SnapshotUnavailableError(
                    f"cannot pin catalog version {version}: "
                    f"current version is {self.catalog_version}"
                )
            if version < self._floor_version:
                raise SnapshotUnavailableError(
                    f"cannot pin catalog version {version}: retired "
                    f"partitions below version {self._floor_version} were "
                    f"already pruned"
                )
            index: Optional[CatalogIndex] = (
                self.catalog_index() if version >= self._base_version
                else self._pinned_indexes.get(version)
            )
            if index is None:
                live = set(self._catalog)
                for commit_version, added, retired in reversed(self._history):
                    if commit_version <= version:
                        break
                    live.difference_update(added)
                    live.update(retired)
                index = self._pinned_indexes[version] = CatalogIndex(
                    self.info(pid) for pid in sorted(live)
                )
            self._pins[version] = self._pins.get(version, 0) + 1
            return CatalogSnapshot(self, version, index)

    def release_snapshot(self, snapshot: "CatalogSnapshot") -> None:
        """Drop one pin on ``snapshot``'s version (idempotence is the
        snapshot's job — :meth:`CatalogSnapshot.release` only calls once)."""
        with self._mutex:
            count = self._pins.get(snapshot.version, 0)
            if count > 1:
                self._pins[snapshot.version] = count - 1
                return
            self._pins.pop(snapshot.version, None)
            self._pinned_indexes.pop(snapshot.version, None)
            superseded = snapshot.version != self.catalog_version
        if superseded:
            # The last reader of a superseded version is gone, and with it
            # the reason to keep what was memoized for that version.
            self._notify_invalidation()

    def snapshot_refcount(self) -> int:
        """Total outstanding snapshot pins across all versions."""
        with self._mutex:
            return sum(self._pins.values())

    def pinned_versions(self) -> Tuple[int, ...]:
        with self._mutex:
            return tuple(sorted(self._pins))

    def floor_version(self) -> int:
        """Oldest catalog version that can still be pinned."""
        with self._mutex:
            return self._floor_version

    def next_pid(self) -> int:
        """Smallest pid never used by an active or retired partition."""
        with self._mutex:
            used = set(self._catalog) | set(self._retired)
        return max(used, default=-1) + 1

    def materialize(
        self,
        physicals: Iterable[PhysicalPartition],
        sketcher: Optional[Sketcher] = None,
    ) -> List[PartitionInfo]:
        """Store a layout's partitions, one swap (and version) each.

        ``sketcher`` picks each partition's data-skipping sketches from its
        just-built catalog entry; they become part of the entry and of the
        file (its trailer) at the partition's one put.  Like checksum
        overhead, trailer bytes charge nothing: ``n_bytes`` is the same
        with or without them.
        """
        return [
            self._swap_partitions([physical], set(), sketcher=sketcher)[0]
            for physical in physicals
        ]

    def materialize_plan(
        self,
        plan: PartitioningPlan,
        table: ColumnTable,
        tid_storage: str = TID_EXPLICIT,
        sketcher: Optional[Sketcher] = None,
    ) -> List[PartitionInfo]:
        """Resolve every logical partition against the data and store it."""
        return self.materialize(
            (physical_from_logical(partition, table, tid_storage)
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
        self,
        pid: int,
        chunk_size: int | None = None,
        columns: Set[str] | frozenset | None = None,
    ) -> Tuple[PhysicalPartition, "IOStats"]:
        """Read a partition file, charging simulated device time.

        Returns ``(partition, io_delta)`` where ``io_delta`` holds exactly
        what this read cost: bytes and simulated seconds when it reached the
        device, a cache hit when the simulated OS buffer cache served it, or
        a pool hit when the buffer pool held the deserialized partition (no
        device charge, no decode work).

        ``columns`` is the projection pushdown: when given, cell decoding is
        lazy and only the named attributes are materialized eagerly; any
        other column still decodes transparently on first access.  Simulated
        byte/time accounting is unaffected — the whole file is still charged
        on a device read, as the row-major format offers no byte-level skip.

        Reads are fault tolerant: a failed fetch or a corrupt file (bad
        magic, truncation, checksum mismatch) is retried up to
        ``retry_policy.max_attempts`` times with exponential *simulated*
        backoff charged to the returned delta.  A partition that stays
        unreadable raises :class:`PartitionUnreadableError` carrying the
        accumulated ``io_delta``, and any pooled copy is invalidated so a
        stale object can never be served after a failed refresh.
        """
        tracer = obs_tracer()
        if not tracer.enabled:
            return self._load(pid, chunk_size, columns)
        enclosing = tracer.current_span()
        if enclosing is not None and enclosing.attrs.get("pid") == pid:
            # The caller's span already describes this partition access (a
            # plan reader's ``exec.partition``): one span per access.
            return self._load(pid, chunk_size, columns)
        with tracer.span("storage.load", pid=pid) as span:
            partition, delta = self._load(pid, chunk_size, columns)
            span.sim_io_s = delta.io_time_s
            span.set(
                bytes_read=delta.bytes_read,
                pool_hit=delta.n_pool_hits > 0,
                cache_hit=delta.n_cache_hits > 0,
                n_retries=delta.n_retries,
            )
        return partition, delta

    def _load(
        self,
        pid: int,
        chunk_size: int | None = None,
        columns: Set[str] | frozenset | None = None,
    ) -> Tuple[PhysicalPartition, "IOStats"]:
        pool = self.buffer_pool
        if pool is not None:
            # One lookup: a resident partition returns before the catalog
            # and the retry/CRC scaffold (a swap or prune that drops a pid's
            # entry drops it from the pool too).
            hit = pool.hit(pid)
            if hit is not None:
                return hit
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
            # turns out corrupt; the accounted size is the v1-equivalent one.
            delta.add(self.device.read_delta(info.key, info.n_bytes, chunk_size=chunk_size))
            if drain_latency is not None:
                delta.io_time_s += drain_latency(info.key)
            decode_columns = columns
            if pool is not None and decode_columns is None:
                # A pooled partition must be able to serve *any* later
                # projection, so decode lazily even for full loads.
                decode_columns = frozenset()
            try:
                partition = deserialize_partition(
                    data, self.schema, columns=decode_columns, frame=info
                )
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

    # ------------------------------------------------------------ indexes

    def info(self, pid: int) -> PartitionInfo:
        """Catalog entry for an active — or retired but unpruned — pid."""
        with self._mutex:
            entry = self._catalog.get(pid)
            if entry is None and pid in self._retired:
                entry = self._retired[pid][1]
        if entry is None:
            raise PartitionNotFoundError(f"no partition with id {pid}")
        return entry

    def pids(self) -> Tuple[int, ...]:
        with self._mutex:
            return tuple(sorted(self._catalog))

    def retired_pids(self) -> Tuple[int, ...]:
        with self._mutex:
            return tuple(sorted(self._retired))

    def catalog_index(self) -> CatalogIndex:
        """The live partition set's index (shared with every snapshot pinned
        since the last swap; a new object after each swap)."""
        with self._mutex:
            if self._index is None:
                self._index = CatalogIndex(self._catalog.values())
            return self._index

    def partitions_for_attribute(self, attribute: str) -> Tuple[int, ...]:
        """Attribute-level index: partitions storing a *primary* cell of
        ``attribute`` (replica copies are indexed separately)."""
        return self.catalog_index().attribute_pids.get(attribute, ())

    def replica_partitions_for_attribute(self, attribute: str) -> Tuple[int, ...]:
        """Partitions holding replica-only copies of ``attribute``."""
        return self.catalog_index().replica_pids.get(attribute, ())

    def partitions_for_attributes(self, attributes: Iterable[str]) -> Tuple[int, ...]:
        return self.catalog_index().pids_for_attributes(attributes)

    def partitions_with_missing_cells(
        self, attribute: str, tids: np.ndarray
    ) -> Tuple[int, ...]:
        """Tuple-level index lookup used by the projection phase.

        Returns the partitions that store ``attribute`` for at least one of
        the given tuples.
        """
        return self.catalog_index().partitions_with_cells(attribute, tids)

    def total_bytes(self) -> int:
        """Total stored bytes across all partitions (storage footprint)."""
        with self._mutex:
            return sum(info.n_bytes for info in self._catalog.values())

    def __len__(self) -> int:
        with self._mutex:
            return len(self._catalog)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionManager({len(self._catalog)} partitions, "
            f"{self.total_bytes()} bytes, device={self.device.profile.name!r})"
        )


class CatalogSnapshot:
    """A pinned, immutable view of the catalog at one version — the only way
    catalog metadata reaches a query.

    A request root (an engine's ``execute``, or the planner for a plan-only
    caller) pins one view before planning and releases it on every exit;
    the plan, the index probes of the projection phase and a degraded
    read's substitutes all read ``index`` — the frozen partition set's
    :class:`CatalogIndex` — and never the live manager, so a concurrent
    swap cannot tear a plan, and the retired partitions the view still
    names stay loadable (a pin clamps
    :meth:`PartitionManager.prune_retired`).

    A view is frozen and so is every entry in it: a partition file is
    written once, a catalog entry is never edited after its swap commits,
    so whatever a plan derives from the view — a pruning verdict included
    — holds for as long as the view is pinned.  ``version`` is therefore
    the whole key the semantic partition cache files this view's verdicts
    under, and every pin of a version shares it (``AS OF`` replays reuse
    each other's verdicts across later churn).

    ``valid_mask`` is an optional dense boolean array over the tuple-id
    domain set by the transactional layer: True for tids visible at this
    version (deleted tids are False, tids past its end were committed
    later).  Engines mark the rest INVALID before their selection phase;
    ``None`` (the default, always the case outside the write path and on a
    table nothing was ever deleted from) preserves the read-only engines'
    exact seed behavior.
    """

    __slots__ = ("manager", "version", "index", "valid_mask", "_released")

    def __init__(
        self, manager: PartitionManager, version: int, index: CatalogIndex
    ):
        self.manager = manager
        self.version = version
        #: the frozen partition set's index — the live manager's own object
        #: when no swap separates the pinned version from the current one.
        self.index = index
        self.valid_mask: Optional[np.ndarray] = None
        self._released = False

    @property
    def pids(self) -> frozenset:
        """The live pid set of the pinned version."""
        return self.index.pids

    # ------------------------------------------------------------ lifetime

    def release(self) -> None:
        if not self._released:
            self._released = True
            self.manager.release_snapshot(self)

    def __enter__(self) -> "CatalogSnapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    # ------------------------------------ index lookups, ascending pid order

    def info(self, pid: int) -> PartitionInfo:
        return self.index.info(pid)

    def partitions_for_attribute(self, attribute: str) -> Tuple[int, ...]:
        return tuple(sorted(self.index.attribute_pids.get(attribute, ())))

    def partitions_for_attributes(
        self, attributes: Iterable[str]
    ) -> Tuple[int, ...]:
        return self.index.pids_for_attributes(attributes)

    def partitions_with_missing_cells(
        self, attribute: str, tids: np.ndarray
    ) -> Tuple[int, ...]:
        return tuple(sorted(self.index.partitions_with_cells(attribute, tids)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CatalogSnapshot(version={self.version}, "
            f"{len(self.pids)} partitions)"
        )
