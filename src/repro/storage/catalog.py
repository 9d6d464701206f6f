"""The partition catalog as an immutable value (Section 5.1).

The paper's two indexes — the *attribute-level* index (attribute ->
partitions storing it) and the *tuple-level* index (which partitions store
a given tuple's cells) — live in one immutable :class:`CatalogIndex` per
live partition set: the tuple-level half is a dense ``tid -> owning
partition`` array per attribute, so the projection phase's "partitions
containing attribute ``a`` of tuples ``T``" lookup costs O(|T|) whatever
the partition count.

A committed catalog state is a :class:`Catalog` value: the version, the
live set's index, the retired entries still on disk and the prune floor.
A commit (:meth:`Catalog.apply`) and a prune (:meth:`Catalog.prune`) each
return a new value, and an old version's partition set is an interval
filter over the one value (:meth:`Catalog.live_at`).  The partition
manager holds one reference to the current value; a reader holds a
:class:`CatalogSnapshot`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from ..errors import PartitionNotFoundError, SnapshotUnavailableError
from .physical import sorted_isin, sorted_unique
from .sketches import SketchSet

if TYPE_CHECKING:  # pragma: no cover
    from .partition_manager import PartitionManager

__all__ = ["Catalog", "CatalogIndex", "CatalogSnapshot", "PartitionInfo"]


@dataclass(slots=True)
class PartitionInfo:
    """Catalog entry for one materialized partition.

    ``attributes`` is the set of attributes the partition stores.  The
    ``segment_*`` lists are the partition file's *frame*
    (:class:`~repro.storage.format.PartitionFrame`): one entry per physical
    segment, in file order.  ``segment_tids`` holds read-only arrays equal to
    the file's row order, validated when the partition was added; a read
    cross-checks the file's segment headers against the frame and shares
    these arrays with the decoded segments instead of rebuilding them.

    An entry describes one immutable file and is itself never edited once
    its commit has landed: every view that names it sees the same fields.
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
    #: catalog version at which this partition became visible.
    version: int = 0
    #: optional per-partition data-skipping sketches (see
    #: :mod:`repro.storage.sketches`), chosen when the entry was built and
    #: stored in the file's trailer; ``None`` when none were built.
    sketches: Optional[SketchSet] = None
    _tuple_ids_cache: Optional[np.ndarray] = field(default=None, repr=False)

    def tuple_ids(self) -> np.ndarray:
        """Sorted unique tuple IDs with a cell in the partition.

        Memoized: the projection phase and the compactor call this once per
        pass.  Each segment's array is strictly ascending
        (checked when the partition was added), so the union is a merge of
        ascending runs — :func:`~repro.storage.physical.sorted_unique`, not a
        hash.
        """
        if self._tuple_ids_cache is None:
            if not self.segment_tids:
                self._tuple_ids_cache = np.empty(0, dtype=np.int64)
            else:
                self._tuple_ids_cache = sorted_unique(
                    np.concatenate(self.segment_tids)
                )
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


class _OwnerMap:
    """Dense ``tid -> owning partition`` arrays of one placement.

    ``layers[k][tid]`` is the rank in ``pids`` of a partition storing the
    cell, or ``len(pids)`` — the *no owner* rank — when layer ``k`` has none.
    One layer suffices while every cell has a single home (every built-in
    layout); overlapping primaries spill into further layers, each
    partition landing in the first layer where none of its tids is taken,
    so no home is ever dropped.  Every layer ends in one extra *no owner*
    slot: probing with ``take(mode="clip")`` sends tids past the stored
    domain (cells no partition of this set stores) there instead of raising.

    ``base`` is the map of the same placement minus its trailing
    ``holders`` — an add-only commit's predecessor — whose layers are
    carried over instead of scattered again; the result equals a build from
    scratch.
    """

    __slots__ = ("pids", "layers", "placement")

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


class CatalogIndex:
    """The paper's two catalog indexes, frozen for one live partition set.

    The live set changes when a commit adds or retires a partition, not
    when a write commit merely advances the version, so every
    :class:`Catalog` value and every :class:`CatalogSnapshot` from one such
    commit to the next share one object.  Entries are kept in ascending pid
    order, and so is every answer: ``attribute_pids`` is the
    attribute-level index; the tuple-level index is one :class:`_OwnerMap`
    per attribute, built on first probe — a layout that is never probed (a
    column scan) allocates nothing — and shared between attributes whose
    cells sit in the same segments.

    Per attribute it also memoises the zones of ``attribute_pids`` as
    aligned ``(pids, lo, hi)`` arrays (:meth:`zones`), so a plan refutes a
    predicate against every partition in two comparisons; per attribute set
    the pids storing one of them (:meth:`pids_for_attributes`); and per
    join key and attribute set the zones and sizes a join is priced from
    (:meth:`key_zones`).

    Immutable once published: an owner map is fully built before it becomes
    reachable, so concurrent probes need no lock.  An add-only commit (a
    write commit) derives its index from the predecessor's
    (:meth:`with_added`), so what was built so far survives it: owner maps,
    zone arrays and pid lists are extended by the new partitions, and a
    :meth:`visits_once` verdict is carried by testing the new partitions
    alone.
    """

    def __init__(self, infos: Iterable[PartitionInfo]):
        self._infos = {
            info.pid: info for info in sorted(infos, key=lambda info: info.pid)
        }
        self.pids = frozenset(self._infos)
        attribute_pids: Dict[str, List[int]] = {}
        for pid, info in self._infos.items():
            for attribute in info.attributes:
                attribute_pids.setdefault(attribute, []).append(pid)
        self.attribute_pids = {a: tuple(p) for a, p in attribute_pids.items()}
        self._owners: Dict[str, _OwnerMap] = {}
        self._by_placement: Dict[Tuple[Tuple[int, int], ...], _OwnerMap] = {}
        self._visits_once: Dict[frozenset, bool] = {}
        self._zones: Dict[str, Tuple[np.ndarray, ...]] = {}
        self._pids_for: Dict[frozenset, Tuple[int, ...]] = {}
        self._key_zones: Dict[Tuple[str, frozenset], tuple] = {}
        self._build_lock = threading.Lock()

    def info(self, pid: int) -> PartitionInfo:
        """Catalog entry of a pid of this partition set."""
        try:
            return self._infos[pid]
        except KeyError:
            raise PartitionNotFoundError(f"no partition with id {pid}") from None

    def infos(self) -> Iterable[PartitionInfo]:
        """Every entry of this partition set, in ascending pid order."""
        return self._infos.values()

    def pids_for_attributes(self, attributes: Iterable[str]) -> Tuple[int, ...]:
        """Ascending pids storing a cell of any of ``attributes``.  Memoised
        per attribute set."""
        key = attributes if isinstance(attributes, frozenset) else frozenset(attributes)
        found = self._pids_for.get(key)
        if found is None:
            pids: set = set()
            for attribute in key:
                pids.update(self.attribute_pids.get(attribute, ()))
            with self._build_lock:
                found = self._pids_for.setdefault(key, tuple(sorted(pids)))
        return found

    def key_zones(self, key: str, attributes: frozenset) -> tuple:
        """``(keyed, unkeyed, sizes)`` over the partitions storing one of
        ``attributes`` (``key`` among them), each in ascending pid order:
        ``(lo, hi, n_bytes)`` of those whose zone bounds ``key``, the sizes
        of those whose zone does not (no bounds is :meth:`zones`' ``(-inf,
        +inf)``), and every size — what a join side is priced from.
        Memoised."""
        zones = self._key_zones.get((key, attributes))
        if zones is None:
            pids, lo, hi = self.zones(key)
            bounded = (lo != -np.inf) | (hi != np.inf)
            keyed = dict(zip(pids[bounded].tolist(), zip(
                lo[bounded].tolist(), hi[bounded].tolist()
            )))
            relevant = [self._infos[pid] for pid in self.pids_for_attributes(attributes)]
            zones = (
                [(*keyed[info.pid], info.n_bytes) for info in relevant if info.pid in keyed],
                [info.n_bytes for info in relevant if info.pid not in keyed],
                [info.n_bytes for info in relevant],
            )
            with self._build_lock:
                zones = self._key_zones.setdefault((key, attributes), zones)
        return zones

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
        """Tuple-level lookup: the ascending pids whose segments store
        ``attribute`` for at least one of ``tids``."""
        owners = self.owners(attribute) if len(tids) else None
        return owners.probe(tids) if owners is not None else ()

    def owners(self, attribute: str) -> Optional[_OwnerMap]:
        """``attribute``'s owner map (shared by the attributes of one
        placement; built on first use), or None if no partition stores it."""
        if attribute not in self.attribute_pids:
            return None
        return self._owners.get(attribute) or self._build_owners(attribute)

    def visits_once(self, attributes: frozenset) -> bool:
        """Whether a selection over ``attributes`` reaches each tuple in one
        segment at most (Algorithm 5's hit-only form): every partition
        storing one of them passes :func:`_reached_once`, and each has a
        single home (a one-layer owner map).  Metadata only,
        memoised."""
        verdict = self._visits_once.get(attributes)
        if verdict is None:
            verdict = all(
                _reached_once(self._infos[pid], attributes)
                for pid in self.pids_for_attributes(attributes)
            ) and all(
                len(self._build_owners(a).layers) <= 1
                for a in attributes if a in self.attribute_pids
            )
            with self._build_lock:
                self._visits_once[attributes] = verdict
        return verdict

    def zones(self, attribute: str) -> Tuple[np.ndarray, ...]:
        """``(pids, lo, hi)``: ``attribute_pids[attribute]`` as an array and
        their zones for it, aligned; a partition with no bounds for the
        attribute holds ``(-inf, +inf)``, which refutes nothing.  Memoised."""
        zones = self._zones.get(attribute)
        if zones is None:
            zones = _zone_arrays(attribute, [
                self._infos[pid] for pid in self.attribute_pids.get(attribute, ())
            ])
            with self._build_lock:
                zones = self._zones.setdefault(attribute, zones)
        return zones

    def _build_owners(self, attribute: str) -> _OwnerMap:
        with self._build_lock:
            owners = self._owners.get(attribute)
            if owners is not None:
                return owners
            holders, key = _holders(
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
        ``attribute``.

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
        return sorted_unique(np.concatenate(holding))

    def cover_attribute(
        self, attribute: str, tids: np.ndarray, exclude: Iterable[int] = ()
    ) -> Tuple[Tuple[int, ...], np.ndarray]:
        """Greedy cover of ``(attribute, tids)`` cells from other partitions.

        Candidates are every partition of this set holding ``attribute``,
        minus ``exclude`` (typically the unreadable partition).  Returns
        ``(chosen_pids, still_missing_tids)``; an empty second item means
        full coverage.
        """
        excluded = frozenset(exclude)
        remaining = sorted_unique(np.asarray(tids, dtype=np.int64))
        chosen: List[int] = []
        for pid in self.attribute_pids.get(attribute, ()):
            if pid in excluded or not len(remaining):
                continue
            held = self.attribute_tids(pid, attribute)
            if not len(held):
                continue
            hit = sorted_isin(remaining, held)
            if hit.any():
                chosen.append(pid)
                remaining = remaining[~hit]
        return tuple(chosen), remaining

    def with_added(self, infos: Sequence[PartitionInfo]) -> "CatalogIndex":
        """The index of this partition set plus ``infos`` (pids above every
        pid of this set, so the order stays ascending): what a rebuild over
        both would hold, with every owner map and zone array built so far
        extended by the new partitions instead of built again, every
        memoised pid list extended, and every
        memoised :meth:`visits_once` verdict carried — a False one stays
        False; a True one holds while the new partitions pass
        :func:`_reached_once` and each carried owner map keeps one layer
        (where no map was carried it is left to a fresh computation)."""
        successor = CatalogIndex(infos)
        fresh = list(successor.infos())
        added = successor.attribute_pids
        successor._infos = {**self._infos, **successor._infos}
        successor.pids = self.pids | successor.pids
        old = self.attribute_pids
        successor.attribute_pids = {
            **old, **{a: old.get(a, ()) + p for a, p in added.items()}
        }
        with self._build_lock:
            built = dict(self._owners)
            zones = dict(self._zones)
            pid_lists = dict(self._pids_for)
            verdicts = dict(self._visits_once)
        for attribute, owners in built.items():
            holders, placement = _holders(
                attribute,
                [info for info in fresh if attribute in info.attributes],
            )
            key = owners.placement + placement
            derived = successor._by_placement.get(key)
            if derived is None:
                derived = successor._by_placement[key] = (
                    _OwnerMap(holders, key, base=owners) if holders else owners
                )
            successor._owners[attribute] = derived
        for attribute, old_zones in zones.items():
            new_zones = _zone_arrays(attribute, [
                successor._infos[pid] for pid in added.get(attribute, ())
            ])
            successor._zones[attribute] = tuple(
                np.concatenate(pair) for pair in zip(old_zones, new_zones)
            )
        for attributes, pids in pid_lists.items():
            successor._pids_for[attributes] = pids + tuple(
                info.pid for info in fresh if not attributes.isdisjoint(info.attributes)
            )
        for attributes, verdict in verdicts.items():
            if verdict:
                stored = [a for a in attributes if a in successor.attribute_pids]
                if not all(a in successor._owners for a in stored):
                    continue
                verdict = all(
                    _reached_once(info, attributes) for info in fresh
                    if not attributes.isdisjoint(info.attributes)
                ) and all(len(successor._owners[a].layers) <= 1 for a in stored)
            successor._visits_once[attributes] = verdict
        return successor


def _reached_once(info: PartitionInfo, attributes: frozenset) -> bool:
    """The per-partition half of the visit-once verdict: every segment of
    ``info`` stores all of ``attributes``, and no two of its segments share
    a tuple."""
    return all(attributes.issubset(attrs) for attrs in info.segment_attrs) and (
        len(info.segment_tids) < 2
        or len(info.tuple_ids()) == sum(map(len, info.segment_tids))
    )


def _zone_arrays(
    attribute: str, infos: Sequence[PartitionInfo]
) -> Tuple[np.ndarray, ...]:
    """``(pids, lo, hi)`` of ``infos`` for ``attribute``; no bounds is
    ``(-inf, +inf)``."""
    unbounded = (-np.inf, np.inf)
    bounds = [info.zone_map.get(attribute, unbounded) for info in infos]
    return (
        np.array([info.pid for info in infos], dtype=np.int64),
        np.array([lo for lo, _hi in bounds], dtype=np.float64),
        np.array([hi for _lo, hi in bounds], dtype=np.float64),
    )


def _holders(
    attribute: str, infos: Iterable[PartitionInfo]
) -> Tuple[List[Tuple[int, np.ndarray]], Tuple[Tuple[int, int], ...]]:
    """``(holders, placement)`` of ``attribute`` over ``infos``: per
    partition the tids its segments store the attribute for, and the
    ``(pid, segment)`` pairs those came from."""
    holders: List[Tuple[int, np.ndarray]] = []
    placement: List[Tuple[int, int]] = []
    for info in infos:
        held = [
            ordinal for ordinal, attrs in enumerate(info.segment_attrs)
            if attribute in attrs
        ]
        placement.extend((info.pid, ordinal) for ordinal in held)
        segments = [info.segment_tids[ordinal] for ordinal in held]
        holders.append((
            info.pid,
            segments[0] if len(segments) == 1 else np.concatenate(segments),
        ))
    return holders, tuple(placement)


@dataclass(frozen=True)
class Catalog:
    """One committed catalog state, as a value: nothing in it changes.

    * ``version`` — the commit this state is;
    * ``since`` — the version of the last commit that changed the live
      partition set, so every version from ``since`` on shares ``index``;
    * ``index`` — the live set's :class:`CatalogIndex`;
    * ``retired`` — pid -> ``(retiring version, entry)`` for every retired
      entry not yet pruned (its blob is still on disk);
    * ``floor`` — the oldest version whose partition set this value can
      still name (raised by :meth:`prune`);
    * ``next_pid`` — one past the highest pid ever committed; a prune never
      lowers it, so a pid is never handed out twice.

    :meth:`apply` (a commit) and :meth:`prune` return new values; the
    version history is the interval filter :meth:`live_at`, not a log.
    """

    version: int = 0
    since: int = 0
    index: CatalogIndex = field(default_factory=lambda: CatalogIndex(()))
    retired: Mapping[int, Tuple[int, PartitionInfo]] = field(default_factory=dict)
    floor: int = 0
    next_pid: int = 0

    def apply(
        self, added: Sequence[PartitionInfo], retired_pids: Iterable[int]
    ) -> "Catalog":
        """One commit: the fresh entries ``added`` (stamped here with the new
        version) become live and the live ones among ``retired_pids`` retire.

        With nothing to add or retire it is a version bump sharing this
        value's index.  An add-only commit whose pids all follow the live
        ones derives its index from this one (:meth:`CatalogIndex.with_added`);
        any other builds it fresh.
        """
        version = self.version + 1
        gone = set(retired_pids) & self.index.pids
        if not added and not gone:
            return replace(self, version=version)
        for info in added:
            info.version = version
        pids = [info.pid for info in added]
        if not gone and min(pids) > max(self.index.pids, default=-1):
            index = self.index.with_added(added)
        else:
            kept = [info for info in self.index.infos() if info.pid not in gone]
            index = CatalogIndex(kept + list(added))
        retired = {pid: (version, self.index.info(pid)) for pid in sorted(gone)}
        return Catalog(
            version, version, index, {**self.retired, **retired}, self.floor,
            max([self.next_pid, *(pid + 1 for pid in pids)]),
        )

    def prune(self, min_pinned: int) -> Tuple["Catalog", List[PartitionInfo]]:
        """Drop the retired entries no version from ``min_pinned`` on names
        (an entry retired at ``r`` was live only below ``r``): returns the
        value without them — its floor raised to the latest retiring
        version dropped — and the dropped entries in pid order."""
        doomed = sorted(pid for pid, (at, _info) in self.retired.items() if at <= min_pinned)
        if not doomed:
            return self, []
        kept = {pid: entry for pid, entry in self.retired.items() if entry[0] > min_pinned}
        floor = max(self.floor, *(self.retired[pid][0] for pid in doomed))
        return replace(self, retired=kept, floor=floor), [self.retired[pid][1] for pid in doomed]

    def live_at(self, version: int) -> List[PartitionInfo]:
        """The entries live at ``version``: committed at or before it and
        not retired by then.  Exact for every version from ``floor`` on,
        because a prune drops only entries retired at or below the floor."""
        live = [info for info in self.index.infos() if info.version <= version]
        live.extend(
            info for retired_at, info in self.retired.values()
            if info.version <= version < retired_at
        )
        return live

    def index_at(self, version: int) -> CatalogIndex:
        """The index of ``version``'s partition set: this value's own from
        ``since`` on, else one built from :meth:`live_at`.  Raises
        :class:`~repro.errors.SnapshotUnavailableError` for a version past
        this one or below the floor."""
        if version > self.version:
            raise SnapshotUnavailableError(
                f"cannot pin catalog version {version}: current version is {self.version}"
            )
        if version < self.floor:
            raise SnapshotUnavailableError(
                f"cannot pin catalog version {version}: retired partitions below "
                f"version {self.floor} were already pruned"
            )
        return self.index if version >= self.since else CatalogIndex(self.live_at(version))

    def info(self, pid: int) -> PartitionInfo:
        """Entry of a live — or retired but unpruned — pid."""
        retired = self.retired.get(pid)
        return retired[1] if retired is not None else self.index.info(pid)

    def holds(self, pid: int) -> bool:
        """Whether ``pid`` names a live or a retired but unpruned entry."""
        return pid in self.index.pids or pid in self.retired


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

    ``hidden`` is the transactional layer's visibility rule for this
    version: the ascending tids of the scanned domain a read must not
    return (deleted by then, or committed later), which engines mark
    INVALID before their selection phase.  ``None`` — nothing hidden, always
    the case outside the write path — is the read-only engines' exact
    path.
    """

    __slots__ = ("manager", "version", "index", "hidden", "_released")

    def __init__(
        self, manager: PartitionManager, version: int, index: CatalogIndex
    ):
        self.manager = manager
        self.version = version
        #: the frozen partition set's index — the live manager's own object
        #: when no swap separates the pinned version from the current one.
        self.index = index
        self.hidden: Optional[np.ndarray] = None
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

    def partitions_with_missing_cells(
        self, attribute: str, tids: np.ndarray
    ) -> Tuple[int, ...]:
        return self.index.partitions_with_cells(attribute, tids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CatalogSnapshot(version={self.version}, "
            f"{len(self.pids)} partitions)"
        )
