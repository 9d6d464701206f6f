"""Physical partitions: materialized tuples + cells (Section 5.1, Figure 3).

The partitioning algorithm emits *logical* segments (range boxes).  The
partition manager turns a partition's logical segments into *physical
segments* by resolving each box against the actual table data and grouping
tuples that carry the same attribute set, which is exactly the logical →
physical step of Figure 3 (tuples ``t1, t2, t4`` end up contiguous because
they share a schema).

Tuple-ID storage comes in three modes:

* ``explicit``  — IDs serialized in the file; this is what Jigsaw's irregular
  partitions do, and it is the storage overhead the paper measures (e.g. the
  27.4 GB of tuple IDs in the TPC-H experiment).
* ``implicit``  — tuples are a contiguous natural-order run; only the first
  ID is stored.  Used by the Row and Column baselines.
* ``catalog``   — the permutation is kept in the partition manager's
  in-memory catalog, mirroring how the baselines' vertical pieces stay
  positionally aligned without paying tuple-ID I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.partition import Partition
from ..core.schema import TableSchema
from ..errors import InvalidPartitioningError
from .table_data import ColumnTable

__all__ = [
    "TID_EXPLICIT",
    "TID_IMPLICIT",
    "TID_CATALOG",
    "PhysicalSegment",
    "PhysicalPartition",
    "SegmentSpec",
    "build_physical_partition",
    "physical_from_logical",
    "sorted_isin",
    "sorted_unique",
]

TID_EXPLICIT = "explicit"
TID_IMPLICIT = "implicit"
TID_CATALOG = "catalog"
_TID_MODES = (TID_EXPLICIT, TID_IMPLICIT, TID_CATALOG)


def sorted_unique(tids: np.ndarray) -> np.ndarray:
    """``np.unique`` of a one-dimensional integer array.

    Tuple IDs arrive as a concatenation of strictly ascending segment
    arrays, which a stable sort (timsort) merges run by run in linear time;
    numpy's own ``np.unique`` hashes instead, at many times the cost on
    such input.
    """
    ordered = np.sort(tids, kind="stable")
    if len(ordered) < 2:
        return ordered
    keep = np.empty(len(ordered), dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def sorted_isin(values: np.ndarray, members: np.ndarray) -> np.ndarray:
    """``np.isin(values, members)`` for an ascending ``members`` array: one
    binary search per value instead of a hash of both."""
    if not len(members):
        return np.zeros(len(values), dtype=bool)
    at = np.searchsorted(members, values)
    # A value past the largest member lands at len(members); probe the last
    # member instead, which it cannot equal.
    np.minimum(at, len(members) - 1, out=at)
    return members[at] == values


@dataclass(slots=True)
class PhysicalSegment:
    """Same-schema tuples stored contiguously inside one partition."""

    attributes: Tuple[str, ...]
    tuple_ids: np.ndarray
    #: a dict of arrays, or — decoded from a file — a
    #: ``format.LazyColumnBlock`` built by :meth:`framed`.
    columns: Mapping[str, np.ndarray]
    tid_storage: str = TID_EXPLICIT

    def __post_init__(self) -> None:
        if self.tid_storage not in _TID_MODES:
            raise InvalidPartitioningError(f"unknown tid storage mode {self.tid_storage!r}")
        n = len(self.tuple_ids)
        for name in self.attributes:
            if name not in self.columns:
                raise InvalidPartitioningError(f"physical segment missing column {name!r}")
            if len(self.columns[name]) != n:
                raise InvalidPartitioningError(
                    f"column {name!r} length {len(self.columns[name])} != {n} tuples"
                )
        if self.tid_storage == TID_IMPLICIT and n:
            expected = np.arange(self.tuple_ids[0], self.tuple_ids[0] + n)
            if not np.array_equal(self.tuple_ids, expected):
                raise InvalidPartitioningError(
                    "implicit tid storage requires a contiguous natural-order run"
                )

    @classmethod
    def framed(
        cls,
        attributes: Tuple[str, ...],
        tuple_ids: np.ndarray,
        columns: Mapping[str, np.ndarray],
        tid_storage: str,
    ) -> "PhysicalSegment":
        """A segment decoded under its catalog entry's frame.

        ``tuple_ids`` is the catalog's own (read-only) array, validated when
        the partition was added, and the decoder has already matched the
        segment header against the frame and sized ``columns`` from it — so
        ``__post_init__``'s O(tuples) checks would only re-derive what the
        write path established.  Every segment built from caller-supplied
        arrays goes through the ordinary constructor and is validated.
        """
        segment = object.__new__(cls)
        segment.attributes = attributes
        segment.tuple_ids = tuple_ids
        segment.columns = columns
        segment.tid_storage = tid_storage
        return segment

    @property
    def n_tuples(self) -> int:
        return len(self.tuple_ids)

    def cell_bytes(self, schema: TableSchema) -> int:
        """Logical bytes of the row-major cell area."""
        return self.n_tuples * schema.row_width(self.attributes)

    def disk_bytes(self, schema: TableSchema, tuple_id_bytes: int = 8) -> int:
        """Bytes this segment occupies in the partition file (sans headers)."""
        total = self.cell_bytes(schema)
        if self.tid_storage == TID_EXPLICIT:
            total += self.n_tuples * tuple_id_bytes
        return total


@dataclass(slots=True)
class PhysicalPartition:
    """One partition file's worth of physical segments."""

    pid: int
    segments: List[PhysicalSegment] = field(default_factory=list)
    _n_cells: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_tuples(self) -> int:
        return sum(segment.n_tuples for segment in self.segments)

    @property
    def n_cells(self) -> int:
        """Cells a row-major read of the partition passes over: every
        stored attribute of every stored tuple (Algorithm 5's
        ``cells_scanned``), counted on first use (a read partition's
        segments never change)."""
        if self._n_cells is None:
            self._n_cells = sum(
                len(segment.tuple_ids) * len(segment.attributes)
                for segment in self.segments
            )
        return self._n_cells

    def attribute_set(self) -> frozenset:
        """Attributes stored anywhere in the partition."""
        return frozenset().union(*(s.attributes for s in self.segments))

    def all_tuple_ids(self) -> np.ndarray:
        """Sorted unique tuple IDs stored anywhere in the partition."""
        if not self.segments:
            return np.empty(0, dtype=np.int64)
        return sorted_unique(np.concatenate([segment.tuple_ids for segment in self.segments]))

    def disk_bytes(self, schema: TableSchema, tuple_id_bytes: int = 8) -> int:
        return sum(segment.disk_bytes(schema, tuple_id_bytes) for segment in self.segments)

    def zone_map(self) -> Dict[str, Tuple[float, float]]:
        """Per-attribute (min, max) over the partition's stored cells."""
        bounds: Dict[str, Tuple[float, float]] = {}
        for segment in self.segments:
            for name in segment.attributes:
                column = segment.columns[name]
                if not len(column):
                    continue
                lo, hi = float(column.min()), float(column.max())
                if name in bounds:
                    bounds[name] = (min(bounds[name][0], lo), max(bounds[name][1], hi))
                else:
                    bounds[name] = (lo, hi)
        return bounds


@dataclass(frozen=True, slots=True)
class SegmentSpec:
    """A request to materialize ``attributes`` for explicit tuple IDs."""

    attributes: Tuple[str, ...]
    tuple_ids: np.ndarray

    def __post_init__(self) -> None:
        if not self.attributes:
            raise InvalidPartitioningError("segment spec needs at least one attribute")


def _natural_run(tids: np.ndarray) -> bool:
    """True when ``tids`` is a contiguous ascending run (implicit-friendly)."""
    if len(tids) == 0:
        return True
    return bool(tids[-1] - tids[0] == len(tids) - 1 and np.all(np.diff(tids) == 1))


def build_physical_partition(
    pid: int,
    specs: Sequence[SegmentSpec],
    table: ColumnTable,
    tid_storage: str = TID_EXPLICIT,
) -> PhysicalPartition:
    """Materialize segment specs against table data.

    Specs with identical attribute sets are coalesced into one physical
    segment (the Figure 3 grouping).  When ``tid_storage`` is implicit but a
    segment is not a natural contiguous run, it is demoted to catalog storage
    rather than silently breaking the format invariant.
    """
    if tid_storage not in _TID_MODES:
        raise InvalidPartitioningError(f"unknown tid storage mode {tid_storage!r}")
    grouped: Dict[Tuple[str, ...], List[np.ndarray]] = {}
    order: List[Tuple[str, ...]] = []
    for spec in specs:
        attrs = tuple(a for a in table.schema.attribute_names if a in set(spec.attributes))
        if attrs not in grouped:
            grouped[attrs] = []
            order.append(attrs)
        grouped[attrs].append(np.asarray(spec.tuple_ids, dtype=np.int64))
    segments: List[PhysicalSegment] = []
    for attrs in order:
        tids = np.concatenate(grouped[attrs]) if grouped[attrs] else np.empty(0, np.int64)
        tids = sorted_unique(tids)
        if not len(tids):
            continue
        mode = tid_storage
        if mode == TID_IMPLICIT and not _natural_run(tids):
            mode = TID_CATALOG
        segments.append(
            PhysicalSegment(
                attributes=attrs,
                tuple_ids=tids,
                columns=table.gather(attrs, tids),
                tid_storage=mode,
            )
        )
    if not segments:
        raise InvalidPartitioningError(f"partition {pid} materialized no tuples")
    return PhysicalPartition(pid=pid, segments=segments)


def physical_from_logical(
    partition: Partition,
    tids: np.ndarray,
    columns: Mapping[str, np.ndarray],
    schema: TableSchema,
    tid_storage: str = TID_EXPLICIT,
) -> PhysicalPartition:
    """Resolve a logical partition's range boxes over the rows ``tids``
    (ascending) — a whole table at build time, the rows a migration's scope
    stores when it runs — whose cells ``columns`` holds aligned with them:
    each segment's attributes and ``tight`` attributes.  Segments with
    identical attribute sets become one physical segment (the Figure 3
    grouping).  When ``tid_storage`` is implicit but a segment is not a
    natural contiguous run, it is demoted to catalog storage."""
    grouped: Dict[Tuple[str, ...], np.ndarray] = {}
    for segment in partition.segments:
        inside = np.ones(len(tids), dtype=bool)
        for name in segment.tight:
            interval = segment.ranges[name]
            inside &= (columns[name] >= interval.lo) & (columns[name] <= interval.hi)
        attrs = tuple(a for a in schema.attribute_names if a in segment.attributes)
        if attrs in grouped:
            inside |= grouped[attrs]
        grouped[attrs] = inside
    segments = []
    for attrs, inside in grouped.items():
        at = np.flatnonzero(inside)
        if not len(at):
            continue
        mode = tid_storage
        if mode == TID_IMPLICIT and not _natural_run(tids[at]):
            mode = TID_CATALOG
        segments.append(PhysicalSegment(
            attrs, tids[at], {name: columns[name][at] for name in attrs}, mode
        ))
    if not segments:
        # A partition whose boxes match no tuples (estimation said otherwise)
        # still needs a placeholder so indexes stay consistent.
        first_attrs = tuple(partition.segments[0].attributes)
        segments = [PhysicalSegment(
            first_attrs,
            np.empty(0, np.int64),
            {name: np.empty(0, schema[name].np_dtype) for name in first_attrs},
            tid_storage if tid_storage != TID_IMPLICIT else TID_CATALOG,
        )]
    return PhysicalPartition(pid=partition.pid, segments=segments)
