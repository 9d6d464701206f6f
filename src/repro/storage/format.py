"""Binary partition file format (Figure 4).

A partition file holds a header followed by one or more *physical segments*.
Each physical segment stores (i) an attribute bitmap identifying which table
attributes it contains, (ii) the tuple IDs (unless the order is implicit or
the layout keeps the mapping in the catalog), and (iii) the cells serialized
row by row — row-major order, as Section 5.1 prescribes.

Cells occupy their *logical* byte width: a dictionary-encoded 117-byte TPC-H
comment really takes 117 bytes per row on disk (value in the leading bytes,
zero padding after), so file sizes — and therefore all simulated I/O — match
the paper's accounting.

Layout (little endian)::

    magic 'JGSW' | version u16 | pid u32 | n_segments u32 | n_attrs u16
    header_crc u32
    per segment:
      tid_mode u8 | n_tuples u64 | first_tid u64
      segment_crc u32
      bitmap ceil(n_attrs/8)B
      [tuple ids int64 * n_tuples]        -- tid_mode == explicit only
      row-major cells (padded widths)

CRC32 checksums make corruption *detected* instead of silently decoded:
``header_crc`` covers the file header, and each segment's ``segment_crc``
covers its segment header plus every byte of its bitmap, tuple IDs and
cells.  A file whose version is not :data:`FORMAT_VERSION` is refused.

A file is read only under its *frame* — the partition's catalog entry,
which holds each segment's attributes, tuple IDs and tid mode — so
``(bytes, schema, frame)`` is all a read needs.  What is verified, when and
where:

* **Checksums — once per bytes object.**  :func:`deserialize_partition`
  verifies every CRC of the object it is handed (over ``memoryview`` slices;
  cells decode lazily) before any cell can reach a caller, and
  records the verdict *on that object* when it can carry one
  (:class:`~repro.storage.blob.StoredBlob`, what ``MemoryBlobStore`` keeps).
  Bytes are immutable, so the same object is not re-hashed on a later decode;
  any other object — a corrupted or truncated copy, a file re-read from disk,
  a blob rewritten by ``put`` — has no verdict and is verified in full.
* **Framing — every decode, O(segments).**  Magic, version, attribute count,
  truncation of every header / tuple-ID / cell area, and each segment
  header's mode, bitmap, ``n_tuples`` and ``first_tid``
  against the frame.
* **Tuple-ID structure — at write time.**  The partition manager validates
  a partition's tuple-ID arrays when it adds the partition to the catalog
  (and ``PhysicalSegment`` validates every segment built from arrays); a
  decode hands out those catalog arrays instead of rebuilding and
  re-validating them per read.

Checksum bytes are a durability artifact, not data: simulated I/O accounting
charges the file's size without them (see :func:`checksum_overhead`), so
figure reproductions are byte-identical with or without them.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Mapping
from functools import lru_cache
from typing import Dict, List, Protocol, Sequence, Tuple

import numpy as np

from ..core.schema import TableSchema
from ..errors import ChecksumError, StorageError
from .blob import StoredBlob
from .physical import PhysicalPartition, PhysicalSegment, TID_CATALOG, TID_EXPLICIT, TID_IMPLICIT

__all__ = [
    "serialize_partition",
    "deserialize_partition",
    "segment_row_dtype",
    "checksum_overhead",
    "PartitionFrame",
    "append_trailer",
    "read_trailer",
    "LazyColumnBlock",
    "FORMAT_VERSION",
    "MAGIC",
    "TRAILER_MAGIC",
]

MAGIC = b"JGSW"
#: the one version written and read.
FORMAT_VERSION = 2
_HEADER = struct.Struct("<4sHIIH")
_SEGMENT_HEADER = struct.Struct("<BQQ")
_CRC = struct.Struct("<I")
#: optional metadata trailer (sketch catalog) appended after the segments.
TRAILER_MAGIC = b"JGSK"
_TRAILER_FOOTER = struct.Struct("<II4s")  # payload crc32 | payload length | magic
_TID_MODES = {TID_EXPLICIT: 0, TID_IMPLICIT: 1, TID_CATALOG: 2}
_TID_MODES_REVERSE = {code: mode for mode, code in _TID_MODES.items()}


@lru_cache(maxsize=4096)
def _segment_row_dtype_cached(schema: TableSchema, attributes: Tuple[str, ...]) -> np.dtype:
    names: List[str] = []
    formats: List[str] = []
    offsets: List[int] = []
    cursor = 0
    for name in attributes:
        spec = schema[name]
        names.append(name)
        formats.append(spec.np_dtype)
        offsets.append(cursor)
        cursor += spec.byte_width
    return np.dtype({"names": names, "formats": formats, "offsets": offsets, "itemsize": cursor})


def segment_row_dtype(schema: TableSchema, attributes: Sequence[str]) -> np.dtype:
    """Row-major structured dtype with logical (padded) byte widths.

    Memoized per ``(schema, attribute tuple)`` — the same few segment shapes
    recur across every partition of a layout, and building a structured dtype
    is surprisingly expensive relative to decoding a small segment.
    """
    return _segment_row_dtype_cached(schema, tuple(attributes))


class LazyColumnBlock(Mapping):
    """Column mapping of one segment, decoded from file bytes on first access.

    Behaves like a ``{name: ndarray}`` dict (same keys, same lookup
    semantics) but a column's bytes are only touched when the column is
    actually read: ``__getitem__`` returns a strided ``np.frombuffer`` view
    into the row-major cell area, memoized per attribute.  Holding the view
    keeps the underlying file buffer alive, which is exactly the contract the
    buffer pool wants — a cached partition can serve *any* later projection
    without re-reading the device.
    """

    __slots__ = ("_data", "_offset", "_row_dtype", "_attributes", "_n_rows", "_rows", "_columns")

    def __init__(
        self,
        data: bytes,
        offset: int,
        row_dtype: np.dtype,
        attributes: Tuple[str, ...],
        n_rows: int,
    ):
        self._data = data
        self._offset = offset
        self._row_dtype = row_dtype
        self._attributes = attributes
        self._n_rows = n_rows
        self._rows: np.ndarray | None = None
        self._columns: Dict[str, np.ndarray] = {}

    @property
    def materialized(self) -> frozenset:
        """Attributes whose views have been created so far."""
        return frozenset(self._columns)

    def __getitem__(self, name: str) -> np.ndarray:
        column = self._columns.get(name)
        if column is None:
            if name not in self._attributes:
                raise KeyError(name)
            if self._rows is None:
                self._rows = np.frombuffer(
                    self._data, dtype=self._row_dtype, count=self._n_rows, offset=self._offset
                )
            column = self._rows[name]
            self._columns[name] = column
        return column

    def __iter__(self):
        return iter(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __contains__(self, name: object) -> bool:
        return name in self._attributes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LazyColumnBlock({len(self._attributes)} attrs, "
            f"{len(self._columns)} materialized, {self._n_rows} rows)"
        )


def _attribute_bitmap(schema: TableSchema, attributes: Sequence[str]) -> bytes:
    bitmap = bytearray((len(schema) + 7) // 8)
    for name in attributes:
        position = schema.position(name)
        bitmap[position // 8] |= 1 << (position % 8)
    return bytes(bitmap)


@lru_cache(maxsize=4096)
def _segment_shape(schema: TableSchema, bitmap: bytes) -> Tuple[Tuple[str, ...], np.dtype]:
    """``(attributes, row dtype)`` a segment's attribute bitmap stands for."""
    attributes = tuple(
        name
        for position, name in enumerate(schema.attribute_names)
        if bitmap[position // 8] & (1 << (position % 8))
    )
    return attributes, _segment_row_dtype_cached(schema, attributes)


class PartitionFrame(Protocol):
    """What the catalog knows of a partition file's structure, per segment
    (:class:`~repro.storage.partition_manager.PartitionInfo` is one)."""

    @property
    def segment_attrs(self) -> Sequence[Tuple[str, ...]]: ...

    @property
    def segment_tids(self) -> Sequence[np.ndarray]: ...

    @property
    def segment_tid_modes(self) -> Sequence[str]: ...


def checksum_overhead(n_segments: int) -> int:
    """Bytes a file spends on checksums (one per header and per segment).

    The partition manager subtracts this from the physical file size when
    charging simulated I/O, so checksums never perturb the paper's byte
    accounting.
    """
    return _CRC.size * (1 + n_segments)


def append_trailer(data: bytes, payload: bytes) -> bytes:
    """Append an optional metadata trailer to a serialized partition.

    The trailer rides *after* the last segment — ``deserialize_partition``
    stops at ``n_segments`` and never sees it.  Its fixed-size footer (payload CRC32,
    payload length, ``JGSK`` magic) sits at the very end of the file so a
    reader can find it without re-parsing the segments.  Like checksum
    overhead, trailer bytes are excluded from the accounted partition size.
    """
    footer = _TRAILER_FOOTER.pack(zlib.crc32(payload), len(payload), TRAILER_MAGIC)
    return data + payload + footer


def read_trailer(data: bytes) -> bytes | None:
    """The trailer payload of a partition file, or None when absent.

    A corrupt footer (bad length or CRC) reads as "no trailer": sketches
    are an optimization hint, never required for correctness, so a damaged
    trailer degrades to zone-map-only pruning instead of failing the read.
    """
    if len(data) < _TRAILER_FOOTER.size or not data.endswith(TRAILER_MAGIC):
        return None
    crc, length, _magic = _TRAILER_FOOTER.unpack_from(
        data, len(data) - _TRAILER_FOOTER.size
    )
    start = len(data) - _TRAILER_FOOTER.size - length
    if start < _HEADER.size:
        return None
    payload = data[start : len(data) - _TRAILER_FOOTER.size]
    if zlib.crc32(payload) != crc:
        return None
    return payload


def serialize_partition(partition: PhysicalPartition, schema: TableSchema) -> bytes:
    """Serialize a physical partition into the Figure-4 byte layout."""
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, partition.pid, len(partition.segments), len(schema)
    )
    chunks: List[bytes] = [header, _CRC.pack(zlib.crc32(header))]
    for segment in partition.segments:
        mode = _TID_MODES[segment.tid_storage]
        first_tid = int(segment.tuple_ids[0]) if segment.n_tuples else 0
        seg_header = _SEGMENT_HEADER.pack(mode, segment.n_tuples, first_tid)
        body: List[bytes] = [_attribute_bitmap(schema, segment.attributes)]
        if segment.tid_storage == TID_EXPLICIT:
            body.append(np.ascontiguousarray(segment.tuple_ids, dtype="<i8").tobytes())
        row_dtype = segment_row_dtype(schema, segment.attributes)
        rows = np.zeros(segment.n_tuples, dtype=row_dtype)
        for name in segment.attributes:
            rows[name] = segment.columns[name]
        body.append(rows.tobytes())
        crc = zlib.crc32(seg_header)
        for piece in body:
            crc = zlib.crc32(piece, crc)
        chunks.extend([seg_header, _CRC.pack(crc), *body])
    return b"".join(chunks)


def deserialize_partition(
    data: bytes, schema: TableSchema, frame: PartitionFrame
) -> PhysicalPartition:
    """Parse a partition file back into a :class:`PhysicalPartition`.

    ``frame`` is the partition's catalog entry.  A decode costs
    O(segments): each segment header is cross-checked against the frame
    (mode, attributes, ``n_tuples``, ``first_tid``) and the
    segment takes the catalog's tuple-ID array as is — for every tid mode —
    instead of building, copying or re-validating one.  Every segment's
    ``columns`` is a :class:`LazyColumnBlock` over the file bytes: a cell
    decodes on first access.

    Checksums are verified unless this very ``data`` object already carries
    a verdict (see the module docstring); a successful decode records one.
    """
    size = len(data)
    if size < _HEADER.size:
        raise StorageError("partition file truncated: missing header")
    magic, version, pid, n_segments, n_attrs = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise StorageError(f"bad magic {magic!r}; not a partition file")
    if version != FORMAT_VERSION:
        raise StorageError(f"unsupported partition format version {version}")
    verify = not (isinstance(data, StoredBlob) and data.crc_verified)
    view = memoryview(data)
    offset = _HEADER.size
    if size < offset + _CRC.size:
        raise StorageError("partition file truncated: missing header checksum")
    (stored_crc,) = _CRC.unpack_from(data, offset)
    if verify and zlib.crc32(view[:_HEADER.size]) != stored_crc:
        raise ChecksumError(f"partition {pid}: header checksum mismatch")
    offset += _CRC.size
    if n_attrs != len(schema):
        raise StorageError(
            f"partition file written for {n_attrs} attributes, schema has {len(schema)}"
        )
    if len(frame.segment_tids) != n_segments:
        raise StorageError(
            f"partition {pid}: file holds {n_segments} segments, "
            f"catalog says {len(frame.segment_tids)}"
        )
    bitmap_bytes = (n_attrs + 7) // 8
    header_budget = _SEGMENT_HEADER.size + _CRC.size
    segments: List[PhysicalSegment] = []
    for ordinal in range(n_segments):
        seg_start = offset
        if offset + header_budget + bitmap_bytes > size:
            raise StorageError(f"partition {pid}: truncated segment header #{ordinal}")
        mode_code, n_tuples, first_tid = _SEGMENT_HEADER.unpack_from(data, offset)
        offset += _SEGMENT_HEADER.size
        (seg_crc_stored,) = _CRC.unpack_from(data, offset)
        offset += _CRC.size
        body_start = offset
        try:
            tid_storage = _TID_MODES_REVERSE[mode_code]
        except KeyError:
            raise StorageError(f"partition {pid}: unknown tid mode {mode_code}") from None
        attributes, row_dtype = _segment_shape(schema, data[offset:offset + bitmap_bytes])
        offset += bitmap_bytes
        if tid_storage == TID_EXPLICIT:
            offset += 8 * n_tuples
            if offset > size:
                raise StorageError(f"partition {pid}: truncated tuple IDs in segment #{ordinal}")
        cell_bytes = row_dtype.itemsize * n_tuples
        if offset + cell_bytes > size:
            raise StorageError(f"partition {pid}: truncated cells in segment #{ordinal}")
        if verify:
            crc = zlib.crc32(view[seg_start:seg_start + _SEGMENT_HEADER.size])
            crc = zlib.crc32(view[body_start:offset + cell_bytes], crc)
            if crc != seg_crc_stored:
                raise ChecksumError(
                    f"partition {pid}: checksum mismatch in segment #{ordinal}"
                )
        tuple_ids = frame.segment_tids[ordinal]
        if (
            tid_storage != frame.segment_tid_modes[ordinal]
            or attributes != frame.segment_attrs[ordinal]
            or n_tuples != len(tuple_ids)
            or first_tid != (int(tuple_ids[0]) if n_tuples else 0)
        ):
            raise StorageError(
                f"partition {pid}: segment #{ordinal} header disagrees with the catalog"
            )
        cells = LazyColumnBlock(data, offset, row_dtype, attributes, n_tuples)
        offset += cell_bytes
        segments.append(
            PhysicalSegment.framed(attributes, tuple_ids, cells, tid_storage)
        )
    if verify and isinstance(data, StoredBlob):
        data.crc_verified = True
    return PhysicalPartition(pid=pid, segments=segments)
