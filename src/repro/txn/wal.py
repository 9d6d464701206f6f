"""The write-ahead log: CRC32-framed commit batches through the blob store.

Durability contract: a write is durable exactly when its *group commit*
batch blob landed in the store.  :meth:`WriteAheadLog.append` only buffers a
typed record (INSERT / DELETE / UPDATE, each carrying full row payloads so
replay needs no reads); :meth:`WriteAheadLog.commit` frames every buffered
record into one batch blob — one ``put`` per commit is the simulated fsync,
which is what makes group commit worth measuring — and :meth:`replay`
reconstructs the committed record stream deterministically after a crash.

Framing (all little-endian, mirroring the format-v2 idiom of
:mod:`repro.storage.format`):

* batch blob: ``JWAL | format u16 | batch_seq u64 | n_records u32 |
  header_crc u32`` then the concatenated records;
* record: ``kind u8 | lsn u64 | n_tuples u64 | payload_len u32 |
  payload_crc u32 | payload`` — the CRC covers header *and* payload, so a
  torn write anywhere inside a record is detected, not decoded.

Crash model: the store holds whole blobs, so a "crash" in tests truncates
or corrupts the *last* batch blob (``FaultInjectingBlobStore`` corruption
also lands here).  :meth:`replay` consumes batches in sequence order and
stops at the first missing or undecodable batch — everything before it is
the recovered state, which is exactly "recover to the last group commit".

The WAL shares the manager's blob store (under ``wal/``), so fault
injection wired by :func:`repro.testing.inject_faults` covers the log too.
"""

from __future__ import annotations

import struct
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from ..core.schema import TableSchema
from ..errors import StorageError, TransactionError
from ..obs import tracer as obs_tracer
from ..storage.blob import BlobStore
from ..storage.format import segment_row_dtype

__all__ = [
    "KIND_DELETE",
    "KIND_INSERT",
    "KIND_UPDATE",
    "WalRecord",
    "WalStats",
    "WriteAheadLog",
]

WAL_MAGIC = b"JWAL"
WAL_FORMAT_VERSION = 1

#: batch header: magic, format, batch sequence number, record count, CRC of
#: the preceding fields.
_BATCH_HEADER = struct.Struct("<4sHQII")
#: record header: kind, lsn, n_tuples, payload byte length, CRC over the
#: header-sans-CRC plus payload.
_RECORD_HEADER = struct.Struct("<BQQII")

KIND_INSERT = "insert"
KIND_UPDATE = "update"
KIND_DELETE = "delete"
_KIND_CODES = {KIND_INSERT: 1, KIND_DELETE: 2, KIND_UPDATE: 3}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}


@dataclass(frozen=True)
class WalRecord:
    """One logical write, self-contained for replay.

    ``tids`` are the tuple ids the record *assigns* (insert/update: the new
    rows' ids) or *dooms* (delete).  ``old_tids`` is update-only: the rows
    the update supersedes (an update is a delete of ``old_tids`` plus an
    insert of ``tids``).  ``columns`` holds the full new rows for
    insert/update — values are captured at append time, so replay is a pure
    function of the log.
    """

    kind: str
    lsn: int
    tids: np.ndarray
    columns: Optional[Dict[str, np.ndarray]] = None
    old_tids: Optional[np.ndarray] = None

    @property
    def n_tuples(self) -> int:
        return len(self.tids)


@dataclass
class WalStats:
    """Lifetime counters for one log (feeds ``jigsaw_wal_*`` metrics)."""

    n_appends: int = 0
    n_commits: int = 0
    n_empty_commits: int = 0
    n_records_committed: int = 0
    bytes_written: int = 0
    #: bytes released by checkpoint truncations; ``bytes_written -
    #: bytes_truncated`` is the live backlog the WAL health rule watches.
    bytes_truncated: int = 0
    n_batches_replayed: int = 0
    n_records_replayed: int = 0
    n_truncated_tails: int = 0
    #: successful :meth:`WriteAheadLog.truncate_through` checkpoints.
    n_checkpoints: int = 0
    #: wall-clock seconds of the most recent group commit (encode + the
    #: one batch put that is the simulated fsync).
    last_commit_latency_s: float = 0.0


def _encode_tids(tids: np.ndarray) -> bytes:
    return np.ascontiguousarray(tids, dtype="<i8").tobytes()


def _decode_tids(payload: bytes, offset: int, count: int) -> Tuple[np.ndarray, int]:
    tids = np.frombuffer(payload, dtype="<i8", count=count, offset=offset).copy()
    return tids, offset + 8 * count


class WriteAheadLog:
    """Append-only typed log over a :class:`~repro.storage.blob.BlobStore`.

    One instance per transactional table.  Thread-safe: appends and commits
    serialize on an internal lock (the group-commit batch is the unit of
    atomicity, matching the one-writer-at-a-time semantics of
    :class:`~repro.txn.table.TransactionalTable`).
    """

    def __init__(
        self,
        store: BlobStore,
        schema: TableSchema,
        key_prefix: str = "wal/",
        retry_policy=None,
    ):
        self.store = store
        self.schema = schema
        self.key_prefix = key_prefix
        self.retry_policy = retry_policy
        self.stats = WalStats()
        self._row_dtype = segment_row_dtype(schema, schema.attribute_names)
        self._pending: List[WalRecord] = []
        self._next_lsn = 1
        self._next_batch = 1
        self._lock = threading.Lock()

    # ------------------------------------------------------------- append

    def append(
        self,
        kind: str,
        tids: np.ndarray,
        columns: Optional[Mapping[str, np.ndarray]] = None,
        old_tids: Optional[np.ndarray] = None,
    ) -> WalRecord:
        """Buffer one typed record; durable only after :meth:`commit`.  A
        payload holding one value per tid for every attribute is the
        caller's check (:class:`~repro.txn.table.TransactionalTable` makes
        it with the log on or off)."""
        if kind not in _KIND_CODES:
            raise TransactionError(f"unknown WAL record kind {kind!r}")
        tids = np.asarray(tids, dtype=np.int64)
        if kind in (KIND_INSERT, KIND_UPDATE):
            if columns is None:
                raise TransactionError(f"{kind} record needs row payloads")
            columns = {
                name: np.asarray(columns[name])
                for name in self.schema.attribute_names
            }
        else:
            columns = None
        if kind == KIND_UPDATE:
            if old_tids is None:
                raise TransactionError("update record needs old_tids")
            old_tids = np.asarray(old_tids, dtype=np.int64)
        else:
            old_tids = None
        with self._lock:
            record = WalRecord(kind, self._next_lsn, tids, columns, old_tids)
            self._next_lsn += 1
            self._pending.append(record)
            self.stats.n_appends += 1
        return record

    def pending_records(self) -> Tuple[WalRecord, ...]:
        with self._lock:
            return tuple(self._pending)

    def discard_pending(self) -> int:
        """Drop buffered (uncommitted) records — a rollback."""
        with self._lock:
            n = len(self._pending)
            self._pending.clear()
            return n

    # ------------------------------------------------------------- commit

    def commit(self) -> int:
        """Group-commit every buffered record as one batch blob.

        Returns the batch sequence number, or ``-1`` when nothing was
        pending (no blob is written).  The single ``store.put`` is the
        simulated fsync — if it raises, the batch stays buffered and the
        commit can be retried; its wall-clock latency is recorded in
        :attr:`WalStats.last_commit_latency_s`, which the transactional table
        hands to its commit's request scope and to the metrics registry.
        """
        started = time.perf_counter()
        with self._lock:
            if not self._pending:
                self.stats.n_empty_commits += 1
                return -1
            records = list(self._pending)
            self._pending.clear()
            seq = self._next_batch
            self._next_batch += 1
        data = self._encode_batch(seq, records)
        try:
            with obs_tracer().span(
                "wal.commit", batch_seq=seq, n_records=len(records)
            ) as span:
                self.store.put(self._batch_key(seq), data)
                span.set(n_bytes=len(data))
        except StorageError:
            # Nothing became durable: the batch is buffered again under the
            # same sequence number (a skipped one would read as a hole that
            # ends every later replay).
            with self._lock:
                self._pending[:0] = records
                if self._next_batch == seq + 1:
                    self._next_batch = seq
            raise
        latency = time.perf_counter() - started
        with self._lock:
            self.stats.n_commits += 1
            self.stats.n_records_committed += len(records)
            self.stats.bytes_written += len(data)
            self.stats.last_commit_latency_s = latency
        return seq

    # ------------------------------------------------------------- replay

    def replay(self) -> List[WalRecord]:
        """Decode every durable batch in order; stop at the first torn one.

        Deterministic and side-effect-free on the store: calling it twice
        yields the same record stream (idempotence is a tested property).
        Also fast-forwards the lsn/batch counters past everything recovered,
        so a log object created over an existing store continues the
        sequence instead of colliding with it.
        """
        records: List[WalRecord] = []
        batches = 0
        truncated = False
        previous_seq: Optional[int] = None
        for seq in self._batch_seqs():
            if previous_seq is not None and seq != previous_seq + 1:
                # A hole in the sequence: everything past it is suspect.
                truncated = True
                break
            previous_seq = seq
            data = self._read_batch(seq)
            if data is None:
                truncated = True
                break
            try:
                batch = self._decode_batch(seq, data)
            except StorageError:
                # Torn tail: a partially written / corrupted batch means the
                # commit never completed — recovery stops at the last full
                # group commit, and later batches (there should be none in a
                # single-crash model) are ignored too.
                truncated = True
                break
            records.extend(batch)
            batches += 1
        with self._lock:
            if records:
                self._next_lsn = max(self._next_lsn,
                                     max(r.lsn for r in records) + 1)
            known = list(self._batch_seqs())
            if known:
                self._next_batch = max(self._next_batch, max(known) + 1)
            self.stats.n_batches_replayed += batches
            self.stats.n_records_replayed += len(records)
            if truncated:
                self.stats.n_truncated_tails += 1
        return records

    def truncate_through(self, lsn: int) -> int:
        """Checkpoint: delete batches whose records are all applied.

        A batch is deletable when its highest lsn is ``<= lsn`` — after a
        compaction has folded the corresponding deltas into base partitions
        the log no longer needs to reproduce them.  Returns batches deleted.
        """
        dropped = 0
        dropped_bytes = 0
        for seq in self._batch_seqs():
            data = self._read_batch(seq)
            if data is None:
                continue
            try:
                batch = self._decode_batch(seq, data)
            except StorageError:
                continue
            if batch and max(r.lsn for r in batch) <= lsn:
                self.store.delete(self._batch_key(seq))
                dropped += 1
                dropped_bytes += len(data)
        with self._lock:
            self.stats.bytes_truncated += dropped_bytes
            self.stats.n_checkpoints += 1
        return dropped

    # ------------------------------------------------------------ framing

    def _batch_key(self, seq: int) -> str:
        return f"{self.key_prefix}b{seq:010d}.wal"

    def _batch_seqs(self) -> List[int]:
        prefix, suffix = f"{self.key_prefix}b", ".wal"
        seqs = []
        for key in self.store.keys():
            if key.startswith(prefix) and key.endswith(suffix):
                try:
                    seqs.append(int(key[len(prefix):-len(suffix)]))
                except ValueError:
                    continue
        return sorted(seqs)

    def _read_batch(self, seq: int) -> Optional[bytes]:
        """Fetch one batch blob within the retry budget; None = unreadable."""
        attempts = (
            self.retry_policy.max_attempts if self.retry_policy is not None
            else 1
        )
        for _ in range(max(1, attempts)):
            try:
                return self.store.get(self._batch_key(seq))
            except StorageError:
                continue
        return None

    def _encode_batch(self, seq: int, records: List[WalRecord]) -> bytes:
        header = _BATCH_HEADER.pack(
            WAL_MAGIC, WAL_FORMAT_VERSION, seq, len(records), 0
        )[:-4]
        chunks = [header + struct.pack("<I", zlib.crc32(header))]
        for record in records:
            chunks.append(self._encode_record(record))
        return b"".join(chunks)

    def _encode_record(self, record: WalRecord) -> bytes:
        payload_parts: List[bytes] = []
        if record.kind == KIND_UPDATE:
            payload_parts.append(_encode_tids(record.old_tids))
        payload_parts.append(_encode_tids(record.tids))
        if record.columns is not None:
            rows = np.zeros(len(record.tids), dtype=self._row_dtype)
            for name in self.schema.attribute_names:
                rows[name] = record.columns[name]
            payload_parts.append(rows.tobytes())
        payload = b"".join(payload_parts)
        head = _RECORD_HEADER.pack(
            _KIND_CODES[record.kind], record.lsn, len(record.tids),
            len(payload), 0,
        )[:-4]
        crc = zlib.crc32(payload, zlib.crc32(head))
        return head + struct.pack("<I", crc) + payload

    def _decode_batch(self, seq: int, data: bytes) -> List[WalRecord]:
        if len(data) < _BATCH_HEADER.size:
            raise StorageError(f"wal batch {seq}: truncated header")
        magic, version, stored_seq, n_records, stored_crc = (
            _BATCH_HEADER.unpack_from(data, 0)
        )
        if magic != WAL_MAGIC:
            raise StorageError(f"wal batch {seq}: bad magic {magic!r}")
        if version != WAL_FORMAT_VERSION:
            raise StorageError(f"wal batch {seq}: unknown format {version}")
        if stored_seq != seq:
            raise StorageError(
                f"wal batch {seq}: blob claims sequence {stored_seq}"
            )
        if zlib.crc32(data[:_BATCH_HEADER.size - 4]) != stored_crc:
            raise StorageError(f"wal batch {seq}: header checksum mismatch")
        offset = _BATCH_HEADER.size
        records: List[WalRecord] = []
        for _ in range(n_records):
            record, offset = self._decode_record(seq, data, offset)
            records.append(record)
        return records

    def _decode_record(
        self, seq: int, data: bytes, offset: int
    ) -> Tuple[WalRecord, int]:
        if offset + _RECORD_HEADER.size > len(data):
            raise StorageError(f"wal batch {seq}: truncated record header")
        code, lsn, n_tuples, payload_len, stored_crc = (
            _RECORD_HEADER.unpack_from(data, offset)
        )
        kind = _KIND_NAMES.get(code)
        if kind is None:
            raise StorageError(f"wal batch {seq}: unknown record kind {code}")
        body_start = offset + _RECORD_HEADER.size
        if body_start + payload_len > len(data):
            raise StorageError(f"wal batch {seq}: truncated record payload")
        payload = data[body_start:body_start + payload_len]
        head = data[offset:offset + _RECORD_HEADER.size - 4]
        if zlib.crc32(payload, zlib.crc32(head)) != stored_crc:
            raise StorageError(f"wal batch {seq}: record checksum mismatch")
        cursor = 0
        old_tids = None
        if kind == KIND_UPDATE:
            old_count = (
                payload_len - n_tuples * (8 + self._row_dtype.itemsize)
            ) // 8
            old_tids, cursor = _decode_tids(payload, cursor, old_count)
        tids, cursor = _decode_tids(payload, cursor, n_tuples)
        columns = None
        if kind in (KIND_INSERT, KIND_UPDATE):
            rows = np.frombuffer(
                payload, dtype=self._row_dtype, count=n_tuples, offset=cursor
            )
            columns = {
                name: np.ascontiguousarray(rows[name])
                for name in self.schema.attribute_names
            }
        return (
            WalRecord(kind, lsn, tids, columns, old_tids),
            body_start + payload_len,
        )

    # --------------------------------------------------------- inspection

    @property
    def last_lsn(self) -> int:
        """Highest LSN assigned so far (0 before the first append)."""
        with self._lock:
            return self._next_lsn - 1

    @property
    def backlog_bytes(self) -> int:
        """Committed bytes not yet released by a checkpoint truncation."""
        with self._lock:
            return max(
                0, self.stats.bytes_written - self.stats.bytes_truncated
            )

    def batch_keys(self) -> List[str]:
        return [self._batch_key(seq) for seq in self._batch_seqs()]

    def __iter__(self) -> Iterator[WalRecord]:  # pragma: no cover - helper
        return iter(self.replay())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WriteAheadLog({len(self._batch_seqs())} batches, "
            f"{len(self._pending)} pending)"
        )
