"""The transactional table: writes, snapshot reads, and time travel.

:class:`TransactionalTable` wraps one materialized layout with the write
path.  Writes buffer as typed WAL records; :meth:`commit` makes them
durable (one group-commit blob), writes the batch's inserted rows once, as
one ordinary partition (a single full-schema segment over the fresh tids)
landed through an add-only
:meth:`~repro.storage.partition_manager.PartitionManager.swap_partitions` —
which is the commit's version bump and stamps the batch's deletes on the
catalog (``deleted=``); a delete-only batch calls
:meth:`~repro.storage.partition_manager.PartitionManager.advance_version`
with them instead.  The catalog version is the one transaction timeline
shared by writes, adaptive swaps, and compaction, and the catalog is the one
home of what a version shows.

Reads are MVCC: :meth:`execute` pins a
:class:`~repro.storage.partition_manager.CatalogSnapshot` (optionally at an
older version — ``AS OF``) and runs the layout's engine against it.  The
snapshot's frozen partition set already holds that version's commit
partitions, and its ``hidden`` the tids deleted by then, so committed rows
take the one read path every partition takes (planner access lists, zone
maps, the manager's retry/CRC/buffer-pool load; a partition that stays
unreadable fails the read) — and so does every other way in: an engine
that pins its own view of the table's manager, a served engine and a DAG
leaf read what :meth:`execute` reads.

The stored partitions are the only copy of the table: the write path keeps
the table meta and nothing else.  An update's old rows and a predicate
delete's targets are reads at the head
(:func:`~repro.engine.base.rows`, which charges no query), the tid
watermark is the catalog's (``Catalog.tid_end``), and each commit widens
the meta's bounds by its partition's zone map.

Tuple-id discipline: inserts take fresh tids at the high-water mark;
updates are delete + insert *under new tids* (a tid's cells are immutable
once written, which is what keeps partitions and zone maps sound
without rewrites).  Deleted tids stay physically present until a
:class:`~repro.txn.compactor.DeltaCompactor` pass folds them out.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.query import Query
from ..core.schema import TableMeta
from ..engine.base import rows as read_rows
from ..errors import TransactionError
from ..obs import publish, request_scope
from ..plan.result import ResultSet
from ..plan.stats import ExecutionStats
from ..storage.physical import (
    TID_IMPLICIT,
    PhysicalPartition,
    PhysicalSegment,
    sorted_isin,
    sorted_unique,
)
from ..storage.table_data import ColumnTable
from .delta import DeltaState
from .wal import (
    KIND_DELETE,
    KIND_INSERT,
    KIND_UPDATE,
    WalRecord,
    WriteAheadLog,
)

__all__ = ["TransactionalTable"]


class TransactionalTable:
    """Write path + MVCC snapshot reads over one materialized layout."""

    def __init__(
        self,
        layout,
        table: ColumnTable,
        wal_enabled: bool = True,
    ):
        self.layout = layout
        self.manager = layout.manager
        #: the table meta at the head: ``n_tuples`` is the tid watermark,
        #: the bounds cover every committed cell.  ``table`` is the build
        #: input; no reference to it is kept.
        self.meta: TableMeta = table.meta
        self.wal: Optional[WriteAheadLog] = (
            WriteAheadLog(
                self.manager.store,
                self.meta.schema,
                retry_policy=self.manager.retry_policy,
            )
            if wal_enabled else None
        )
        self._next_tid = self.manager.tid_end
        self._lsn = 0  # mirrors the WAL's lsn when the WAL is disabled
        self._applied_lsn = 0
        self._pending: List[WalRecord] = []
        self._pending_doomed: set = set()
        #: the head's fold debt (see :mod:`repro.txn.delta`).
        self._state = DeltaState((), frozenset())
        #: serializes commits and compaction passes (a compactor holds it
        #: from reading the state to :meth:`record_compaction`).
        self.write_lock = threading.RLock()

    # ---------------------------------------------------------- properties

    @property
    def schema(self):
        return self.meta.schema

    @property
    def n_tuples(self) -> int:
        """Committed tuples, deleted ones included: the tid watermark."""
        return self.meta.n_tuples

    @property
    def data(self) -> "TransactionalTable":
        """Read-only alias of this table, for the layer benchmark's
        ``txn.data.meta`` / ``txn.data.n_tuples``; it goes when the
        benchmark is re-pointed at :attr:`meta` and :attr:`n_tuples`."""
        return self

    @property
    def current_version(self) -> int:
        return self.manager.catalog_version

    def delta_state(self) -> DeltaState:
        """What the head version leaves for a fold."""
        return self._state

    # -------------------------------------------------------------- writes

    def insert(self, rows: Mapping[str, Sequence]) -> np.ndarray:
        """Buffer full rows for insertion; returns their assigned tids."""
        with self.write_lock:
            return self._append_record(KIND_INSERT, columns=rows).tids

    def delete(
        self,
        tids: Optional[Sequence[int]] = None,
        where: Optional[Mapping] = None,
    ) -> np.ndarray:
        """Buffer deletes, by explicit tids or by a predicate over the last
        committed state; returns the doomed tids."""
        with self.write_lock:
            doomed = self._resolve_targets(tids, where)
            if len(doomed):
                self._append_record(KIND_DELETE, tids=doomed)
                self._pending_doomed.update(int(t) for t in doomed)
            return doomed

    def update(
        self,
        assignments: Mapping[str, object],
        tids: Optional[Sequence[int]] = None,
        where: Optional[Mapping] = None,
    ) -> np.ndarray:
        """Buffer updates (delete + insert under fresh tids); returns the
        *new* tids carrying the updated rows, whose other cells are the old
        rows' as the head stores them."""
        bad = [n for n in assignments if n not in self.schema.attribute_names]
        if bad:
            raise TransactionError(f"update assigns unknown attributes: {bad}")
        with self.write_lock:
            doomed = self._resolve_targets(tids, where)
            if not len(doomed):
                return np.empty(0, dtype=np.int64)
            others = [n for n in self.schema.attribute_names if n not in assignments]
            with self.manager.pin_snapshot() as view:
                columns = read_rows(view, doomed, others)
            for name, value in assignments.items():
                replacement = np.asarray(value)
                if replacement.ndim == 0:
                    replacement = np.full(
                        len(doomed), value, dtype=self.schema[name].np_dtype
                    )
                columns[name] = replacement
            record = self._append_record(KIND_UPDATE, columns=columns, old_tids=doomed)
            self._pending_doomed.update(int(t) for t in doomed)
            return record.tids

    def _resolve_targets(
        self, tids: Optional[Sequence[int]], where: Optional[Mapping]
    ) -> np.ndarray:
        if (tids is None) == (where is None):
            raise TransactionError("pass exactly one of tids= or where=")
        n_committed = self.manager.tid_end
        if tids is not None:
            doomed = sorted_unique(np.asarray(tids, dtype=np.int64))
        else:
            assert where is not None  # exactly one of the two, checked above
            # Every committed tuple no commit deleted is stored at the head.
            doomed = np.arange(n_committed, dtype=np.int64)
            doomed = doomed[~self.manager.deleted(doomed)]
            with self.manager.pin_snapshot() as view:
                cells = read_rows(view, doomed, list(where))
            mask = np.ones(len(doomed), dtype=bool)
            for name, bounds in where.items():
                lo, hi = self._bounds(bounds)
                mask &= (cells[name] >= lo) & (cells[name] <= hi)
            doomed = doomed[mask]
        # Statement-level visibility: targets resolve against the last
        # committed state, minus anything this batch already doomed.
        if self._pending_doomed:
            pending = np.sort(np.fromiter(
                self._pending_doomed, dtype=np.int64,
                count=len(self._pending_doomed),
            ))
            doomed = doomed[~sorted_isin(doomed, pending)]
        out_of_range = doomed[(doomed < 0) | (doomed >= n_committed)]
        if len(out_of_range):
            raise TransactionError(
                f"tids {out_of_range[:5].tolist()} are not committed rows"
            )
        return doomed[~self.manager.deleted(doomed)]

    @staticmethod
    def _bounds(bounds) -> Tuple[float, float]:
        if hasattr(bounds, "lo"):
            return float(bounds.lo), float(bounds.hi)
        lo, hi = bounds
        return float(lo), float(hi)

    def _append_record(
        self,
        kind: str,
        tids: Optional[np.ndarray] = None,
        columns: Optional[Mapping[str, Any]] = None,
        old_tids: Optional[np.ndarray] = None,
    ) -> WalRecord:
        """Buffer one record, with the log on or off.  A row payload (an
        insert's, or an update's for its ``old_tids``) takes fresh tids at
        the watermark once it holds one value per tuple for every
        attribute; a refused record leaves the batch as it was."""
        if columns is not None:
            names = self.schema.attribute_names
            missing = [name for name in names if name not in columns]
            if missing:
                raise TransactionError(f"{kind} missing attributes: {missing}")
            columns = {
                name: np.asarray(columns[name]).astype(
                    self.schema[name].np_dtype, copy=False
                )
                for name in names
            }
            lengths = sorted({len(v) for v in columns.values()})
            n = len(old_tids) if old_tids is not None else lengths[0]
            if lengths != [n]:
                raise TransactionError(
                    f"{kind} payload holds {lengths} values per attribute "
                    f"for {n} tuples"
                )
            tids = np.arange(self._next_tid, self._next_tid + n, dtype=np.int64)
        assert tids is not None  # a delete names its tids
        if self.wal is not None:
            record = self.wal.append(kind, tids, columns, old_tids)
        else:
            self._lsn += 1
            record = WalRecord(
                kind, self._lsn, np.asarray(tids, dtype=np.int64),
                dict(columns) if columns is not None else None,
                np.asarray(old_tids, dtype=np.int64)
                if old_tids is not None else None,
            )
        self._pending.append(record)
        if columns is not None:
            self._next_tid += len(record.tids)
        return record

    def pending_count(self) -> int:
        with self.write_lock:
            return len(self._pending)

    def rollback(self) -> int:
        """Drop every buffered (uncommitted) write."""
        with self.write_lock:
            n = len(self._pending)
            self._pending.clear()
            self._pending_doomed.clear()
            self._next_tid = self.manager.tid_end
            if self.wal is not None:
                self.wal.discard_pending()
            return n

    # -------------------------------------------------------------- commit

    def commit(self) -> int:
        """Group-commit the buffered batch; returns the new catalog version.

        Ordering is the WAL contract: the batch blob lands (durability)
        *before* the batch's partition, and that before any in-memory state
        changes.  A :class:`~repro.errors.StorageError` from either put
        leaves the table at its pre-commit version with the batch still
        buffered, so ``commit()`` can simply be retried (a batch the log
        already holds is not logged twice).  With nothing pending this is a
        no-op returning the current version.
        """
        with self.write_lock:
            if not self._pending:
                return self.manager.catalog_version
            with request_scope("txn.commit") as scope:
                # -1: a retried commit whose batch the log already holds.
                if self.wal is not None and self.wal.commit() >= 0:
                    scope.add_leaf(
                        "wal.commit", self.wal.stats.last_commit_latency_s
                    )
                    publish("wal_commit", self.wal)
                    publish("wal", self.wal)
                version = self._apply(self._pending)
                scope.complete(
                    table=self.manager.key_prefix, catalog_version=version
                )
            self._pending.clear()
            self._pending_doomed.clear()
            return version

    def replay_wal(self) -> int:
        """Crash recovery: re-apply every durable WAL batch not yet applied.

        Call on a :class:`TransactionalTable` freshly constructed over a
        rebuilt base layout and the surviving blob store.  Replay is
        deterministic and idempotent — records at or below the applied lsn
        are skipped, and a torn tail batch (the crash) is ignored by
        :meth:`~repro.txn.wal.WriteAheadLog.replay`, recovering exactly the
        last group commit's state.  All recovered batches apply as one
        version bump.  Returns the number of records applied.
        """
        if self.wal is None:
            raise TransactionError("cannot replay: WAL is disabled")
        with self.write_lock:
            records = [
                r for r in self.wal.replay() if r.lsn > self._applied_lsn
            ]
            if records:
                self._apply(records)
            return len(records)

    def _apply(self, records: List[WalRecord]) -> int:
        """Turn one durable batch into one catalog commit at a fresh
        version: a partition of its inserted rows, its deletes stamped on
        the catalog.  The partition put is the only step that can fail, and
        it comes first."""
        new_tombstones: set = set()
        insert_tids: List[np.ndarray] = []
        insert_columns: List[Dict[str, np.ndarray]] = []
        for record in records:
            if record.kind == KIND_DELETE:
                new_tombstones.update(int(t) for t in record.tids)
            elif record.kind == KIND_INSERT:
                insert_tids.append(record.tids)
                insert_columns.append(record.columns)
            elif record.kind == KIND_UPDATE:
                new_tombstones.update(int(t) for t in record.old_tids)
                insert_tids.append(record.tids)
                insert_columns.append(record.columns)

        deleted = np.fromiter(
            sorted(new_tombstones), dtype=np.int64, count=len(new_tombstones)
        )
        segments: Tuple = ()
        all_tids = np.concatenate(insert_tids) if insert_tids else np.empty(0, np.int64)
        if len(all_tids):  # else nothing to store: a version bump
            watermark = self.manager.tid_end
            expected = np.arange(
                watermark, watermark + len(all_tids), dtype=np.int64
            )
            names = tuple(self.schema.attribute_names)
            merged = {
                name: np.concatenate(
                    [cols[name] for cols in insert_columns]
                ).astype(self.schema[name].np_dtype, copy=False)
                for name in names
            }
            # Records take their tids in order, so the rows arrive sorted
            # unless a replayed log says otherwise.
            if not np.array_equal(all_tids, expected):
                order = np.argsort(all_tids, kind="stable")
                if not np.array_equal(all_tids[order], expected):
                    raise TransactionError(
                        "insert tids are not contiguous at the table watermark "
                        "(was the WAL replayed against the wrong base state?)"
                    )
                merged = {name: column[order] for name, column in merged.items()}
            # The add-only swap is the commit's version bump.  A reader
            # sizes its status vector from its view, never from the table
            # meta, so the meta grows under in-flight reads.
            segments = tuple(self.manager.swap_partitions([
                PhysicalPartition(
                    self.manager.next_pid(),
                    [PhysicalSegment(names, expected, merged, TID_IMPLICIT)],
                )
            ], deleted=deleted))
            self._grow_meta(segments[0].zone_map)
            self._next_tid = max(self._next_tid, self.manager.tid_end)
        else:
            self.manager.advance_version(deleted)

        version = self.manager.catalog_version
        self._state = self._state.with_commit(segments, frozenset(new_tombstones))
        self._applied_lsn = max(self._applied_lsn,
                                max(r.lsn for r in records))
        self._lsn = max(self._lsn, self._applied_lsn)
        publish("txn", self)
        return version

    def record_compaction(self, state: DeltaState) -> bool:
        """Install a compaction's post-fold ``state`` as the head's (called
        by the
        :class:`~repro.txn.compactor.DeltaCompactor`, under ``write_lock``).
        When the fold left nothing outstanding the partitions alone
        reconstruct the table — a checkpoint — and the WAL is truncated;
        returns whether it was."""
        with self.write_lock:
            self._state = state
            truncated = False
            if (
                self.wal is not None
                and not state.segments
                and not state.tombstones
            ):
                self.wal.truncate_through(self._applied_lsn)
                truncated = True
            # Refresh the backlog/debt gauges right after the fold, so a
            # /healthz scrape sees the checkpoint without waiting for the
            # next commit to republish.
            publish("wal", self.wal)
            publish("txn", self)
            return truncated

    def _grow_meta(self, zones: Mapping[str, Tuple[float, float]]) -> None:
        """Widen the meta by a commit partition's ``zones`` (bounds only
        widen, so existing zone maps stay sound), count up to the
        watermark, and point the layout and engine(s) at it."""
        meta = self.meta
        if meta.n_tuples:
            zones = {
                name: (min(lo, meta.ranges[name].lo), max(hi, meta.ranges[name].hi))
                for name, (lo, hi) in zones.items()
            }
        self.meta = TableMeta.from_bounds(
            meta.name, meta.schema, self.manager.tid_end, zones
        )
        self.layout.table = self.meta
        self.layout.executor.rebind(self.meta)

    # -------------------------------------------------------------- reads

    def execute(
        self, query: Query, as_of: Optional[int] = None
    ) -> Tuple[ResultSet, ExecutionStats]:
        """Run one query at a pinned snapshot (current version by default).

        ``as_of`` pins an older retained catalog version — time travel.  The
        layout's engine scans the snapshot's partition set, commit
        partitions included, minus what the version deleted.
        """
        with request_scope(self.layout.executor.name, query):
            with self.manager.pin_snapshot(as_of) as snapshot:
                return self.layout.executor.execute(query, snapshot=snapshot)

    # ------------------------------------------------------- introspection

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = self._state
        return (
            f"TransactionalTable({self.meta.name!r}, "
            f"v{self.manager.catalog_version}, {len(state.segments)} "
            f"unfolded commit partitions, {len(state.tombstones)} tombstones)"
        )
