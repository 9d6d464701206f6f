"""The transactional table: writes, snapshot reads, and time travel.

:class:`TransactionalTable` wraps one materialized layout with the write
path.  Writes buffer as typed WAL records; :meth:`commit` makes them
durable (one group-commit blob), writes the batch's inserted rows once, as
one ordinary partition (a single full-schema segment over the fresh tids)
landed through an add-only
:meth:`~repro.storage.partition_manager.PartitionManager.swap_partitions` —
which is the commit's version bump; a delete-only batch calls
:meth:`~repro.storage.partition_manager.PartitionManager.advance_version`
instead — and folds deletes into the version's tombstone set.  The catalog
version is the one transaction timeline shared by writes, adaptive swaps,
and compaction.

Reads are MVCC: :meth:`execute` pins a
:class:`~repro.storage.partition_manager.CatalogSnapshot` (optionally at an
older version — ``AS OF``) and runs the layout's engine against it.  The
snapshot's frozen partition set already holds that version's commit
partitions, so committed rows take the one read path every partition takes
(planner access lists, zone maps, the manager's retry/CRC/buffer-pool load,
degraded reads); the only thing the write path adds is what the version's
visibility mask hides, ``snapshot.hidden`` (see :mod:`repro.txn.delta`).

Tuple-id discipline: inserts take fresh tids at the high-water mark;
updates are delete + insert *under new tids* (a tid's cells are immutable
once written, which is what keeps partitions and zone maps sound
without rewrites).  Deleted tids stay physically present until a
:class:`~repro.txn.compactor.DeltaCompactor` pass folds them out.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.query import Query
from ..errors import TransactionError
from ..obs import publish, request_scope
from ..plan.result import ResultSet
from ..plan.stats import ExecutionStats
from ..storage.partition_manager import CatalogSnapshot
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
        data: ColumnTable,
        wal_enabled: bool = True,
        wal_prefix: str = "wal/",
    ):
        self.layout = layout
        self.manager = layout.manager
        self.data = data
        self.wal: Optional[WriteAheadLog] = (
            WriteAheadLog(
                self.manager.store,
                data.schema,
                key_prefix=wal_prefix,
                retry_policy=self.manager.retry_policy,
            )
            if wal_enabled else None
        )
        self._next_tid = data.n_tuples
        self._lsn = 0  # mirrors the WAL's lsn when the WAL is disabled
        self._applied_lsn = 0
        self._pending: List[WalRecord] = []
        self._pending_doomed: set = set()
        #: version -> DeltaState; reads resolve the greatest key <= V, so
        #: versions minted by layout migrations between commits inherit the
        #: preceding state.  States wholly below the manager's floor version
        #: are dropped as new ones register.
        self._states: Dict[int, DeltaState] = {
            self.manager.catalog_version: DeltaState(
                (), frozenset(), np.ones(data.n_tuples, dtype=bool)
            )
        }
        self._state_versions: List[int] = [self.manager.catalog_version]
        #: serializes commits and compaction passes (a compactor holds it
        #: from reading the state to :meth:`record_compaction`).
        self.write_lock = threading.RLock()
        # Commit's meta rebind + column growth wait out in-flight reads so a
        # mid-scan engine never sees the tuple domain move under it.
        self._readers = 0
        self._readers_cv = threading.Condition()

    # ---------------------------------------------------------- properties

    @property
    def schema(self):
        return self.data.schema

    @property
    def current_version(self) -> int:
        return self.manager.catalog_version

    def versions(self) -> Tuple[int, ...]:
        """Pinnable versions with an explicit write/compaction state,
        oldest first.

        Any version in ``[manager.floor_version(), current_version]`` is
        pinnable; these are the ones where the visible row set changed
        through the write path.
        """
        floor = self.manager.floor_version()
        with self.write_lock:
            return tuple(v for v in self._state_versions if v >= floor)

    def delta_state(self, version: Optional[int] = None) -> DeltaState:
        if version is None:
            version = self.manager.catalog_version
        return self._state_at(version)

    def _state_at(self, version: int) -> DeltaState:
        with self.write_lock:
            index = bisect_right(self._state_versions, version) - 1
            return self._states[self._state_versions[max(index, 0)]]

    # -------------------------------------------------------------- writes

    def insert(self, rows: Mapping[str, Sequence]) -> np.ndarray:
        """Buffer full rows for insertion; returns their assigned tids."""
        with self.write_lock:
            columns = {
                name: np.asarray(rows[name]) if name in rows else None
                for name in self.schema.attribute_names
            }
            missing = [n for n, v in columns.items() if v is None]
            if missing:
                raise TransactionError(f"insert missing attributes: {missing}")
            lengths = {len(v) for v in columns.values()}
            if len(lengths) != 1:
                raise TransactionError(
                    f"insert columns disagree on length: {sorted(lengths)}"
                )
            n = lengths.pop()
            tids = np.arange(
                self._next_tid, self._next_tid + n, dtype=np.int64
            )
            self._next_tid += n
            self._append_record(KIND_INSERT, tids, columns)
            return tids

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
                self._append_record(KIND_DELETE, doomed)
                self._pending_doomed.update(int(t) for t in doomed)
            return doomed

    def update(
        self,
        assignments: Mapping[str, object],
        tids: Optional[Sequence[int]] = None,
        where: Optional[Mapping] = None,
    ) -> np.ndarray:
        """Buffer updates (delete + insert under fresh tids); returns the
        *new* tids carrying the updated rows."""
        bad = [n for n in assignments if n not in self.schema.attribute_names]
        if bad:
            raise TransactionError(f"update assigns unknown attributes: {bad}")
        with self.write_lock:
            doomed = self._resolve_targets(tids, where)
            if not len(doomed):
                return np.empty(0, dtype=np.int64)
            columns = self.data.gather(self.schema.attribute_names, doomed)
            for name, value in assignments.items():
                replacement = np.asarray(value)
                if replacement.ndim == 0:
                    replacement = np.full(
                        len(doomed), value,
                        dtype=self.data.column(name).dtype,
                    )
                columns[name] = replacement
            new_tids = np.arange(
                self._next_tid, self._next_tid + len(doomed), dtype=np.int64
            )
            self._next_tid += len(doomed)
            self._append_record(
                KIND_UPDATE, new_tids, columns, old_tids=doomed
            )
            self._pending_doomed.update(int(t) for t in doomed)
            return new_tids

    def _resolve_targets(
        self, tids: Optional[Sequence[int]], where: Optional[Mapping]
    ) -> np.ndarray:
        if (tids is None) == (where is None):
            raise TransactionError("pass exactly one of tids= or where=")
        visible = self._visible_mask(self.manager.catalog_version)
        if tids is not None:
            doomed = sorted_unique(np.asarray(tids, dtype=np.int64))
        else:
            assert where is not None  # exactly one of the two, checked above
            mask = visible.copy()
            for name, bounds in where.items():
                lo, hi = self._bounds(bounds)
                column = self.data.column(name)[:len(mask)]
                mask &= (column >= lo) & (column <= hi)
            doomed = np.nonzero(mask)[0].astype(np.int64)
        # Statement-level visibility: targets resolve against the last
        # committed state, minus anything this batch already doomed.
        if self._pending_doomed:
            pending = np.sort(np.fromiter(
                self._pending_doomed, dtype=np.int64,
                count=len(self._pending_doomed),
            ))
            doomed = doomed[~sorted_isin(doomed, pending)]
        out_of_range = doomed[(doomed < 0) | (doomed >= len(visible))]
        if len(out_of_range):
            raise TransactionError(
                f"tids {out_of_range[:5].tolist()} are not committed rows"
            )
        return doomed[visible[doomed]]

    @staticmethod
    def _bounds(bounds) -> Tuple[float, float]:
        if hasattr(bounds, "lo"):
            return float(bounds.lo), float(bounds.hi)
        lo, hi = bounds
        return float(lo), float(hi)

    def _append_record(
        self,
        kind: str,
        tids: np.ndarray,
        columns: Optional[Mapping[str, np.ndarray]] = None,
        old_tids: Optional[np.ndarray] = None,
    ) -> WalRecord:
        if columns is not None:
            columns = {
                name: np.asarray(columns[name]).astype(
                    self.schema[name].np_dtype, copy=False
                )
                for name in self.schema.attribute_names
            }
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
            self._next_tid = self.data.n_tuples
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
        """Turn one durable batch into a partition (its inserted rows) and
        a :class:`DeltaState` at a fresh version.  The partition put is the
        only step that can fail, and it comes first."""
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

        previous = self._state_at(self.manager.catalog_version)
        segments: Tuple = ()
        if insert_tids:
            all_tids = np.concatenate(insert_tids)
            expected = np.arange(
                self.data.n_tuples, self.data.n_tuples + len(all_tids),
                dtype=np.int64,
            )
            if not np.array_equal(np.sort(all_tids), expected):
                raise TransactionError(
                    "insert tids are not contiguous at the table watermark "
                    "(was the WAL replayed against the wrong base state?)"
                )
            order = np.argsort(all_tids, kind="stable")
            names = tuple(self.schema.attribute_names)
            merged = {
                name: np.concatenate(
                    [cols[name] for cols in insert_columns]
                )[order].astype(self.schema[name].np_dtype, copy=False)
                for name in names
            }
            # The add-only swap is the commit's version bump.  Readers that
            # pin the new version resolve its state under ``write_lock``,
            # i.e. only once the tuple domain below has grown.
            segments = tuple(self.manager.swap_partitions([
                PhysicalPartition(
                    self.manager.next_pid(),
                    [PhysicalSegment(names, expected, merged, TID_IMPLICIT)],
                )
            ]))
            # Grow the authoritative columns only when no engine is mid-scan
            # (readers size their dense arrays from the table meta once).
            with self._readers_cv:
                while self._readers:
                    self._readers_cv.wait()
                self.data.append_rows(merged)
                self._rebind_meta()
            self._next_tid = max(self._next_tid, self.data.n_tuples)
        else:
            self.manager.advance_version()

        version = self.manager.catalog_version
        self._register_state(version, previous.with_commit(
            segments, frozenset(new_tombstones), self.data.n_tuples
        ))
        self._applied_lsn = max(self._applied_lsn,
                                max(r.lsn for r in records))
        self._lsn = max(self._lsn, self._applied_lsn)
        publish("txn", self)
        return version

    def _register_state(self, version: int, state: DeltaState) -> None:
        with self.write_lock:
            self._states[version] = state
            self._state_versions.append(version)
            # A version below the floor can never be pinned again: keep the
            # newest state at or below it (later versions may inherit it).
            stale = bisect_right(
                self._state_versions, self.manager.floor_version()
            ) - 1
            for old in self._state_versions[:max(stale, 0)]:
                del self._states[old]
            del self._state_versions[:max(stale, 0)]

    def record_compaction(self, state: DeltaState) -> bool:
        """Install a compaction's post-fold ``state`` at the version its
        swap just minted (called by the
        :class:`~repro.txn.compactor.DeltaCompactor`, under ``write_lock``).
        When the fold left nothing outstanding the partitions alone
        reconstruct the table — a checkpoint — and the WAL is truncated;
        returns whether it was."""
        with self.write_lock:
            self._register_state(self.manager.catalog_version, state)
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

    def _rebind_meta(self) -> None:
        """Point the layout and engine(s) at the grown table meta."""
        meta = self.data.meta
        self.layout.table = meta
        self.layout.executor.rebind(meta)

    # ------------------------------------------------------------ pinning

    def _pin_state(
        self, version: Optional[int]
    ) -> Tuple[CatalogSnapshot, DeltaState]:
        """Pin ``version`` and resolve its write-path state.  The state is
        immutable, but resolving it takes the write lock, which a committing
        writer holds while it drains readers: it is resolved here, before
        the caller may count as a reader, never from inside the readers
        section."""
        snapshot = self.manager.pin_snapshot(version)
        return snapshot, self._state_at(snapshot.version)

    def pin(self, version: Optional[int] = None) -> CatalogSnapshot:
        """Pin a snapshot and attach what the version hides."""
        snapshot, state = self._pin_state(version)
        snapshot.hidden = state.hidden(self.data.n_tuples)
        return snapshot

    def _visible_mask(self, version: int) -> np.ndarray:
        """True for tids visible to a query at ``version`` (read-only) — the
        dense reference the write oracle also checks."""
        return self._state_at(version).visible

    # -------------------------------------------------------------- reads

    def execute(
        self, query: Query, as_of: Optional[int] = None
    ) -> Tuple[ResultSet, ExecutionStats]:
        """Run one query at a pinned snapshot (current version by default).

        ``as_of`` pins an older retained catalog version — time travel.  The
        layout's engine scans the snapshot's partition set, commit
        partitions included, under the version's visibility mask.
        """
        with request_scope(self.layout.executor.name, query):
            snapshot, state = self._pin_state(as_of)
            with snapshot:
                with self._readers_cv:
                    self._readers += 1
                try:
                    # The tuple domain cannot grow while this thread counts
                    # as a reader, so the hidden tids are taken over the
                    # domain the engine will see.
                    snapshot.hidden = state.hidden(self.data.n_tuples)
                    return self.layout.executor.execute(query, snapshot=snapshot)
                finally:
                    with self._readers_cv:
                        self._readers -= 1
                        self._readers_cv.notify_all()

    # ------------------------------------------------------- introspection

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = self._state_at(self.manager.catalog_version)
        return (
            f"TransactionalTable({self.data.meta.name!r}, "
            f"v{self.manager.catalog_version}, {len(state.segments)} "
            f"unfolded commit partitions, {len(state.tombstones)} tombstones)"
        )
