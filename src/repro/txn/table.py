"""The transactional table: writes, snapshot reads, and time travel.

:class:`TransactionalTable` wraps one materialized layout with the write
path.  Writes buffer as typed WAL records; :meth:`commit` makes them
durable (one group-commit blob), lands inserted rows in a columnar
:class:`~repro.txn.delta.DeltaSegment`, folds deletes into the version's
tombstone set, and stamps the whole batch with a fresh catalog version via
:meth:`~repro.storage.partition_manager.PartitionManager.advance_version` —
so the catalog version is the one transaction timeline shared by writes,
adaptive swaps, and compaction.

Reads are MVCC: :meth:`execute` pins a
:class:`~repro.storage.partition_manager.CatalogSnapshot` (optionally at an
older version — ``AS OF``), runs the base engine against the snapshot's
frozen partition set, then merges the snapshot version's delta state on
top: tombstoned tids masked out, delta segments unioned in (zone-pruned
when the predicate allows, simulated device charged when not).  The merge
happens at this wrapper, uniformly above all four engines, so the base
engines stay byte-identical to seed for read-only workloads.

Tuple-id discipline: inserts take fresh tids at the high-water mark;
updates are delete + insert *under new tids* (a tid's cells are immutable
once written, which is what keeps base partitions, replicas, and zone maps
sound without rewrites).  Deleted tids stay physically present in base
partitions until a :class:`~repro.txn.compactor.DeltaCompactor` pass folds
them out.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.query import Query
from ..errors import TransactionError
from ..obs import tracer as obs_tracer
from ..plan.result import ResultSet
from ..plan.stats import ExecutionStats
from ..storage.partition_manager import CatalogSnapshot
from ..storage.table_data import ColumnTable
from .delta import DeltaState, DeltaStore
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
        delta_prefix: str = "delta/",
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
        self.delta_store = DeltaStore(self.manager, key_prefix=delta_prefix)
        #: rows [0, _base_n) were materialized into base partitions at build
        #: time; everything above arrived through the write path.
        self._base_n = data.n_tuples
        self._next_tid = data.n_tuples
        self._next_sid = 0
        self._lsn = 0  # mirrors the WAL's lsn when the WAL is disabled
        self._applied_lsn = 0
        self._pending: List[WalRecord] = []
        self._pending_doomed: set = set()
        #: version -> DeltaState; reads resolve the greatest key <= V, so
        #: versions minted by swaps/compactions between commits inherit the
        #: preceding state.
        self._states: Dict[int, DeltaState] = {
            self.manager.catalog_version: DeltaState()
        }
        self._state_versions: List[int] = [self.manager.catalog_version]
        #: compaction events: ``(version, tids_folded_into_base,
        #: base_tids_dropped)`` — the inputs to each version's base-domain
        #: valid mask.
        self._base_events: List[Tuple[int, np.ndarray, np.ndarray]] = []
        self._lock = threading.RLock()
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
        """Versions with an explicit write/compaction state, oldest first.

        Any version in ``[manager.floor_version(), current_version]`` is
        pinnable; these are the ones where the visible row set changed
        through the write path.
        """
        with self._lock:
            return tuple(self._state_versions)

    def delta_state(self, version: Optional[int] = None) -> DeltaState:
        if version is None:
            version = self.manager.catalog_version
        return self._state_at(version)

    def _state_at(self, version: int) -> DeltaState:
        with self._lock:
            index = bisect_right(self._state_versions, version) - 1
            if index < 0:
                return DeltaState()
            return self._states[self._state_versions[index]]

    # -------------------------------------------------------------- writes

    def insert(self, rows: Mapping[str, Sequence]) -> np.ndarray:
        """Buffer full rows for insertion; returns their assigned tids."""
        with self._lock:
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
        with self._lock:
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
        with self._lock:
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
        if tids is not None:
            doomed = np.unique(np.asarray(tids, dtype=np.int64))
        else:
            mask = self._visible_mask(self.manager.catalog_version)
            for name, bounds in where.items():
                lo, hi = self._bounds(bounds)
                column = self.data.column(name)[:len(mask)]
                mask &= (column >= lo) & (column <= hi)
            doomed = np.nonzero(mask)[0].astype(np.int64)
        # Statement-level visibility: targets resolve against the last
        # committed state, minus anything this batch already doomed.
        if self._pending_doomed:
            doomed = doomed[
                ~np.isin(
                    doomed,
                    np.fromiter(
                        self._pending_doomed, dtype=np.int64,
                        count=len(self._pending_doomed),
                    ),
                )
            ]
        visible = self._visible_mask(self.manager.catalog_version)
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
        with self._lock:
            return len(self._pending)

    def rollback(self) -> int:
        """Drop every buffered (uncommitted) write."""
        with self._lock:
            n = len(self._pending)
            self._pending.clear()
            self._pending_doomed.clear()
            if self.wal is not None:
                self.wal.discard_pending()
            return n

    # -------------------------------------------------------------- commit

    def commit(self) -> int:
        """Group-commit the buffered batch; returns the new catalog version.

        Ordering is the WAL contract: the batch blob lands (durability)
        *before* any in-memory state changes.  With nothing pending this is
        a no-op returning the current version.
        """
        with self._lock:
            if not self._pending:
                return self.manager.catalog_version
            records = list(self._pending)
            self._pending.clear()
            self._pending_doomed.clear()
            if self.wal is not None:
                self.wal.commit()
                self._publish_wal()
            return self._apply(records)

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
        with self._lock:
            records = [
                r for r in self.wal.replay() if r.lsn > self._applied_lsn
            ]
            if records:
                self._apply(records)
            return len(records)

    def _apply(self, records: List[WalRecord]) -> int:
        """Turn one durable batch into delta state at a fresh version."""
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

        segments = ()
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
            merged = {
                name: np.concatenate(
                    [cols[name] for cols in insert_columns]
                )[order].astype(self.schema[name].np_dtype, copy=False)
                for name in self.schema.attribute_names
            }
            # Grow the authoritative columns only when no engine is mid-scan
            # (readers size their dense arrays from the table meta once).
            with self._readers_cv:
                while self._readers:
                    self._readers_cv.wait()
                self.data.append_rows(merged)
                self._rebind_meta()
            segment = self.delta_store.write_segment(
                self._next_sid, all_tids[order], merged
            )
            self._next_sid += 1
            segments = (segment,)
            self._next_tid = max(self._next_tid, self.data.n_tuples)

        previous = self._state_at(self.manager.catalog_version)
        version = self.manager.advance_version()
        if segments:
            segments[0].version = version
        state = previous.with_commit(segments, frozenset(new_tombstones))
        self._register_state(version, state)
        self._applied_lsn = max(self._applied_lsn,
                                max(r.lsn for r in records))
        self._lsn = max(self._lsn, self._applied_lsn)
        self._publish_txn()
        return version

    def _register_state(self, version: int, state: DeltaState) -> None:
        with self._lock:
            self._states[version] = state
            index = bisect_right(self._state_versions, version)
            self._state_versions.insert(index, version)

    def record_compaction(
        self,
        version: int,
        state: DeltaState,
        folded_tids: np.ndarray,
        dropped_tids: np.ndarray,
    ) -> None:
        """Install a compaction's post-fold state (called by the
        :class:`~repro.txn.compactor.DeltaCompactor` after its swap)."""
        with self._lock:
            self._register_state(version, state)
            self._base_events.append((
                version,
                np.asarray(folded_tids, dtype=np.int64),
                np.asarray(dropped_tids, dtype=np.int64),
            ))

    def _rebind_meta(self) -> None:
        """Point the layout and engine(s) at the grown table meta."""
        meta = self.data.meta
        self.layout.table = meta
        self.layout.executor.rebind(meta)

    # ------------------------------------------------------------ pinning

    def pin(self, version: Optional[int] = None) -> CatalogSnapshot:
        """Pin a snapshot and attach the write path's base-domain mask."""
        snapshot = self.manager.pin_snapshot(version)
        snapshot.valid_mask = self._base_valid_mask(snapshot.version)
        return snapshot

    def _base_valid_mask(self, version: int) -> np.ndarray:
        """True for tids a *base* scan may return at ``version``."""
        with self._lock:
            mask = np.zeros(self.data.n_tuples, dtype=bool)
            mask[:self._base_n] = True
            for event_version, folded, dropped in self._base_events:
                if event_version > version:
                    break
                if len(folded):
                    mask[folded] = True
                if len(dropped):
                    mask[dropped] = False
            return mask

    def _visible_mask(self, version: int) -> np.ndarray:
        """True for tids visible to a query at ``version`` (base + delta -
        tombstones) — the dense reference the write oracle also checks."""
        mask = self._base_valid_mask(version)
        state = self._state_at(version)
        for segment in state.segments:
            mask[segment.tids[segment.tids < len(mask)]] = True
        tombs = state.tombstone_array()
        if len(tombs):
            mask[tombs[tombs < len(mask)]] = False
        return mask

    # -------------------------------------------------------------- reads

    def execute(
        self, query: Query, as_of: Optional[int] = None
    ) -> Tuple[ResultSet, ExecutionStats]:
        """Run one query at a pinned snapshot (current version by default).

        ``as_of`` pins an older retained catalog version — time travel.  The
        base engine scans the snapshot's partition set; tombstones are
        masked and the snapshot version's delta segments merged on top, with
        simulated I/O for non-pruned deltas charged into the same
        :class:`~repro.plan.stats.ExecutionStats` ledger.
        """
        snapshot = self.pin(as_of)
        try:
            # Resolve the frozen delta state BEFORE counting as a reader:
            # _state_at takes the table lock, and a committing writer holds
            # it while draining readers — acquiring it from inside the
            # readers section would deadlock.  The state for a pinned
            # version is immutable, so resolving early is race-free.
            state = self._state_at(snapshot.version)
            with self._readers_cv:
                self._readers += 1
            try:
                return self._execute_pinned(query, snapshot, state)
            finally:
                with self._readers_cv:
                    self._readers -= 1
                    self._readers_cv.notify_all()
        finally:
            snapshot.release()

    def _execute_pinned(
        self, query: Query, snapshot: CatalogSnapshot, state: DeltaState
    ) -> Tuple[ResultSet, ExecutionStats]:
        result, stats = self.layout.executor.execute(query, snapshot=snapshot)
        if self._base_events and len(result.tuple_ids) > 1:
            # A layout migration run after a compaction fold can place the
            # same folded tid in two base partitions (the folded partition
            # and a migrated box that matched its values).  ResultSet is
            # tid-sorted, so duplicates are adjacent.
            tids = result.tuple_ids
            dup = tids[1:] == tids[:-1]
            if dup.any():
                keep = np.ones(len(tids), dtype=bool)
                keep[1:] = ~dup
                result = ResultSet(
                    tids[keep],
                    {
                        name: values[keep]
                        for name, values in result.columns.items()
                    },
                )
        if not state.segments and not state.tombstones:
            return result, stats
        tracer = obs_tracer()
        if not tracer.enabled:
            return self._merge_deltas(query, snapshot, state, result, stats)
        with tracer.span(
            "txn.delta_merge",
            version=snapshot.version,
            n_segments=len(state.segments),
            n_tombstones=len(state.tombstones),
        ):
            return self._merge_deltas(query, snapshot, state, result, stats)

    def _merge_deltas(
        self,
        query: Query,
        snapshot: CatalogSnapshot,
        state: DeltaState,
        result: ResultSet,
        stats: ExecutionStats,
    ) -> Tuple[ResultSet, ExecutionStats]:
        projected = tuple(query.select)
        tombs = state.tombstone_array()
        tuple_ids = result.tuple_ids
        columns = result.columns
        if len(tuple_ids):
            keep = np.ones(len(tuple_ids), dtype=bool)
            if len(tombs):
                keep &= ~np.isin(tuple_ids, tombs)
            if state.segments:
                # Delta-owned tids are served from their segments below; a
                # base partition may also hold them (a layout migration that
                # ran on a dirty delta state absorbs appended rows), so drop
                # them here to keep the merge duplicate-free either way.
                owned = np.concatenate(
                    [segment.tids for segment in state.segments]
                )
                keep &= ~np.isin(tuple_ids, owned)
            if not keep.all():
                tuple_ids = tuple_ids[keep]
                columns = {
                    name: values[keep] for name, values in columns.items()
                }

        extra_tids: List[np.ndarray] = []
        extra_columns: Dict[str, List[np.ndarray]] = {
            name: [] for name in projected
        }
        for segment in state.segments:
            pruned = False
            for name, bounds in query.where.items():
                lo, hi = self._bounds(bounds)
                if segment.zone_disjoint(name, lo, hi):
                    pruned = True
                    break
            if pruned:
                stats.n_partitions_skipped += 1
                stats.n_partitions_pruned += 1
                continue
            stats.accrue_io(self.delta_store.charge_read(segment))
            stats.n_partition_reads += 1
            mask = np.ones(segment.n_tuples, dtype=bool)
            for name, bounds in query.where.items():
                lo, hi = self._bounds(bounds)
                column = segment.columns[name]
                mask &= (column >= lo) & (column <= hi)
                stats.cells_scanned += segment.n_tuples
            if len(tombs):
                mask &= ~np.isin(segment.tids, tombs)
            hits = np.nonzero(mask)[0]
            if not len(hits):
                continue
            extra_tids.append(segment.tids[hits])
            for name in projected:
                extra_columns[name].append(segment.columns[name][hits])
                stats.cells_gathered += len(hits)

        if extra_tids:
            tuple_ids = np.concatenate([tuple_ids, *extra_tids])
            columns = {
                name: np.concatenate(
                    [columns[name], *extra_columns[name]]
                )
                for name in projected
            }
        merged = ResultSet(tuple_ids, columns)
        stats.n_result_tuples = merged.n_tuples
        cpu_model = self.layout.executor.cpu_model
        if cpu_model is not None:
            # Re-price the (now larger) event counters into simulated CPU
            # seconds — charge_cpu recomputes from counters, so this stays
            # exact rather than additive.
            stats.charge_cpu(cpu_model)
        return merged, stats

    # ------------------------------------------------------------- obs

    def _publish_wal(self) -> None:
        try:
            from ..obs import publish_wal
        except ImportError:  # pragma: no cover - obs always ships
            return
        publish_wal(self.wal)

    def _publish_txn(self) -> None:
        try:
            from ..obs import publish_txn
        except ImportError:  # pragma: no cover - obs always ships
            return
        publish_txn(self)

    # ------------------------------------------------------- introspection

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = self._state_at(self.manager.catalog_version)
        return (
            f"TransactionalTable({self.data.meta.name!r}, "
            f"v{self.manager.catalog_version}, {len(state.segments)} delta "
            f"segments, {len(state.tombstones)} tombstones)"
        )
