"""Delta compaction: fold committed writes back into base partitions.

The :class:`DeltaCompactor` is the write path's counterpart to the adaptive
daemon's scoped migrations, and it rides the same machinery: it rebuilds the
*touched* base partitions (those holding tombstoned tuples) without their
dead rows, materializes each folded delta segment as a new base partition
covering the full schema for its live tids, and lands everything through one
atomic, verified :meth:`~repro.storage.partition_manager.PartitionManager.
swap_partitions` — so a compaction is abort-safe and versioned exactly like
a layout migration, and pinned older snapshots keep reading the retired
files until :meth:`prune_retired`.

Work is greedily packed under a bytes-rewritten budget (the same notion as
the daemon's ``bytes_budget_per_cycle``): delta segments first (each one
folded removes a per-scan blob read for every future query), then
tombstone-dirty partitions by dead-row count.  A partial pass leaves the
unfolded segments and unresolved tombstones in the post-compaction
:class:`~repro.txn.delta.DeltaState`, to be picked up by the next cycle; a
tombstone is resolved only once *every* partition holding its tuple has been
rewritten (on an irregular layout a tuple's cells span several).

Folded segments' blobs are *retained*: older pinned versions and ``AS OF``
reads still merge them.  The WAL is truncated only when compaction leaves
the delta state fully empty — that is the one point where the base blobs
alone reconstruct the table, i.e. a checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import TransactionError
from ..obs import tracer as obs_tracer
from ..storage.physical import TID_EXPLICIT, SegmentSpec, build_physical_partition
from .delta import DeltaSegment, DeltaState

__all__ = ["CompactionReport", "DeltaCompactor"]


@dataclass(slots=True)
class CompactionReport:
    """What one compaction pass did (all sizes in accounted bytes)."""

    version: int = -1
    scope_pids: Tuple[int, ...] = ()
    n_new_partitions: int = 0
    n_segments_folded: int = 0
    n_tombstones_removed: int = 0
    n_tuples_dropped: int = 0
    bytes_rewritten: int = 0
    #: work skipped because it did not fit the budget this pass.
    n_segments_deferred: int = 0
    n_partitions_deferred: int = 0
    wal_truncated: bool = False

    @property
    def is_empty(self) -> bool:
        return self.version < 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "scope_pids": list(self.scope_pids),
            "n_new_partitions": self.n_new_partitions,
            "n_segments_folded": self.n_segments_folded,
            "n_tombstones_removed": self.n_tombstones_removed,
            "n_tuples_dropped": self.n_tuples_dropped,
            "bytes_rewritten": self.bytes_rewritten,
            "n_segments_deferred": self.n_segments_deferred,
            "n_partitions_deferred": self.n_partitions_deferred,
            "wal_truncated": self.wal_truncated,
        }


@dataclass(slots=True)
class _Plan:
    fold_segments: List[DeltaSegment] = field(default_factory=list)
    defer_segments: List[DeltaSegment] = field(default_factory=list)
    scope_pids: List[int] = field(default_factory=list)
    defer_pids: List[int] = field(default_factory=list)
    budget_left: float = float("inf")


class DeltaCompactor:
    """Folds delta segments and tombstones into base partitions."""

    def __init__(
        self,
        table,
        bytes_budget: Optional[int] = None,
        tid_storage: str = TID_EXPLICIT,
        verify: bool = True,
    ):
        if bytes_budget is not None and bytes_budget <= 0:
            raise TransactionError("compaction bytes_budget must be positive")
        self.table = table
        self.manager = table.manager
        self.bytes_budget = bytes_budget
        self.tid_storage = tid_storage
        self.verify = verify

    # ------------------------------------------------------------- planning

    def _plan(self, state: DeltaState) -> _Plan:
        plan = _Plan()
        if self.bytes_budget is not None:
            plan.budget_left = float(self.bytes_budget)
        # Delta segments first: folding one saves a blob read on every
        # subsequent scan, the best bytes-rewritten-per-benefit ratio.
        for segment in state.segments:
            if segment.n_bytes <= plan.budget_left:
                plan.fold_segments.append(segment)
                plan.budget_left -= segment.n_bytes
            else:
                plan.defer_segments.append(segment)
        tombs = state.tombstone_array()
        if not len(tombs):
            return plan
        dirty: List[Tuple[int, int, int]] = []  # (n_dead, n_bytes, pid)
        for pid in self.manager.pids():
            info = self.manager.info(pid)
            n_dead = int(np.isin(info.tuple_ids(), tombs).sum())
            if n_dead:
                dirty.append((n_dead, info.n_bytes, pid))
        dirty.sort(key=lambda item: (-item[0], item[2]))
        for n_dead, n_bytes, pid in dirty:
            if n_bytes <= plan.budget_left:
                plan.scope_pids.append(pid)
                plan.budget_left -= n_bytes
            else:
                plan.defer_pids.append(pid)
        return plan

    # ------------------------------------------------------------ execution

    def run(self) -> CompactionReport:
        """One compaction pass over the current committed delta state."""
        tracer = obs_tracer()
        if not tracer.enabled:
            return self._run()
        with tracer.span("txn.compaction") as span:
            report = self._run()
            if not report.is_empty:
                span.set(
                    version=report.version,
                    bytes_rewritten=report.bytes_rewritten,
                    n_segments_folded=report.n_segments_folded,
                )
            return report

    def _run(self) -> CompactionReport:
        table = self.table
        with table._lock:
            state = table.delta_state()
            if not state.segments and not state.tombstones:
                return CompactionReport()
            plan = self._plan(state)
            if not plan.fold_segments and not plan.scope_pids:
                return CompactionReport(
                    n_segments_deferred=len(plan.defer_segments),
                    n_partitions_deferred=len(plan.defer_pids),
                )
            tombs = state.tombstone_array()

            physicals = []
            folded_tids: List[np.ndarray] = []
            removed_tombstones: set = set()
            n_dropped = 0
            next_pid = self.manager.next_pid()
            schema_attrs = tuple(table.schema.attribute_names)
            # A layout migration run while deltas were outstanding may have
            # absorbed appended rows into base partitions already; folding
            # those again would double-place their tids.  They only need the
            # base-validity event, not a new partition.
            covered = np.zeros(table.data.n_tuples, dtype=bool)
            for pid in self.manager.pids():
                covered[self.manager.info(pid).tuple_ids()] = True
            for segment in plan.fold_segments:
                dead = np.isin(segment.tids, tombs)
                removed_tombstones.update(
                    int(t) for t in segment.tids[dead]
                )
                live = segment.tids[~dead]
                if not len(live):
                    continue
                folded_tids.append(live)
                fresh = live[~covered[live]]
                if not len(fresh):
                    continue
                physicals.append(build_physical_partition(
                    next_pid,
                    [SegmentSpec(attributes=schema_attrs, tuple_ids=fresh)],
                    table.data,
                    self.tid_storage,
                ))
                next_pid += 1
            dropped_tids: List[np.ndarray] = []
            for pid in plan.scope_pids:
                info = self.manager.info(pid)
                dead_here = info.tuple_ids()[
                    np.isin(info.tuple_ids(), tombs)
                ]
                removed_tombstones.update(int(t) for t in dead_here)
                dropped_tids.append(dead_here)
                n_dropped += len(dead_here)
                specs = []
                for attrs, seg_tids, replica in zip(
                    info.segment_attrs, info.segment_tids,
                    info.segment_replicas,
                ):
                    if replica:
                        continue
                    live = seg_tids[~np.isin(seg_tids, tombs)]
                    if len(live):
                        specs.append(SegmentSpec(
                            attributes=tuple(attrs), tuple_ids=live
                        ))
                if specs:
                    physicals.append(build_physical_partition(
                        next_pid, specs, table.data, self.tid_storage,
                    ))
                    next_pid += 1

            # A tombstone whose tuple a deferred partition still holds must
            # outlive this pass: it is what marks that partition dirty for
            # the next one.  Reads stay exact meanwhile — the tuple's
            # base-validity drop below makes the engines skip it even
            # though only some of its cells are gone.
            for pid in plan.defer_pids:
                held = self.manager.info(pid).tuple_ids()
                removed_tombstones.difference_update(
                    held[np.isin(held, tombs)].tolist()
                )

            infos = self.manager.swap_partitions(
                physicals, remove=plan.scope_pids, verify=self.verify
            )
            version = self.manager.catalog_version

            remaining_segments = tuple(
                s for s in state.segments if s not in set(plan.fold_segments)
            )
            remaining_tombstones = frozenset(
                state.tombstones - removed_tombstones
            )
            new_state = DeltaState(remaining_segments, remaining_tombstones)
            table.record_compaction(
                version,
                new_state,
                np.concatenate(folded_tids)
                if folded_tids else np.empty(0, np.int64),
                np.concatenate(dropped_tids)
                if dropped_tids else np.empty(0, np.int64),
            )

            truncated = False
            if (
                table.wal is not None
                and not remaining_segments
                and not remaining_tombstones
            ):
                # Checkpoint: base blobs alone now reconstruct the table.
                table.wal.truncate_through(table._applied_lsn)
                truncated = True

            # Refresh the backlog/delta gauges right after the fold, so a
            # /healthz scrape sees the checkpoint without waiting for the
            # next commit to republish.
            table._publish_wal()
            table._publish_txn()

            return CompactionReport(
                version=version,
                scope_pids=tuple(plan.scope_pids),
                n_new_partitions=len(infos),
                n_segments_folded=len(plan.fold_segments),
                n_tombstones_removed=len(removed_tombstones),
                n_tuples_dropped=n_dropped,
                bytes_rewritten=sum(info.n_bytes for info in infos),
                n_segments_deferred=len(plan.defer_segments),
                n_partitions_deferred=len(plan.defer_pids),
                wal_truncated=truncated,
            )

    def run_until_clean(self, max_passes: int = 32) -> List[CompactionReport]:
        """Repeat budgeted passes until the delta state is empty (or no
        progress is possible under the budget)."""
        reports: List[CompactionReport] = []
        for _ in range(max_passes):
            report = self.run()
            if report.is_empty:
                break
            reports.append(report)
            state = self.table.delta_state()
            if not state.segments and not state.tombstones:
                break
            if report.n_segments_folded == 0 and not report.scope_pids:
                break  # budget too small for any remaining unit of work
        return reports
