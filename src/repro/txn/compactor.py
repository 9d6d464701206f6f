"""Delta compaction: rewrite tombstone-dirty partitions without their dead rows.

The :class:`DeltaCompactor` is the write path's counterpart to the adaptive
daemon's scoped migrations, and it rides the same machinery.  A commit's
rows already are the full-schema partition a fold used to rewrite them
into, so a pass has one kind of work: rebuild the *dirty* partitions (any
partition holding deleted tuples, commit partitions included) without their
dead rows and land them through one atomic, verified
:meth:`~repro.storage.partition_manager.PartitionManager.swap_partitions` —
abort-safe and versioned exactly like a layout migration; pinned older
snapshots keep reading the retired files until
:meth:`~repro.storage.partition_manager.PartitionManager.prune_retired`
reclaims them.  A commit partition with no dead row is *folded* by leaving
it where it is.

Work is greedily packed under a bytes-rewritten budget (the same notion as
the daemon's ``bytes_budget_per_cycle``), dirtiest partition first.  A
partial pass leaves the commit partitions it deferred and the unresolved
tombstones in the post-compaction :class:`~repro.txn.delta.DeltaState`, to
be picked up by the next cycle; a tombstone is resolved only once *every*
partition holding its tuple has been rewritten (on an irregular layout a
tuple's cells span several).  Reads stay exact throughout: visibility is
the version's tid mask, which a compaction never changes.

The WAL is truncated only when compaction leaves the delta state fully
empty — the checkpoint rule of
:meth:`~repro.txn.table.TransactionalTable.record_compaction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import TransactionError
from ..obs import request_scope
from ..obs import tracer as obs_tracer
from ..storage.physical import (
    TID_EXPLICIT,
    SegmentSpec,
    build_physical_partition,
    sorted_isin,
)
from .delta import DeltaState

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


class DeltaCompactor:
    """Folds tombstones out of the partitions that hold deleted rows."""

    def __init__(
        self,
        table,
        bytes_budget: Optional[int] = None,
        verify: bool = True,
    ):
        if bytes_budget is not None and bytes_budget <= 0:
            raise TransactionError("compaction bytes_budget must be positive")
        self.table = table
        self.manager = table.manager
        self.bytes_budget = bytes_budget
        self.verify = verify

    # ------------------------------------------------------------- planning

    def _plan(
        self, tombs: np.ndarray
    ) -> Tuple[List[int], List[int], Dict[int, np.ndarray]]:
        """``(scope, deferred, dead)``: the dirty partitions, dirtiest
        first, split by what fits the budget, and each one's dead tuple IDs
        (ascending) — the only tombstones the rest of the pass tests.
        ``tombs`` is the state's ascending tombstone array."""
        dead: Dict[int, np.ndarray] = {}
        for pid in self.manager.pids():
            held = self.manager.info(pid).tuple_ids()
            dead_here = held[sorted_isin(held, tombs)]
            if len(dead_here):
                dead[pid] = dead_here
        dirty = sorted(dead, key=lambda pid: (-len(dead[pid]), pid))
        budget_left = (
            float("inf") if self.bytes_budget is None else self.bytes_budget
        )
        scope: List[int] = []
        deferred: List[int] = []
        for pid in dirty:
            n_bytes = self.manager.info(pid).n_bytes
            if n_bytes <= budget_left:
                scope.append(pid)
                budget_left -= n_bytes
            else:
                deferred.append(pid)
        return scope, deferred, dead

    # ------------------------------------------------------------ execution

    def run(self) -> CompactionReport:
        """One compaction pass over the current committed delta state."""
        with request_scope("txn.compaction") as scope, obs_tracer().span(
            "txn.compaction"
        ) as span:
            report = self._run()
            if not report.is_empty:
                span.set(
                    version=report.version,
                    bytes_rewritten=report.bytes_rewritten,
                    n_segments_folded=report.n_segments_folded,
                )
                scope.complete(
                    table=self.manager.key_prefix,
                    catalog_version=report.version,
                )
            return report

    def _run(self) -> CompactionReport:
        table = self.table
        with table.write_lock:
            state = table.delta_state()
            if not state.segments and not state.tombstones:
                return CompactionReport()
            tombs = state.tombstone_array()
            scope, deferred, dead = self._plan(tombs)
            # A commit partition stays a segment only while it waits for
            # the rewrite that drops its dead rows.
            remaining_segments = tuple(
                segment for segment in state.segments
                if segment.pid in deferred
            )
            if not scope and deferred:
                return CompactionReport(
                    n_segments_deferred=len(remaining_segments),
                    n_partitions_deferred=len(deferred),
                )

            physicals = []
            n_dropped = 0
            next_pid = self.manager.next_pid()
            for pid in scope:
                info = self.manager.info(pid)
                dead_here = dead[pid]
                n_dropped += len(dead_here)
                specs = []
                for attrs, seg_tids in zip(info.segment_attrs, info.segment_tids):
                    live = seg_tids[~sorted_isin(seg_tids, dead_here)]
                    if len(live):
                        specs.append(SegmentSpec(
                            attributes=tuple(attrs), tuple_ids=live
                        ))
                if specs:
                    physicals.append(build_physical_partition(
                        next_pid, specs, table.data, TID_EXPLICIT,
                    ))
                    next_pid += 1

            # A tombstone whose tuple a deferred partition still holds must
            # outlive this pass: it is what marks that partition dirty for
            # the next one.
            remaining_tombstones: set = set()
            for pid in deferred:
                remaining_tombstones.update(dead[pid].tolist())

            if scope:
                infos = self.manager.swap_partitions(
                    physicals, remove=scope, verify=self.verify
                )
            else:  # only clean commit partitions to fold: nothing to write
                infos = []
                self.manager.advance_version()
            truncated = table.record_compaction(DeltaState(
                remaining_segments,
                frozenset(remaining_tombstones),
                state.visible,
            ))
            return CompactionReport(
                version=self.manager.catalog_version,
                scope_pids=tuple(scope),
                n_new_partitions=len(infos),
                n_segments_folded=(
                    len(state.segments) - len(remaining_segments)
                ),
                n_tombstones_removed=(
                    len(state.tombstones) - len(remaining_tombstones)
                ),
                n_tuples_dropped=n_dropped,
                bytes_rewritten=sum(info.n_bytes for info in infos),
                n_segments_deferred=len(remaining_segments),
                n_partitions_deferred=len(deferred),
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
