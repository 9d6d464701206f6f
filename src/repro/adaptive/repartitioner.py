"""Incremental re-partitioning: scoped tuner re-runs and migration plans.

Instead of re-tuning the whole table (the offline path), the
:class:`IncrementalRepartitioner` re-runs the Jigsaw tuner *scoped* to a set
of drifted partitions: the union of their logical segments becomes the input
region seeded into :meth:`~repro.core.partitioner.JigsawPartitioner.refine`.
Because the tuner's splits partition cells and its merges only regroup them,
the proposed partitions cover **exactly** the cells of the input region — no
gaps, no overlaps.  Execution reads the rows the scope partitions store
from the store itself — the partitions it replaces are the only copy of
the table — and resolves the new boxes over them (a transactional table's
committed rows live in their commit partitions), so swapping them for the
scope partitions preserves Formula 4's validity constraints for the whole
table.  (The hypothesis property suite in ``tests/adaptive`` checks this
cell-exactness directly.)

Execution goes through :meth:`PartitionManager.swap_partitions` with fresh
pids and read-back verification: new files are staged and verified before
the versioned catalog swap, so an abort (e.g. persistent corruption under
the fault-injecting store) leaves the old layout fully intact, and in-flight
queries planned before the swap can still read the retired partitions until
:meth:`~repro.storage.partition_manager.PartitionManager.prune_retired`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..core.cost import CostModel
from ..core.partition import Partition
from ..core.partitioner import JigsawPartitioner, PartitionerConfig
from ..core.query import Workload
from ..core.segment import Segment
from ..engine.base import rows
from ..errors import AdaptationError
from ..storage.partition_manager import PartitionInfo, PartitionManager
from ..storage.physical import physical_from_logical, sorted_isin, sorted_unique

__all__ = ["MigrationPlan", "IncrementalRepartitioner"]


@dataclass(slots=True)
class MigrationPlan:
    """A proposed partition swap: retire ``scope_pids``, add ``new_partitions``.

    ``scope_bytes`` is the catalog (accounted) size of the partitions being
    replaced — since the new partitions cover exactly the same cells with the
    same tuple-id storage mode, it is also the bytes-rewritten estimate the
    daemon's per-cycle budget is checked against.
    """

    scope_pids: Tuple[int, ...]
    new_partitions: Tuple[Partition, ...]
    scope_bytes: int = 0
    #: cost-model estimate of the new partitions' size (Formula 2).
    estimated_new_bytes: float = 0.0
    #: tuner counters from the scoped refine run.
    tuner_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not self.scope_pids

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MigrationPlan({len(self.scope_pids)} partitions -> "
            f"{len(self.new_partitions)}, {self.scope_bytes} bytes)"
        )


class IncrementalRepartitioner:
    """Proposes and executes scoped layout migrations."""

    def __init__(
        self,
        cost_model: CostModel,
        config: PartitionerConfig | None = None,
    ):
        self.cost_model = cost_model
        self.config = config or PartitionerConfig()

    # ------------------------------------------------------------ propose

    def propose(
        self,
        current: Mapping[int, Partition],
        scope_pids: Sequence[int],
        window: Workload,
        next_pid: int,
    ) -> MigrationPlan:
        """Re-tune the scope's segments for ``window``; fresh pids from
        ``next_pid``.  An empty scope yields an empty (no-op) plan."""
        missing = [pid for pid in scope_pids if pid not in current]
        if missing:
            raise AdaptationError(
                f"scope references pids not in the current plan: {missing}"
            )
        scope = tuple(sorted(set(scope_pids)))
        if not scope:
            return MigrationPlan(scope_pids=(), new_partitions=())
        segments: List[Segment] = [
            segment for pid in scope for segment in current[pid].segments
        ]
        tuner = JigsawPartitioner(self.cost_model, self.config)
        groups = tuner.refine(segments, window)
        new_partitions = tuple(
            Partition(next_pid + offset, tuple(group))
            for offset, group in enumerate(groups)
            if group
        )
        estimated = sum(
            self.cost_model.sizeof_partition(partition)
            for partition in new_partitions
        )
        stats = tuner.stats
        return MigrationPlan(
            scope_pids=scope,
            new_partitions=new_partitions,
            estimated_new_bytes=estimated,
            tuner_stats={
                "n_split_evaluations": stats.n_split_evaluations,
                "n_candidates_costed": stats.n_candidates_costed,
                "n_resize_splits": stats.n_resize_splits,
                "n_merges": stats.n_merges,
                "elapsed_s": stats.elapsed_s,
            },
        )

    # ------------------------------------------------------------ execute

    def execute(
        self, plan: MigrationPlan, manager: PartitionManager
    ) -> List[PartitionInfo]:
        """Materialize and atomically swap in the migration's partitions,
        each read back before the commit.

        Pins the head and reads, from the store, the rows its scope stores
        that the view does not hide — each new segment's attributes and
        ``tight`` attributes, wherever their cells live (a horizontal split
        can tighten an attribute the segment does not store) — then
        resolves every box over those rows.  A hidden row is not rewritten:
        a budgeted fold may already have dropped its other cells, and no
        version that sees the new partitions shows it.

        Raises :class:`~repro.errors.StorageError` (catalog untouched) when
        a scope partition cannot be read, when staging or verification
        fails, or when the swap would give a cell a second home; returns
        the new catalog entries on success.
        """
        if plan.is_empty:
            return []
        names = sorted({
            name for partition in plan.new_partitions for segment in partition.segments
            for name in (*segment.attributes, *segment.tight)
        })
        with manager.pin_snapshot() as view:
            tids = sorted_unique(np.concatenate([
                view.info(pid).tuple_ids() for pid in plan.scope_pids
            ]))
            if view.hidden is not None:
                tids = tids[~sorted_isin(tids, view.hidden)]
            cells = rows(view, tids, names)
        physicals = [
            physical_from_logical(partition, tids, cells, manager.schema)
            for partition in plan.new_partitions
        ]
        return manager.swap_partitions(
            physicals, remove=plan.scope_pids, verify=True
        )
