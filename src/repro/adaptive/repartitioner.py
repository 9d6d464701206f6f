"""Incremental re-partitioning: scoped tuner re-runs and migration plans.

Instead of re-tuning the whole table (the offline path), the
:class:`IncrementalRepartitioner` re-runs the Jigsaw tuner *scoped* to a set
of drifted partitions: the union of their logical segments becomes the input
region seeded into :meth:`~repro.core.partitioner.JigsawPartitioner.refine`.
Because the tuner's splits partition cells and its merges only regroup them,
the proposed partitions cover **exactly** the cells of the input region — no
gaps, no overlaps.  Execution resolves their boxes over the rows the scope
partitions store (a transactional table also holds committed rows, which
live in their commit partitions), so swapping them for the scope
partitions preserves Formula 4's validity constraints for the whole table.
(The hypothesis property suite in ``tests/adaptive`` checks this
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
from ..errors import AdaptationError
from ..storage.partition_manager import PartitionInfo, PartitionManager
from ..storage.physical import TID_EXPLICIT, physical_from_logical
from ..storage.table_data import ColumnTable

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
        self,
        plan: MigrationPlan,
        manager: PartitionManager,
        table: ColumnTable,
    ) -> List[PartitionInfo]:
        """Materialize and atomically swap in the migration's partitions,
        each read back before the commit.

        Raises :class:`~repro.errors.StorageError` (catalog untouched) when
        staging or verification fails, or when the swap would give a cell a
        second home; returns the new catalog entries on success.
        """
        if plan.is_empty:
            return []
        stored = np.zeros(table.n_tuples, dtype=bool)
        for pid in plan.scope_pids:
            stored[manager.info(pid).tuple_ids()] = True
        physicals = [
            physical_from_logical(partition, table, TID_EXPLICIT, rows=stored)
            for partition in plan.new_partitions
        ]
        return manager.swap_partitions(
            physicals, remove=plan.scope_pids, verify=True
        )
