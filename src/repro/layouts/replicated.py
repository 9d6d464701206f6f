"""Irregular layout with limited cell replication ("Irregular+R").

Tunes the standard Jigsaw irregular plan, runs the
:class:`~repro.core.replication.ReplicationAdvisor` over the training
workload against a staging catalog of that plan, and stores each partition
— chosen replica segments included — once.  Queries the advisor managed to
localize are evaluated partition-locally (no predicate-only partitions, no
reconstruction hash table); everything else falls back to the standard
partition-at-a-time engine.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.cost import CostModel
from ..core.partition import PartitioningPlan
from ..core.query import Workload
from ..core.replication import ReplicationAdvisor, ReplicationConfig
from ..engine.replicated import ReplicatedExecutor
from ..storage.partition_manager import PartitionManager
from ..storage.physical import TID_EXPLICIT, physical_from_logical
from ..storage.table_data import ColumnTable
from .base import BuildContext
from .irregular import IrregularLayout

__all__ = ["ReplicatedIrregularLayout"]


class ReplicatedIrregularLayout(IrregularLayout):
    """Jigsaw + the paper's limited-replication future-work extension.

    On a columnar fallback there is nothing to replicate; the fallback
    layout is returned under this builder's name.
    """

    name = "Irregular+R"

    def __init__(
        self,
        replication: ReplicationConfig | None = None,
        selection_enabled: bool = True,
        zone_maps: bool = False,
    ):
        super().__init__(selection_enabled=selection_enabled, zone_maps=zone_maps)
        self.replication = replication or ReplicationConfig()

    def _materialize(
        self,
        manager: PartitionManager,
        plan: PartitioningPlan,
        table: ColumnTable,
        train: Workload,
        ctx: BuildContext,
    ) -> Dict[str, Any]:
        physicals = [
            physical_from_logical(partition, table, TID_EXPLICIT)
            for partition in plan
        ]
        # The advisor prices replicas against the catalog of the
        # unreplicated plan; a throw-away manager provides it, so the real
        # one stores every partition once, replicas and sketches included.
        staging, _device = ctx.make_manager(table.meta)
        staging.materialize(physicals)
        cost_model = CostModel(
            table.meta,
            ctx.device_profile.io_model,
            memory_model=ctx.memory_model,
            page_size=ctx.file_segment_bytes,
        )
        advisor = ReplicationAdvisor(cost_model, self.replication)
        report = advisor.plan(staging, table, train)
        advisor.apply({p.pid: p for p in physicals}, table, report)
        manager.materialize(physicals, ctx.sketcher(table, train))
        return {"replication": report}

    def _executor(
        self, manager: PartitionManager, table: ColumnTable, ctx: BuildContext
    ):
        return ReplicatedExecutor(
            manager, table.meta, cpu_model=ctx.cpu_model,
            zone_maps=self.zone_maps, prefetch_depth=ctx.prefetch_depth,
        )
