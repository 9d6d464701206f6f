"""The Jigsaw irregular layout (the paper's contribution as a layout).

Runs the three-phase tuner (Algorithm 2), materializes the chosen plan with
explicit tuple IDs (Jigsaw's storage overhead), and attaches the
partition-at-a-time engine.  When the tuner's selection phase falls back to
the columnar layout, this builder delegates to :class:`ColumnLayout` — that
is the "Jigsaw mark" behaviour of Figure 6.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.cost import CostModel
from ..core.partition import PartitioningPlan
from ..core.partitioner import JigsawPartitioner, PartitionerConfig
from ..core.query import Workload
from ..engine.partition_at_a_time import PartitionAtATimeExecutor
from ..storage.partition_manager import PartitionManager
from ..storage.physical import TID_EXPLICIT
from ..storage.table_data import ColumnTable
from .base import BuildContext, LayoutBuilder, MaterializedLayout
from .natural import ColumnLayout

__all__ = ["IrregularLayout"]


class IrregularLayout(LayoutBuilder):
    """Jigsaw: irregular partitioning + partition-at-a-time evaluation.

    ``zone_maps`` enables the catalog-metadata predicate short-circuit in the
    engine — an extension beyond the paper (its "indexing" future work),
    disabled by default to match the paper's Algorithm 5.
    """

    name = "Irregular"

    def __init__(
        self,
        selection_enabled: bool = True,
        merge_enabled: bool = True,
        merge_similar: bool = True,
        zone_maps: bool = False,
        use_histograms: bool = False,
        histogram_bins: int = 64,
    ):
        self.selection_enabled = selection_enabled
        self.merge_enabled = merge_enabled
        self.merge_similar = merge_similar
        self.zone_maps = zone_maps
        self.use_histograms = use_histograms
        self.histogram_bins = histogram_bins

    def build(
        self, table: ColumnTable, train: Workload, ctx: BuildContext
    ) -> MaterializedLayout:
        statistics = None
        if self.use_histograms:
            from ..core.statistics import TableStatistics

            statistics = TableStatistics.from_table(table, self.histogram_bins)
        cost_model = CostModel(
            table.meta,
            ctx.device_profile.io_model,
            memory_model=ctx.memory_model,
            page_size=ctx.file_segment_bytes,
            statistics=statistics,
        )
        config = PartitionerConfig(
            min_size=ctx.min_size,
            max_size=ctx.max_size,
            selection_enabled=self.selection_enabled,
            merge_enabled=self.merge_enabled,
            merge_similar=self.merge_similar,
        )
        partitioner = JigsawPartitioner(cost_model, config)
        plan = partitioner.partition(table.meta, train)

        if plan.kind == "columnar":
            layout = ColumnLayout().build(table, train, ctx)
            layout.name = self.name
            layout.plan = plan
            layout.train = train
            layout.build_info["tuner"] = partitioner.stats
            layout.build_info["fallback"] = "columnar"
            return layout

        manager, _device = ctx.make_manager(table.meta)
        extra_info = self._materialize(manager, plan, table, train, ctx)
        return MaterializedLayout(
            self.name,
            table.meta,
            manager,
            self._executor(manager, table, ctx),
            plan=plan,
            build_info={
                "tuner": partitioner.stats,
                "n_irregular_partitions": plan.n_irregular_partitions(),
                **extra_info,
            },
            train=train,
        )

    def _materialize(
        self,
        manager: PartitionManager,
        plan: PartitioningPlan,
        table: ColumnTable,
        train: Workload,
        ctx: BuildContext,
    ) -> Dict[str, Any]:
        """Store the tuned plan's partitions; returns extra ``build_info``."""
        manager.materialize_plan(
            plan, table, TID_EXPLICIT, sketcher=ctx.sketcher(table, train)
        )
        return {}

    def _executor(
        self, manager: PartitionManager, table: ColumnTable, ctx: BuildContext
    ):
        return PartitionAtATimeExecutor(
            manager, table.meta, cpu_model=ctx.cpu_model,
            zone_maps=self.zone_maps, prefetch_depth=ctx.prefetch_depth,
        )
