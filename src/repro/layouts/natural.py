"""Natural-order layouts: the Row and Column baselines.

Neither consults the workload.  Row serializes the table tuple by tuple into
file-segment-sized partitions; Column serializes attribute by attribute, each
column spanning as many file segments as it needs.  Zone maps are disabled:
these baselines read everything a scan requires, exactly as in the paper.
"""

from __future__ import annotations

import numpy as np

from ..core.query import Workload
from ..engine.scan import ScanExecutor
from ..storage.physical import TID_IMPLICIT, SegmentSpec
from ..storage.table_data import ColumnTable
from .base import BuildContext, LayoutBuilder, MaterializedLayout

__all__ = ["RowLayout", "ColumnLayout"]


class RowLayout(LayoutBuilder):
    """Tuples in natural order, whole rows together (PostgreSQL-style)."""

    name = "Row"

    def build(
        self, table: ColumnTable, train: Workload, ctx: BuildContext
    ) -> MaterializedLayout:
        n = table.n_tuples
        row_width = table.schema.row_width()
        rows_per_segment = max(1, ctx.file_segment_bytes // max(row_width, 1))
        attrs = table.schema.attribute_names
        spec_groups = [
            [SegmentSpec(attrs, np.arange(start, min(start + rows_per_segment, n)))]
            for start in range(0, n, rows_per_segment)
        ] or [[SegmentSpec(attrs, np.arange(0))]]
        manager, _device = ctx.make_manager(table.meta)
        manager.materialize_specs(
            spec_groups, table, TID_IMPLICIT, sketcher=ctx.sketcher(table, train)
        )
        executor = ScanExecutor(
            manager,
            table.meta,
            cpu_model=ctx.cpu_model,
            zone_maps=False,
            row_major=True,
            prefetch_depth=ctx.prefetch_depth,
        )
        return MaterializedLayout(
            self.name,
            table.meta,
            manager,
            executor,
            build_info={"rows_per_segment": rows_per_segment},
            train=train,
        )


class ColumnLayout(LayoutBuilder):
    """Attributes in natural order, one column per partition (C-Store-style).

    A column spans multiple file segments; reads are charged chunk by chunk
    at ``file_segment_bytes`` granularity, matching Formula 6's page-at-a-time
    accounting.
    """

    name = "Column"

    def build(
        self, table: ColumnTable, train: Workload, ctx: BuildContext
    ) -> MaterializedLayout:
        n = table.n_tuples
        all_tids = np.arange(n)
        spec_groups = [
            [SegmentSpec((attr,), all_tids)] for attr in table.schema.attribute_names
        ]
        manager, _device = ctx.make_manager(table.meta)
        manager.materialize_specs(
            spec_groups, table, TID_IMPLICIT, sketcher=ctx.sketcher(table, train)
        )
        executor = ScanExecutor(
            manager,
            table.meta,
            cpu_model=ctx.cpu_model,
            zone_maps=False,
            chunk_size=ctx.file_segment_bytes,
            row_major=False,
            prefetch_depth=ctx.prefetch_depth,
        )
        return MaterializedLayout(self.name, table.meta, manager, executor, train=train)
