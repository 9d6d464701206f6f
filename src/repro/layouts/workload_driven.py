"""Workload-driven rectangular baselines: Row-H, Column-H, Row-V and
Hierarchical (Section 6.1.2).

* **Row-H** — Schism horizontal groups sized to fill one file segment with
  whole rows.
* **Column-H** — coarser Schism groups (one *column* of a group fills a file
  segment); each (group, attribute) pair becomes its own file.
* **Row-V** — Peloton column groups, natural tuple order, each group spanning
  multiple file segments.
* **Hierarchical** — Row-H's horizontal groups, then an independent Peloton
  vertical split per group using the queries that actually reach the group;
  each (group, column-group) pair becomes one (often small) file.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..core.query import Workload
from ..engine.scan import ScanExecutor
from ..partitioning.peloton import PelotonPartitioner
from ..partitioning.schism import SchismPartitioner
from ..plan.predicates import Conjunction
from ..storage.physical import TID_CATALOG, TID_IMPLICIT, SegmentSpec
from ..storage.table_data import ColumnTable
from .base import BuildContext, LayoutBuilder, MaterializedLayout

__all__ = ["RowHLayout", "ColumnHLayout", "RowVLayout", "HierarchicalLayout"]


def _schism_groups(
    table: ColumnTable,
    train: Workload,
    ctx: BuildContext,
    target_group_bytes: int,
    row_width: int,
) -> List[np.ndarray]:
    """Run the Schism substrate with groups sized for ``target_group_bytes``."""
    total_bytes = table.n_tuples * row_width
    k = max(1, int(np.ceil(total_bytes / max(target_group_bytes, 1))))
    # Cap the group count: beyond a few hundred groups the graph partitioner
    # degenerates (more partitions than sampled tuples) and per-partition
    # object overhead dominates a Python run.
    k = min(k, max(1, table.n_tuples), 512)
    partitioner = SchismPartitioner(
        n_partitions=k, sample_size=ctx.schism_sample_size, seed=ctx.seed
    )
    return partitioner.partition(table, train)


class RowHLayout(LayoutBuilder):
    """Schism horizontal partitions stored in row order."""

    name = "Row-H"

    def build(
        self, table: ColumnTable, train: Workload, ctx: BuildContext
    ) -> MaterializedLayout:
        attrs = table.schema.attribute_names
        groups = _schism_groups(
            table, train, ctx, ctx.file_segment_bytes, table.schema.row_width()
        )
        spec_groups = [[SegmentSpec(attrs, tids)] for tids in groups]
        manager, _device = ctx.make_manager(table.meta)
        manager.materialize_specs(
            spec_groups, table, TID_CATALOG, sketcher=ctx.sketcher(table, train)
        )
        executor = ScanExecutor(
            manager, table.meta, cpu_model=ctx.cpu_model, zone_maps=True,
            row_major=True, prefetch_depth=ctx.prefetch_depth,
        )
        return MaterializedLayout(
            self.name, table.meta, manager, executor,
            build_info={"n_groups": len(groups)}, train=train,
        )


class ColumnHLayout(LayoutBuilder):
    """Schism horizontal partitions with each column stored separately.

    Groups are coarser than Row-H: a single column of a group fills one file
    segment, so groups hold ``file_segment_bytes / mean_attr_width`` tuples.
    """

    name = "Column-H"

    def build(
        self, table: ColumnTable, train: Workload, ctx: BuildContext
    ) -> MaterializedLayout:
        schema = table.schema
        mean_width = max(1, schema.row_width() // max(len(schema), 1))
        groups = _schism_groups(table, train, ctx, ctx.file_segment_bytes, mean_width)
        spec_groups = [
            [SegmentSpec((attr,), tids)]
            for tids in groups
            for attr in schema.attribute_names
        ]
        manager, _device = ctx.make_manager(table.meta)
        manager.materialize_specs(
            spec_groups, table, TID_CATALOG, sketcher=ctx.sketcher(table, train)
        )
        executor = ScanExecutor(
            manager, table.meta, cpu_model=ctx.cpu_model, zone_maps=True,
            row_major=False, prefetch_depth=ctx.prefetch_depth,
        )
        return MaterializedLayout(
            self.name, table.meta, manager, executor,
            build_info={"n_groups": len(groups)}, train=train,
        )


class RowVLayout(LayoutBuilder):
    """Peloton column groups in natural tuple order (Hyrise/H2O-style)."""

    name = "Row-V"

    def build(
        self, table: ColumnTable, train: Workload, ctx: BuildContext
    ) -> MaterializedLayout:
        partitioner = PelotonPartitioner()
        column_groups = partitioner.partition(table.meta, train)
        all_tids = np.arange(table.n_tuples)
        spec_groups = [[SegmentSpec(group, all_tids)] for group in column_groups]
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
            row_major=True,
            prefetch_depth=ctx.prefetch_depth,
        )
        return MaterializedLayout(
            self.name,
            table.meta,
            manager,
            executor,
            build_info={"column_groups": column_groups},
            train=train,
        )


class HierarchicalLayout(LayoutBuilder):
    """Schism groups split vertically per group (Peloton-style tiles)."""

    name = "Hierarchical"

    def build(
        self, table: ColumnTable, train: Workload, ctx: BuildContext
    ) -> MaterializedLayout:
        schema = table.schema
        groups = _schism_groups(
            table, train, ctx, ctx.file_segment_bytes, schema.row_width()
        )
        conjunctions = [Conjunction.from_query(q) for q in train]
        spec_groups: List[Sequence[SegmentSpec]] = []
        vertical_counts: List[int] = []
        partitioner = PelotonPartitioner()
        for tids in groups:
            local_queries = [
                query
                for query, conj in zip(train, conjunctions)
                if self._accesses_group(table, conj, tids)
            ]
            column_groups = partitioner.partition(table.meta, Workload(table.meta, local_queries))
            vertical_counts.append(len(column_groups))
            for column_group in column_groups:
                spec_groups.append([SegmentSpec(column_group, tids)])
        manager, _device = ctx.make_manager(table.meta)
        manager.materialize_specs(
            spec_groups, table, TID_CATALOG, sketcher=ctx.sketcher(table, train)
        )
        executor = ScanExecutor(
            manager, table.meta, cpu_model=ctx.cpu_model, zone_maps=True,
            row_major=True, prefetch_depth=ctx.prefetch_depth,
        )
        return MaterializedLayout(
            self.name,
            table.meta,
            manager,
            executor,
            build_info={
                "n_horizontal_groups": len(groups),
                "vertical_groups_per_partition": vertical_counts,
            },
            train=train,
        )

    @staticmethod
    def _accesses_group(
        table: ColumnTable, conjunction: Conjunction, tids: np.ndarray
    ) -> bool:
        """Does any tuple of the group satisfy the query's predicates?"""
        if not conjunction:
            return True
        columns = {
            p.attribute: table.column(p.attribute)[tids] for p in conjunction.predicates
        }
        mask, _count = conjunction.evaluate_available(columns, len(tids))
        return bool(np.any(mask))
