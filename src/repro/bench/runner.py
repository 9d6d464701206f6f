"""Shared experiment plumbing: building layout suites and running query sets."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple, Type

from ..core.query import Query, Workload
from ..layouts import (
    ALL_LAYOUTS,
    BuildContext,
    ColumnHLayout,
    ColumnLayout,
    HierarchicalLayout,
    IrregularLayout,
    LayoutBuilder,
    MaterializedLayout,
    RowHLayout,
    RowLayout,
    RowVLayout,
)
from ..plan.stats import ExecutionStats
from ..storage.table_data import ColumnTable

__all__ = ["LAYOUT_BUILDERS", "QueryRun", "build_layouts", "run_workload"]

#: Builders by display name, in the paper's presentation order.
LAYOUT_BUILDERS: Dict[str, Type[LayoutBuilder]] = {
    cls.name: cls for cls in ALL_LAYOUTS
}

#: The comparison set most figures use.
DEFAULT_LAYOUT_NAMES: Tuple[str, ...] = tuple(LAYOUT_BUILDERS)


@dataclass(slots=True)
class QueryRun:
    """Aggregated measurements of one layout over one evaluation workload."""

    layout: str
    n_queries: int = 0
    total: ExecutionStats = field(default_factory=ExecutionStats)
    per_query: List[ExecutionStats] = field(default_factory=list)

    def record(self, stats: ExecutionStats) -> None:
        self.n_queries += 1
        self.total.add(stats)
        self.per_query.append(stats)

    @property
    def mean_time_s(self) -> float:
        return self.total.simulated_time_s / max(1, self.n_queries)

    @property
    def mean_bytes(self) -> float:
        return self.total.bytes_read / max(1, self.n_queries)


def build_layouts(
    table: ColumnTable,
    train: Workload,
    ctx: BuildContext,
    names: Sequence[str] | None = None,
) -> Dict[str, MaterializedLayout]:
    """Build the requested layout suite against one training workload."""
    chosen = tuple(names) if names else DEFAULT_LAYOUT_NAMES
    layouts: Dict[str, MaterializedLayout] = {}
    for name in chosen:
        builder = LAYOUT_BUILDERS[name]()
        layouts[name] = builder.build(table, train, ctx)
    return layouts


def run_workload(
    layout: MaterializedLayout,
    queries: Iterable[Query],
    drop_caches: bool = True,
) -> QueryRun:
    """Execute queries on one layout, cold by default (paper Section 6)."""
    run = QueryRun(layout=layout.name)
    for query in queries:
        if drop_caches:
            layout.drop_caches()
        _result, stats = layout.execute(query)
        run.record(stats)
    return run
