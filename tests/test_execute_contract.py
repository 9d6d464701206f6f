"""One execute contract: every way to run a query returns ``(result,
stats)`` — a 2-tuple whose second element is an :class:`ExecutionStats`
reporting the result's row count."""

from __future__ import annotations

import pytest

from repro.core import Query
from repro.engine import (
    PartitionAtATimeExecutor,
    ReplicatedExecutor,
    ScanExecutor,
    ThreadedPartitionEngine,
)
from repro.layouts import ColumnLayout, IrregularLayout, ReplicatedIrregularLayout
from repro.plan import Catalog, ColumnRef, DagExecutor, ExecutionStats, RelationalQuery
from repro.serve import QueryScheduler
from repro.txn import TransactionalTable


def _irregular(table, workload, ctx):
    return IrregularLayout(selection_enabled=False).build(table, workload, ctx)


def _scan(table, workload, ctx, query):
    layout = ColumnLayout().build(table, workload, ctx)
    return ScanExecutor(layout.manager, table.meta).execute(query)


def _partition_at_a_time(table, workload, ctx, query):
    layout = _irregular(table, workload, ctx)
    return PartitionAtATimeExecutor(layout.manager, table.meta).execute(query)


def _replicated(table, workload, ctx, query):
    layout = ReplicatedIrregularLayout(selection_enabled=False).build(
        table, workload, ctx
    )
    assert isinstance(layout.executor, ReplicatedExecutor)
    return layout.executor.execute(query)


def _threaded(strategy):
    def run(table, workload, ctx, query):
        layout = _irregular(table, workload, ctx)
        return ThreadedPartitionEngine(
            layout.manager, table.meta, n_threads=2, strategy=strategy
        ).execute(query)

    return run


def _layout(table, workload, ctx, query):
    return _irregular(table, workload, ctx).execute(query)


def _transactional(table, workload, ctx, query):
    return TransactionalTable(_irregular(table, workload, ctx), table).execute(query)


def _dag(table, workload, ctx, query):
    catalog = Catalog({table.meta.name: _irregular(table, workload, ctx)})
    relational = RelationalQuery(
        tables=(table.meta.name,),
        joins=(),
        where={
            ColumnRef(table.meta.name, name): (interval.lo, interval.hi)
            for name, interval in query.where.items()
        },
        select=tuple(ColumnRef(table.meta.name, name) for name in query.select),
    )
    return DagExecutor(catalog).execute(relational)


def _ticket(table, workload, ctx, query):
    layout = _irregular(table, workload, ctx)
    with QueryScheduler({"pat": layout.executor}, workers=1) as scheduler:
        return scheduler.submit("pat", query).wait(timeout=30.0)


PATHS = {
    "scan": _scan,
    "partition-at-a-time": _partition_at_a_time,
    "replicated": _replicated,
    "threaded-locking": _threaded("locking"),
    "threaded-shared": _threaded("shared"),
    "MaterializedLayout.execute": _layout,
    "TransactionalTable.execute": _transactional,
    "DagExecutor.execute": _dag,
    "QueryTicket.wait": _ticket,
}


@pytest.mark.parametrize("path", PATHS)
def test_execute_returns_result_and_stats(path, small_table, small_workload, ctx):
    query = Query.build(small_table.meta, ["a2", "a3"], {"a1": (0, 1999)})
    outcome = PATHS[path](small_table, small_workload, ctx, query)
    assert isinstance(outcome, tuple) and len(outcome) == 2
    result, stats = outcome
    assert isinstance(stats, ExecutionStats)
    n_rows = result.n_rows if hasattr(result, "n_rows") else result.n_tuples
    assert n_rows == int((small_table.column("a1") <= 1999).sum())
    assert stats.n_result_tuples == n_rows
