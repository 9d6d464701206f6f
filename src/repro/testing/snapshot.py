"""Deterministic stats-snapshot machinery for accounting regressions.

The observability layer promises to *read* the simulated accounting without
ever writing it.  That promise is checked against a deterministic sweep: 8
seeded tables x 8 queries each, every query executed 9 ways — once through
each of the three oracle layouts' own executors, plus each layout's
(pruning-off, pruning-on) twin pair — for **576 executions** total, each
reduced to a :func:`stats_signature` (every ``ExecutionStats`` field except
the wall clock, which real time perturbs by definition).

Two regressions drive it:

* **byte-identical accounting** — the full sweep collected with tracing
  and metrics off equals, entry for entry, the sweep collected fully
  enabled (``tests/obs/test_accounting_identity.py``);
* **EXPLAIN ANALYZE exactness** — for every entry, the per-operator rows'
  simulated io/cpu sums reproduce the execution's totals bit for bit
  (``tests/obs/test_analyze.py``).

Everything is deterministic given ``seed``; executions within one sweep
share each layout's storage (so buffer-pool warmth is part of the
signature, identically on both sides of a comparison).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

from ..core.query import Query
from ..layouts import BuildContext
from ..plan.stats import ExecutionStats
from ..storage.table_data import ColumnTable
from .oracle import (
    ORACLE_LAYOUTS,
    pruning_executors,
    random_query,
    random_table,
    random_workload,
)

__all__ = [
    "SNAPSHOT_N_ENTRIES",
    "STATS_SIGNATURE_FIELDS",
    "SnapshotCase",
    "SnapshotEntry",
    "collect_stats_snapshot",
    "iter_snapshot_cases",
    "stats_signature",
]

#: Every ExecutionStats field except the real-time wall clock.
STATS_SIGNATURE_FIELDS: Tuple[str, ...] = tuple(
    f.name
    for f in dataclasses.fields(ExecutionStats)
    if f.name != "wall_time_s"
)

#: 8 tables x 8 queries x (3 oracle executors + 3 layouts x 2 pruning twins).
SNAPSHOT_N_TABLES = 8
SNAPSHOT_QUERIES_PER_TABLE = 8
SNAPSHOT_EXECUTIONS_PER_QUERY = 9
SNAPSHOT_N_ENTRIES = (
    SNAPSHOT_N_TABLES
    * SNAPSHOT_QUERIES_PER_TABLE
    * SNAPSHOT_EXECUTIONS_PER_QUERY
)


def stats_signature(stats: ExecutionStats) -> Tuple[Any, ...]:
    """The execution's exact accounting, minus the wall clock."""
    return tuple(getattr(stats, name) for name in STATS_SIGNATURE_FIELDS)


@dataclass(frozen=True)
class SnapshotCase:
    """One execution of the sweep, not yet run."""

    table_index: int
    query_index: int
    layout: str
    mode: str  # "oracle" | "pruning-off" | "pruning-on"
    executor: Any
    table: ColumnTable
    query: Query

    @property
    def label(self) -> str:
        return (
            f"t{self.table_index}/q{self.query_index}"
            f"/{self.layout}/{self.mode}"
        )


@dataclass(frozen=True)
class SnapshotEntry:
    """One executed case, reduced to its accounting signature."""

    label: str
    signature: Tuple[Any, ...]


def iter_snapshot_cases(
    n_tables: int = SNAPSHOT_N_TABLES,
    queries_per_table: int = SNAPSHOT_QUERIES_PER_TABLE,
    seed: int = 0,
    ctx: Optional[BuildContext] = None,
) -> Iterator[SnapshotCase]:
    """Yield the sweep's cases in their one deterministic order.

    Cases sharing a table also share its three built layouts (and their
    buffer pools); consumers must execute cases in yield order for
    signatures to be comparable across sweeps.
    """
    if ctx is None:
        ctx = BuildContext(file_segment_bytes=2048, schism_sample_size=100)
    for table_index in range(n_tables):
        rng = np.random.default_rng(seed + 7919 * (table_index + 1))
        table = random_table(rng, n_tuples=int(rng.integers(150, 401)))
        workload = random_workload(rng, table, n_queries=5)
        layouts = [
            (name, make().build(table, workload, ctx))
            for name, make in ORACLE_LAYOUTS
        ]
        queries = [
            random_query(rng, table, label=f"snap-{table_index}-{i}")
            for i in range(queries_per_table)
        ]
        for query_index, query in enumerate(queries):
            for name, layout in layouts:
                yield SnapshotCase(
                    table_index, query_index, name, "oracle",
                    layout.executor, table, query,
                )
                twins = pruning_executors(layout)
                if twins is None:  # pragma: no cover - all oracle layouts twin
                    continue
                for mode, executor in zip(("pruning-off", "pruning-on"), twins):
                    yield SnapshotCase(
                        table_index, query_index, name, mode,
                        executor, table, query,
                    )


def collect_stats_snapshot(
    n_tables: int = SNAPSHOT_N_TABLES,
    queries_per_table: int = SNAPSHOT_QUERIES_PER_TABLE,
    seed: int = 0,
    ctx: Optional[BuildContext] = None,
) -> List[SnapshotEntry]:
    """Run the full sweep and return its ordered accounting signatures."""
    return [
        SnapshotEntry(
            label=case.label,
            signature=stats_signature(case.executor.execute(case.query)[1]),
        )
        for case in iter_snapshot_cases(n_tables, queries_per_table, seed, ctx)
    ]
