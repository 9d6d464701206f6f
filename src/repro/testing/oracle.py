"""Cross-engine differential oracle.

Every query engine in this repository must produce, for any table, layout
and query, exactly the rows and cells that a direct numpy evaluation over
the in-memory table produces.  :func:`run_reference_query` is that direct
evaluation — deliberately trivial, no partitioning, no indexes, nothing
shared with the engines under test.  :func:`run_differential_oracle`
generates seeded random (table, workload, query) cases, materializes each
table under every layout family, runs each query through every engine, and
compares the :class:`~repro.plan.result.ResultSet`s bit for bit.

A disagreement is reported, never silently tolerated: either an engine is
wrong, a layout dropped cells, or the reference itself is — any of which is
exactly what the oracle exists to catch.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..core.query import Query, Workload
from ..core.schema import TableSchema
from ..engine.parallel import ThreadedPartitionEngine
from ..layouts import (
    BuildContext,
    ColumnHLayout,
    ColumnLayout,
    IrregularLayout,
    MaterializedLayout,
)
from ..plan.result import ResultSet
from ..storage.faults import FaultConfig, FaultInjectingBlobStore
from ..storage.partition_manager import PartitionManager
from ..storage.table_data import ColumnTable

__all__ = [
    "OracleCase",
    "OracleReport",
    "inject_faults",
    "no_leaked_pins",
    "oracle_check",
    "pruning_check",
    "pruning_executors",
    "random_query",
    "random_table",
    "random_workload",
    "run_differential_oracle",
    "run_reference_query",
]

#: Layout families the oracle exercises, one per partitioning philosophy:
#: natural columnar, workload-driven horizontal and Jigsaw irregular.
#: ``selection_enabled=False`` keeps the tuner from falling back to columnar
#: on tiny tables, so the partition-at-a-time engines really run over
#: irregular partitions.
ORACLE_LAYOUTS: Tuple[Tuple[str, Callable[[], object]], ...] = (
    ("natural", ColumnLayout),
    ("workload-driven", ColumnHLayout),
    ("irregular", lambda: IrregularLayout(selection_enabled=False)),
)


# ---------------------------------------------------------- resource census


@contextmanager
def no_leaked_pins() -> Iterator[None]:
    """Fail if a manager that pinned a catalog snapshot inside the block
    still holds one when the block ends — on any exit path, a request must
    hand back the view it pinned (a leaked pin keeps retired partitions
    from ever being pruned)."""
    pinned: Dict[int, PartitionManager] = {}
    pin_snapshot = PartitionManager.pin_snapshot

    def recording(manager, version=None):
        pinned[id(manager)] = manager
        return pin_snapshot(manager, version)

    PartitionManager.pin_snapshot = recording  # type: ignore[method-assign]
    try:
        yield
    finally:
        PartitionManager.pin_snapshot = pin_snapshot  # type: ignore[method-assign]
    leaked = [m for m in pinned.values() if m.snapshot_refcount()]
    assert not leaked, f"catalog snapshot pins leaked: {leaked}"


# ------------------------------------------------------------- the reference


def run_reference_query(table: ColumnTable, query: Query) -> ResultSet:
    """Answer ``query`` straight from the in-memory columns.

    The ground truth every engine is diffed against: a dense boolean mask
    per predicate, AND-ed, then a plain gather of the projected columns.
    """
    mask = np.ones(table.n_tuples, dtype=bool)
    for name, interval in query.where.items():
        column = table.column(name)
        mask &= (column >= interval.lo) & (column <= interval.hi)
    tids = np.nonzero(mask)[0].astype(np.int64)
    return ResultSet(
        tids, {name: table.column(name)[tids] for name in query.select}
    )


# --------------------------------------------------------------- generators


def random_table(
    rng: np.random.Generator,
    n_attrs: Optional[int] = None,
    n_tuples: Optional[int] = None,
    value_range: int = 1_000,
) -> ColumnTable:
    """A small random int32 table; sizes default to oracle-friendly ranges."""
    if n_attrs is None:
        n_attrs = int(rng.integers(2, 7))
    if n_tuples is None:
        n_tuples = int(rng.integers(100, 601))
    names = [f"a{i}" for i in range(1, n_attrs + 1)]
    schema = TableSchema.uniform(names)
    columns = {
        name: rng.integers(0, value_range, n_tuples).astype(np.int32)
        for name in names
    }
    return ColumnTable.build("oracle", schema, columns)


def random_query(
    rng: np.random.Generator,
    table: ColumnTable,
    label: str = "q",
    value_range: int = 1_000,
) -> Query:
    """A random conjunctive range query over 1-2 predicate attributes.

    Selectivities span empty through full so engines are exercised on the
    no-result and everything-qualifies edges, not just the comfortable
    middle.
    """
    names = list(table.schema.attribute_names)
    k = int(rng.integers(1, len(names) + 1))
    select = [names[i] for i in rng.choice(len(names), size=k, replace=False)]
    n_preds = int(rng.integers(1, min(2, len(names)) + 1))
    where: Dict[str, Tuple[int, int]] = {}
    for i in rng.choice(len(names), size=n_preds, replace=False):
        name = names[i]
        lo = int(rng.integers(0, value_range))
        hi = lo + int(rng.integers(0, value_range - lo + 1))
        # Clamp into the table's actual value range (Query.build validates).
        interval = table.meta.interval(name)
        lo = max(lo, int(interval.lo))
        hi = min(max(hi, lo), int(interval.hi))
        if hi < lo:
            lo = hi = int(interval.lo)
        where[name] = (lo, hi)
    return Query.build(table.meta, select, where, label=label)


def random_workload(
    rng: np.random.Generator, table: ColumnTable, n_queries: int = 5
) -> Workload:
    """A seeded training workload; doubles as the oracle's query set."""
    queries = [
        random_query(rng, table, label=f"q{i}") for i in range(n_queries)
    ]
    return Workload(table.meta, queries)


# ------------------------------------------------------------ fault harness


def inject_faults(
    layout: MaterializedLayout,
    config: Optional[FaultConfig] = None,
    seed: int = 0,
    overrides: Optional[Dict[str, FaultConfig]] = None,
) -> FaultInjectingBlobStore:
    """Interpose a fault-injecting store under an already-built layout.

    The builder materialized pristine partition files; wrapping afterwards
    means reads fault but the stored bytes stay intact, so retries can
    succeed.  Returns the wrapper (its ``stats`` count injected faults).
    """
    store = FaultInjectingBlobStore(
        layout.manager.store, config=config, seed=seed, overrides=overrides
    )
    layout.manager.store = store
    return store


# ------------------------------------------------------------------- oracle


@dataclass(slots=True)
class OracleCase:
    """One (table, workload, query) disagreement, with enough context to
    replay it: regenerate the table from ``table_seed`` and the query by
    index."""

    table_seed: int
    query_label: str
    engine: str
    detail: str


@dataclass(slots=True)
class OracleReport:
    """Outcome of one oracle run."""

    n_cases: int = 0
    n_checks: int = 0
    failures: List[OracleCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"differential oracle: {self.n_cases} cases, "
            f"{self.n_checks} engine checks, {status}"
        )


def oracle_check(
    layout: MaterializedLayout, table: ColumnTable, query: Query
) -> Optional[str]:
    """Run ``query`` on ``layout`` and diff against the reference.

    Returns None on agreement, else a human-readable description of the
    mismatch.
    """
    expected = run_reference_query(table, query)
    result, _stats = layout.execute(query)
    if result.equals(expected):
        return None
    return (
        f"{layout.name}: got {result.n_tuples} tuples, "
        f"expected {expected.n_tuples} for {query.label or query!r}"
    )


def pruning_executors(layout: MaterializedLayout):
    """Twin (pruning-off, pruning-on) executors over ``layout``'s storage.

    Returns None for executors without a pruning knob.  The twins share the
    layout's manager (catalog, store, device), so running both on the same
    query isolates the planner's pruning decision as the only variable.
    """
    ex = layout.executor
    if "zone_maps" not in ex.options:
        return None
    return ex.clone(zone_maps=False), ex.clone(zone_maps=True)


def pruning_check(
    layout: MaterializedLayout, table: ColumnTable, query: Query
) -> Optional[str]:
    """Run ``query`` with pruning off and on; both must match the reference,
    and pruning must never touch *more* partitions.

    Returns None when the invariants hold, else a description of the
    violation.
    """
    pair = pruning_executors(layout)
    if pair is None:
        return None
    off, on = pair
    expected = run_reference_query(table, query)
    result_off, stats_off = off.execute(query)
    result_on, stats_on = on.execute(query)
    if not result_off.equals(expected):
        return f"{layout.name}: pruning-off result differs from reference"
    if not result_on.equals(expected):
        return f"{layout.name}: pruning-on result differs from reference"
    if stats_on.n_partition_reads > stats_off.n_partition_reads:
        return (
            f"{layout.name}: pruning increased partition reads "
            f"({stats_on.n_partition_reads} > {stats_off.n_partition_reads})"
        )
    if stats_on.n_partitions_pruned > stats_on.n_partitions_skipped:
        return (
            f"{layout.name}: pruned count {stats_on.n_partitions_pruned} "
            f"exceeds skipped count {stats_on.n_partitions_skipped}"
        )
    return None


def run_differential_oracle(
    n_cases: int = 200,
    seed: int = 0,
    queries_per_table: int = 5,
    ctx: Optional[BuildContext] = None,
    threaded: bool = True,
    pruning_sweep: bool = True,
) -> OracleReport:
    """Diff every engine against the reference on seeded random cases.

    A *case* is one (table, workload, query) triple; each case is checked
    under every layout family in :data:`ORACLE_LAYOUTS`, and (when
    ``threaded``) through both ThreadedPartitionEngine strategies over the
    irregular layout — every engine sees every case.  Tables are reused
    across ``queries_per_table`` cases so 200 cases cost ~40 layout builds,
    not 200.

    With ``pruning_sweep`` every (layout, query) pair additionally runs
    through twin executors with zone-map pruning disabled and enabled
    (:func:`pruning_check`): both must reproduce the reference exactly, and
    pruning must never increase the partitions touched.
    """
    if ctx is None:
        ctx = BuildContext(file_segment_bytes=2048, schism_sample_size=100)
    report = OracleReport()
    master = np.random.default_rng(seed)
    case = 0
    while case < n_cases:
        table_seed = int(master.integers(0, 2**32))
        rng = np.random.default_rng(table_seed)
        table = random_table(rng)
        n_queries = min(queries_per_table, n_cases - case)
        workload = random_workload(rng, table, n_queries=n_queries)
        layouts = [
            (name, make().build(table, workload, ctx))
            for name, make in ORACLE_LAYOUTS
        ]
        irregular = dict(layouts)["irregular"]
        for index, query in enumerate(workload):
            case += 1
            report.n_cases += 1
            for name, layout in layouts:
                report.n_checks += 1
                mismatch = oracle_check(layout, table, query)
                if mismatch is not None:
                    report.failures.append(
                        OracleCase(table_seed, query.label or str(index),
                                   name, mismatch)
                    )
                if pruning_sweep:
                    report.n_checks += 1
                    mismatch = pruning_check(layout, table, query)
                    if mismatch is not None:
                        report.failures.append(
                            OracleCase(table_seed, query.label or str(index),
                                       f"{name}-pruning", mismatch)
                        )
            if threaded:
                # Alternate strategies across cases: both protocols get
                # half the cases at half the (GIL-bound) cost.
                strategy = "locking" if case % 2 else "shared"
                engine = ThreadedPartitionEngine(
                    irregular.manager, table.meta, n_threads=2,
                    strategy=strategy,
                )
                report.n_checks += 1
                expected = run_reference_query(table, query)
                if not engine.execute(query)[0].equals(expected):
                    report.failures.append(
                        OracleCase(
                            table_seed, query.label or str(index),
                            f"threaded-{strategy}",
                            f"threaded-{strategy} result differs from "
                            f"reference on {query.label!r}",
                        )
                    )
    return report
