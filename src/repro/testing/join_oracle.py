"""Differential oracle for the relational operator DAG.

The single-table oracle (:mod:`repro.testing.oracle`) pins every engine to a
dense numpy evaluation; this module does the same for multi-table plans.
:func:`run_reference_join` evaluates a :class:`RelationalQuery` straight
over the in-memory tables — per-table boolean masks, a deliberately naive
broadcast equality for each join condition, python-dict grouping for the
aggregates — sharing *no* code with :class:`~repro.plan.dag.DagExecutor`,
:class:`~repro.plan.relops.HashJoinOp` or
:class:`~repro.plan.relops.GroupAggOp`.  It reproduces the executor's
canonical row order (source tuple ids in FROM order; group keys ascending)
because that order is part of the result contract, not an implementation
detail.

:func:`run_join_differential_oracle` generates seeded random join cases —
co-partitioned and not, grouped and plain — materializes both tables under
every layout family, and sweeps every execution shape the DAG can take:
default strategy choice, forced partition-wise / broadcast / naive, spill
on (tiny budget) vs off, fault injection over both stores, and the
threaded engine as leaf executor.  Every cell of that sweep must be
oracle-exact.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

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
from ..plan.dag import Catalog, DagExecutor, RelationalResult
from ..plan.relational import AggSpec, ColumnRef, JoinCondition, RelationalQuery
from ..storage.table_data import ColumnTable
from .oracle import OracleCase, OracleReport, inject_faults

__all__ = [
    "JOIN_ORACLE_LAYOUTS",
    "ThreadedBinding",
    "build_join_catalog",
    "join_oracle_check",
    "random_join_query",
    "random_join_tables",
    "run_join_differential_oracle",
    "run_reference_join",
]

#: Layout families the join oracle exercises.  Zone maps are enabled on the
#: irregular family so per-split key pushdown actually prunes; the natural
#: family keeps its paper-faithful zone_maps=False executor, covering the
#: non-pruning pricing path (as does the threaded binding below).
JOIN_ORACLE_LAYOUTS: Tuple[Tuple[str, Callable[[], object]], ...] = (
    ("natural", ColumnLayout),
    ("workload-driven", ColumnHLayout),
    ("irregular", lambda: IrregularLayout(zone_maps=True, selection_enabled=False)),
)


# ------------------------------------------------------------- the reference


def _table_mask(table: ColumnTable, query: RelationalQuery) -> np.ndarray:
    mask = np.ones(table.n_tuples, dtype=bool)
    for ref, (lo, hi) in query.where.items():
        if ref.table != table.meta.name:
            continue
        column = table.column(ref.column)
        mask &= (column >= lo) & (column <= hi)
    return mask


def run_reference_join(
    tables: Mapping[str, ColumnTable], query: RelationalQuery
) -> RelationalResult:
    """Answer ``query`` straight from the in-memory columns.

    Ground truth for the DAG: dense per-table masks, one O(|L|x|R|)
    broadcast equality per join condition, composite rows ordered by source
    tuple ids in FROM order, and dict-based grouping for aggregates.
    """
    # Per-table qualifying tuple ids under the raw (un-propagated) WHERE.
    masks = {name: _table_mask(tables[name], query) for name in query.tables}

    # Composite rows: aligned tuple-id arrays, one per joined-in table.
    first = query.tables[0]
    tids: Dict[str, np.ndarray] = {
        first: np.flatnonzero(masks[first]).astype(np.int64)
    }
    for condition in query.joins:
        if condition.left.table in tids:
            old, new = condition.left, condition.right
        else:
            old, new = condition.right, condition.left
        assert old.table in tids and new.table not in tids
        old_values = tables[old.table].column(old.column)[tids[old.table]]
        candidates = np.flatnonzero(masks[new.table]).astype(np.int64)
        new_values = tables[new.table].column(new.column)[candidates]
        row_idx, cand_idx = np.nonzero(
            old_values[:, None] == new_values[None, :]
        )
        tids = {name: values[row_idx] for name, values in tids.items()}
        tids[new.table] = candidates[cand_idx]

    # Canonical order: first FROM table's tuple id is the primary sort key.
    n_rows = len(next(iter(tids.values()))) if tids else 0
    if n_rows > 1:
        order = np.lexsort([tids[name] for name in reversed(query.tables)])
        tids = {name: values[order] for name, values in tids.items()}

    def gather(ref: ColumnRef) -> np.ndarray:
        return tables[ref.table].column(ref.column)[tids[ref.table]]

    if not query.is_aggregating:
        return RelationalResult(
            {ref.qualified: gather(ref) for ref in query.select}
        )
    return _reference_aggregate(query, gather, n_rows)


def _reference_aggregate(
    query: RelationalQuery,
    gather: Callable[[ColumnRef], np.ndarray],
    n_rows: int,
) -> RelationalResult:
    """Grouped/scalar aggregation by python-dict grouping (no reduceat)."""
    aggs = query.aggregates
    if not query.group_by:
        columns: Dict[str, np.ndarray] = {}
        for spec in aggs:
            values = (
                gather(spec.column)
                if spec.column is not None
                else np.ones(n_rows, dtype=np.int64)
            )
            columns[spec.name] = _scalar_agg(spec, values)
        return RelationalResult(
            {_output_name(query, item): columns[item.name] for item in query.select}
        )

    key_arrays = [gather(ref) for ref in query.group_by]
    agg_inputs = [
        gather(spec.column)
        if spec.column is not None
        else np.ones(n_rows, dtype=np.int64)
        for spec in aggs
    ]
    groups: Dict[Tuple, List[int]] = {}
    for row in range(n_rows):
        key = tuple(values[row] for values in key_arrays)
        groups.setdefault(key, []).append(row)
    ordered_keys = sorted(groups)
    columns = {}
    for position, ref in enumerate(query.group_by):
        dtype = key_arrays[position].dtype
        columns[ref.qualified] = np.array(
            [key[position] for key in ordered_keys], dtype=dtype
        )
    for spec, values in zip(aggs, agg_inputs):
        out = [
            _scalar_agg(spec, values[np.array(groups[key], dtype=np.int64)])[0]
            for key in ordered_keys
        ]
        dtype = np.int64 if spec.func == "count" else np.float64
        columns[spec.name] = np.array(out, dtype=dtype)
    return RelationalResult(
        {_output_name(query, item): columns[_item_key(item)] for item in query.select}
    )


def _item_key(item: Union[ColumnRef, AggSpec]) -> str:
    return item.qualified if isinstance(item, ColumnRef) else item.name


def _output_name(query: RelationalQuery, item: Union[ColumnRef, AggSpec]) -> str:
    return _item_key(item)


def _scalar_agg(spec: AggSpec, values: np.ndarray) -> np.ndarray:
    n = len(values)
    if spec.func == "count":
        return np.array([n], dtype=np.int64)
    if n == 0:
        return np.array([0.0 if spec.func == "sum" else np.nan])
    as_float = values.astype(np.float64)
    if spec.func == "sum":
        return np.array([as_float.sum()])
    if spec.func == "min":
        return np.array([as_float.min()])
    if spec.func == "max":
        return np.array([as_float.max()])
    if spec.func == "mean":
        return np.array([as_float.sum() / n])
    raise AssertionError(f"unreachable aggregate {spec.func!r}")


# --------------------------------------------------------------- generators


def random_join_tables(
    rng: np.random.Generator,
    co_partitioned: bool = True,
    value_range: int = 400,
) -> Tuple[ColumnTable, ColumnTable, Workload, Workload]:
    """A random (fact, dim) pair sharing a join-key domain, plus training
    workloads.

    ``co_partitioned=True`` trains both layouts on the same disjoint
    key-range windows, so irregular layouts develop contiguous key zones and
    the chooser can find >1 split; ``False`` trains on the value columns
    instead, leaving the key un-clustered.
    """
    n_fact = int(rng.integers(300, 801))
    n_dim = int(rng.integers(80, 201))
    fact = ColumnTable.build(
        "fact",
        TableSchema.uniform(["f_key", "f_a", "f_b"]),
        {
            "f_key": rng.integers(0, value_range, n_fact).astype(np.int32),
            "f_a": rng.integers(0, value_range, n_fact).astype(np.int32),
            "f_b": rng.integers(0, value_range, n_fact).astype(np.int32),
        },
    )
    dim = ColumnTable.build(
        "dim",
        TableSchema.uniform(["d_key", "d_a"]),
        {
            "d_key": rng.integers(0, value_range, n_dim).astype(np.int32),
            "d_a": rng.integers(0, value_range, n_dim).astype(np.int32),
        },
    )

    def windows(meta, key: str) -> Workload:
        queries = []
        n_windows = 4
        width = value_range // n_windows
        interval = meta.interval(key)
        for i in range(n_windows):
            lo = max(i * width, int(interval.lo))
            hi = min((i + 1) * width - 1, int(interval.hi))
            if hi < lo:
                continue
            queries.append(
                Query.build(
                    meta,
                    list(meta.schema.attribute_names),
                    {key: (lo, hi)},
                    label=f"train{i}",
                )
            )
        return Workload(meta, queries)

    if co_partitioned:
        return fact, dim, windows(fact.meta, "f_key"), windows(dim.meta, "d_key")
    return fact, dim, windows(fact.meta, "f_a"), windows(dim.meta, "d_a")


def random_join_query(
    rng: np.random.Generator,
    fact: ColumnTable,
    dim: ColumnTable,
    label: str = "jq",
    value_range: int = 400,
) -> RelationalQuery:
    """A random fact-dim equi-join: optional predicates on either side,
    optionally grouped aggregation."""
    key_left = ColumnRef("fact", "f_key")
    key_right = ColumnRef("dim", "d_key")
    where: Dict[ColumnRef, Tuple[float, float]] = {}

    def maybe_predicate(table: ColumnTable, column: str) -> None:
        if rng.random() < 0.6:
            interval = table.meta.interval(column)
            lo = int(rng.integers(0, value_range))
            hi = lo + int(rng.integers(0, value_range - lo + 1))
            lo = max(lo, int(interval.lo))
            hi = min(max(hi, lo), int(interval.hi))
            if hi < lo:
                lo = hi = int(interval.lo)
            where[ColumnRef(table.meta.name, column)] = (lo, hi)

    maybe_predicate(fact, "f_key" if rng.random() < 0.5 else "f_a")
    maybe_predicate(dim, "d_a")

    if rng.random() < 0.5:
        # Grouped aggregation over the dim attribute.
        select = (
            ColumnRef("dim", "d_a"),
            AggSpec("sum", ColumnRef("fact", "f_a")),
            AggSpec(("min", "max", "mean")[int(rng.integers(0, 3))],
                    ColumnRef("fact", "f_b")),
            AggSpec("count", None),
        )
        group_by = (ColumnRef("dim", "d_a"),)
    else:
        select = (
            ColumnRef("fact", "f_key"),
            ColumnRef("fact", "f_a"),
            ColumnRef("dim", "d_a"),
        )
        group_by = ()
    return RelationalQuery(
        tables=("fact", "dim"),
        joins=(JoinCondition(key_left, key_right),),
        where=where,
        select=select,
        group_by=group_by,
        label=label,
    )


# ------------------------------------------------------------ catalog setup


class ThreadedBinding:
    """Adapts :class:`ThreadedPartitionEngine` to the catalog duck type.

    The threaded engine never prunes — a shape the DAG's strategy chooser
    must handle, so the oracle exercises it explicitly.
    """

    def __init__(self, layout: MaterializedLayout, strategy: str = "locking"):
        self.layout = layout
        self.strategy = strategy
        self.executor = ThreadedPartitionEngine(
            layout.manager,
            layout.table,
            n_threads=2,
            strategy=strategy,
        )

    @property
    def table(self):
        return self.layout.table

    @property
    def manager(self):
        return self.layout.manager

    def execute(self, query: Query):
        return self.executor.execute(query)


def build_join_catalog(
    make_layout: Callable[[], object],
    fact: ColumnTable,
    dim: ColumnTable,
    fact_workload: Workload,
    dim_workload: Workload,
    ctx: Optional[BuildContext] = None,
    threaded: bool = False,
) -> Catalog:
    """Materialize both tables under one layout family and bind a catalog."""
    if ctx is None:
        ctx = BuildContext(file_segment_bytes=2048, schism_sample_size=100)
    fact_layout = make_layout().build(fact, fact_workload, ctx)
    dim_layout = make_layout().build(dim, dim_workload, ctx)
    if threaded:
        return Catalog(
            {
                "fact": ThreadedBinding(fact_layout, strategy="locking"),
                "dim": ThreadedBinding(dim_layout, strategy="shared"),
            }
        )
    return Catalog({"fact": fact_layout, "dim": dim_layout})


# ------------------------------------------------------------------- oracle


def join_oracle_check(
    executor: DagExecutor,
    tables: Mapping[str, ColumnTable],
    query: RelationalQuery,
) -> Optional[str]:
    """Run ``query`` through ``executor`` and diff against the reference.

    Returns None on agreement, else a description of the mismatch.
    """
    expected = run_reference_join(tables, query)
    result, _stats = executor.execute(query)
    if result.equals(expected):
        return None
    return (
        f"got {result.n_rows} rows x {list(result.output)}, expected "
        f"{expected.n_rows} rows for {query.label or str(query)!r}"
    )


def run_join_differential_oracle(
    n_cases: int = 24,
    seed: int = 0,
    ctx: Optional[BuildContext] = None,
    faults: bool = True,
    threaded: bool = True,
) -> OracleReport:
    """Diff the DAG against the dense reference across the full sweep.

    Each case is one random (fact, dim, query) triple — co-partitioned on
    even cases, key-unclustered on odd — checked under every layout family
    in :data:`JOIN_ORACLE_LAYOUTS` x {default, forced partition-wise,
    forced broadcast, forced naive} x {spill off, spill on (2 KiB budget)}.
    With ``faults``, the irregular family additionally re-runs under fault
    injection on both stores; with ``threaded``, through the threaded
    engine as leaf executor.
    """
    if ctx is None:
        ctx = BuildContext(file_segment_bytes=2048, schism_sample_size=100)
    report = OracleReport()
    master = np.random.default_rng(seed)

    #: (label, force_strategy, spill_budget_bytes)
    shapes: Tuple[Tuple[str, Optional[str], Optional[int]], ...] = (
        ("default", None, None),
        ("partition-wise", "partition-wise", None),
        ("broadcast", "broadcast", None),
        ("naive", "naive", None),
        ("broadcast-spill", "broadcast", 2048),
        ("default-spill", None, 2048),
    )

    for case in range(n_cases):
        table_seed = int(master.integers(0, 2**32))
        rng = np.random.default_rng(table_seed)
        co_partitioned = case % 2 == 0
        fact, dim, fact_wl, dim_wl = random_join_tables(
            rng, co_partitioned=co_partitioned
        )
        tables = {"fact": fact, "dim": dim}
        query = random_join_query(rng, fact, dim, label=f"jq{case}")
        report.n_cases += 1

        for layout_name, make_layout in JOIN_ORACLE_LAYOUTS:
            catalog = build_join_catalog(
                make_layout, fact, dim, fact_wl, dim_wl, ctx
            )
            for shape_name, force, budget in shapes:
                report.n_checks += 1
                executor = DagExecutor(
                    catalog, spill_budget_bytes=budget, force_strategy=force
                )
                mismatch = join_oracle_check(executor, tables, query)
                if mismatch is not None:
                    report.failures.append(
                        OracleCase(
                            table_seed,
                            query.label or str(case),
                            f"{layout_name}/{shape_name}",
                            mismatch,
                        )
                    )
            if faults and layout_name == "irregular":
                faulty = build_join_catalog(
                    make_layout, fact, dim, fact_wl, dim_wl, ctx
                )
                inject_faults(faulty["fact"], seed=table_seed)
                inject_faults(faulty["dim"], seed=table_seed + 1)
                report.n_checks += 1
                executor = DagExecutor(faulty)
                mismatch = join_oracle_check(executor, tables, query)
                if mismatch is not None:
                    report.failures.append(
                        OracleCase(
                            table_seed,
                            query.label or str(case),
                            f"{layout_name}/faults",
                            mismatch,
                        )
                    )

        if threaded:
            catalog = build_join_catalog(
                JOIN_ORACLE_LAYOUTS[2][1], fact, dim, fact_wl, dim_wl, ctx,
                threaded=True,
            )
            report.n_checks += 1
            executor = DagExecutor(catalog)
            mismatch = join_oracle_check(executor, tables, query)
            if mismatch is not None:
                report.failures.append(
                    OracleCase(
                        table_seed,
                        query.label or str(case),
                        "threaded",
                        mismatch,
                    )
                )
    return report
