"""DAG execution: run a relational plan over catalog-bound single-table engines.

The executor walks the logical DAG bottom-up.  Every :class:`ScanNode` leaf
compiles to an ordinary single-table :class:`~repro.core.query.Query` and
runs through the table's *bound* engine (whatever
:class:`~repro.layouts.base.MaterializedLayout` the catalog holds — scan,
partition-at-a-time, threaded, or replicated), so zone/sketch/cache pruning,
prefetch, fault degradation, tracing spans and simulated accounting all come
from the existing machinery.  Join nodes consult
:func:`~repro.plan.joins.choose_join_strategy`:

* **partition-wise** — the scan pair is re-run once per disjoint key split
  with the split's key range pushed into both leaves (the single-table
  planner then zone-prunes every partition outside the split), and each
  split joins independently with its own build-side choice;
* **broadcast** — each side scans once and the smaller side builds.

Build sides that exceed the spill budget degrade to a Grace join through
:class:`~repro.plan.relops.SpillConfig` (chunks written to the build table's
blob store).  Outputs are canonically ordered by source tuple ids, so every
strategy/spill combination returns byte-identical results.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..core.cost import MemoryModel
from ..core.query import Query
from ..core.schema import TableMeta
from ..errors import InvalidQueryError
from ..obs import tracer as obs_tracer
from .relational import (
    AggSpec,
    ColumnRef,
    GroupAggNode,
    JoinNode,
    RelationalPlan,
    RelationalQuery,
    ScanNode,
    build_relational_plan,
)
from .relops import GroupAggOp, HashJoinOp, Relation, SpillConfig, tid_column
from .result import ResultSet
from .stats import CpuModel, ExecutionStats

__all__ = ["Catalog", "DagExecutor", "RelationalResult", "explain_relational"]


class Catalog:
    """Named, queryable table bindings the DAG executor runs leaves through.

    A binding is anything shaped like a
    :class:`~repro.layouts.base.MaterializedLayout`: ``.table``
    (:class:`TableMeta`), ``.manager``, and ``.execute(query)`` returning
    ``(ResultSet, ExecutionStats)``.
    """

    def __init__(self, bindings: Optional[Mapping[str, Any]] = None):
        self._bindings: Dict[str, Any] = {}
        if bindings:
            for name, binding in bindings.items():
                self.bind(binding, name=name)

    def bind(self, binding: Any, name: Optional[str] = None) -> None:
        self._bindings[name or binding.table.name] = binding

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    def __getitem__(self, name: str) -> Any:
        try:
            return self._bindings[name]
        except KeyError:
            raise InvalidQueryError(
                f"unknown table {name!r}; catalog has "
                f"{sorted(self._bindings)}"
            ) from None

    def tables(self) -> Tuple[str, ...]:
        return tuple(self._bindings)

    def metas(self) -> Dict[str, TableMeta]:
        return {name: b.table for name, b in self._bindings.items()}


class RelationalResult:
    """The output relation of a DAG execution, in select-list order.

    ``columns`` maps output names (``lineitem.l_qty``,
    ``sum(lineitem.l_extendedprice)``) to aligned arrays.  Rows are
    canonically ordered — by source tuple ids for plain queries, by group
    keys for aggregations — so equality is byte-wise comparable across
    engines, strategies and spill modes.
    """

    def __init__(self, columns: Dict[str, np.ndarray]):
        self.columns = columns

    @property
    def n_rows(self) -> int:
        for values in self.columns.values():
            return len(values)
        return 0

    @property
    def output(self) -> Tuple[str, ...]:
        return tuple(self.columns)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def equals(self, other: "RelationalResult") -> bool:
        if tuple(self.columns) != tuple(other.columns):
            return False
        for name, values in self.columns.items():
            theirs = other.columns[name]
            if values.dtype.kind == "f" or theirs.dtype.kind == "f":
                if not np.array_equal(
                    values.astype(np.float64),
                    theirs.astype(np.float64),
                    equal_nan=True,
                ):
                    return False
            elif not np.array_equal(values, theirs):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RelationalResult({self.n_rows} rows x "
            f"{list(self.columns)})"
        )


class DagExecutor:
    """Executes :class:`RelationalQuery` DAGs over a :class:`Catalog`.

    ``spill_budget_bytes`` bounds every hash-join build side; ``None``
    defers to each build table's buffer-pool capacity (no pool: unbounded).
    ``force_strategy`` pins the join shape ("partition-wise" | "broadcast" |
    "naive") for benchmarking; "naive" disables join-key pushdown entirely
    and post-filters, the textbook worst case the bench compares against.
    """

    def __init__(
        self,
        catalog: Catalog,
        spill_budget_bytes: Optional[int] = None,
        cpu_model: Optional[CpuModel] = None,
        memory_model: Optional[MemoryModel] = None,
        force_strategy: Optional[str] = None,
    ):
        self.catalog = catalog
        self.spill_budget_bytes = spill_budget_bytes
        self.cpu_model = cpu_model or CpuModel()
        self.memory_model = memory_model or MemoryModel()
        self.force_strategy = force_strategy
        #: per-execution notes for EXPLAIN ANALYZE (node -> lines).
        self.last_notes: List[str] = []

    # ------------------------------------------------------------ public

    def plan(self, query: RelationalQuery) -> RelationalPlan:
        return build_relational_plan(query, self.catalog.metas())

    def execute(
        self, query: RelationalQuery
    ) -> Tuple[RelationalResult, ExecutionStats]:
        plan = self.plan(query)
        started = time.perf_counter()
        total = ExecutionStats()
        op_stats = ExecutionStats()
        self.last_notes = []
        tracer = obs_tracer()
        with tracer.span("exec.dag", tables=",".join(query.tables)):
            relation = self._run_node(
                self._join_root(plan), plan, total, op_stats
            )
            relation = relation.sorted_canonical()
            if isinstance(plan.root, GroupAggNode):
                agg = GroupAggOp(
                    keys=[k.qualified for k in plan.root.keys],
                    aggs=plan.root.aggs,
                )
                relation = agg.run(relation, op_stats)
            result = self._project(plan, relation)
        op_stats.charge_cpu(self.cpu_model)
        total.add(op_stats)
        total.n_result_tuples = result.n_rows
        total.wall_time_s = time.perf_counter() - started
        return result, total

    def explain(self, query: RelationalQuery, analyze: bool = False) -> str:
        """Render the DAG; with ``analyze`` execute first and show actuals."""
        plan = self.plan(query)
        actual: Optional[Tuple[RelationalResult, ExecutionStats]] = None
        if analyze:
            actual = self.execute(query)
        return explain_relational(
            plan,
            self,
            actual=actual,
            notes=self.last_notes if analyze else None,
        )

    # ------------------------------------------------------- node running

    @staticmethod
    def _join_root(
        plan: RelationalPlan,
    ) -> Union[JoinNode, ScanNode]:
        root = plan.root
        return root.child if isinstance(root, GroupAggNode) else root

    def _run_node(
        self,
        node: Union[JoinNode, ScanNode],
        plan: RelationalPlan,
        total: ExecutionStats,
        op_stats: ExecutionStats,
    ) -> Relation:
        if isinstance(node, ScanNode):
            return self._run_scan(node, None, total)
        return self._run_join(node, plan, total, op_stats)

    def _run_scan(
        self,
        scan: ScanNode,
        extra: Optional[Mapping[str, Tuple[float, float]]],
        total: ExecutionStats,
        naive: bool = False,
    ) -> Relation:
        """Execute one leaf through the table's bound engine."""
        if scan.empty:
            return self._empty_scan_relation(scan)
        if naive:
            # Benchmark mode: drop every pushed predicate — read it all and
            # post-filter (so predicate columns join the projection).
            columns = list(dict.fromkeys(list(scan.columns) + list(scan.pushed)))
            query: Optional[Query] = Query.build(
                scan.meta, columns, {}, label=f"naive:{scan.table}"
            )
        else:
            query = scan.compile_query(extra=extra)
        if query is None:
            return self._empty_scan_relation(scan)
        result, stats = self.catalog[scan.table].execute(query)
        total.add(stats)
        relation = Relation.from_result(scan.table, result)
        if naive and scan.pushed:
            # Post-filter what pushdown would have removed at the leaves.
            mask = np.ones(relation.n_rows, dtype=bool)
            for column, (lo, hi) in scan.pushed.items():
                values = relation.column(f"{scan.table}.{column}")
                mask &= (values >= lo) & (values <= hi)
            relation = relation.take(np.flatnonzero(mask))
        return relation

    def _empty_scan_relation(self, scan: ScanNode) -> Relation:
        columns: Dict[str, np.ndarray] = {
            tid_column(scan.table): np.empty(0, dtype=np.int64)
        }
        for name in scan.columns:
            columns[f"{scan.table}.{name}"] = np.empty(
                0, dtype=scan.meta.schema[name].np_dtype
            )
        return Relation(columns=columns, tid_tables=(scan.table,))

    # ------------------------------------------------------------- joins

    def _spill_config(self, build_table: str) -> Optional[SpillConfig]:
        binding = self.catalog[build_table]
        budget = self.spill_budget_bytes
        if budget is None:
            pool = getattr(binding.manager, "buffer_pool", None)
            if pool is None:
                return None
            budget = pool.capacity_bytes
        if budget is None or budget <= 0:
            return None
        return SpillConfig(
            store=binding.manager.store,
            budget_bytes=int(budget),
            io_model=binding.manager.device.profile.io_model,
        )

    def _run_join(
        self,
        node: JoinNode,
        plan: RelationalPlan,
        total: ExecutionStats,
        op_stats: ExecutionStats,
    ) -> Relation:
        from .joins import choose_join_strategy

        left_scan = node.left if isinstance(node.left, ScanNode) else None
        right_scan = node.right
        left_key_q = node.left_key.qualified
        right_key_q = node.right_key.qualified

        if left_scan is not None:
            # scan ⋈ scan: the chooser prices partition-wise vs broadcast.
            key_range = self._joint_key_range(left_scan, right_scan, node)
            strategy = choose_join_strategy(
                self.catalog[left_scan.table],
                self.catalog[right_scan.table],
                node.left_key.column,
                node.right_key.column,
                key_range,
                left_scan.columns,
                right_scan.columns,
                spill_budget_bytes=self._strategy_budget(node),
                memory_model=self.memory_model,
                force=self.force_strategy,
            )
            self.last_notes.append(
                f"join {left_key_q} = {right_key_q}: {strategy.kind} "
                f"({strategy.reason})"
            )
            for split in strategy.splits:
                self.last_notes.append(
                    f"  split [{split.lo:g}, {split.hi:g}]: {split.reason}"
                )
            if strategy.kind == "partition-wise":
                return self._run_partition_wise(
                    node, left_scan, right_scan, strategy, total, op_stats
                )
            naive = strategy.kind == "naive"
            left_rel = self._run_scan(left_scan, None, total, naive=naive)
        else:
            # Intermediate ⋈ scan: no catalog stats for the left side —
            # broadcast with the cheaper measured side building.
            left_rel = self._run_node(node.left, plan, total, op_stats)
            self.last_notes.append(
                f"join {left_key_q} = {right_key_q}: broadcast "
                "(left side is an intermediate relation)"
            )
            naive = self.force_strategy == "naive"

        right_rel = self._run_scan(right_scan, None, total, naive=naive)
        build_left = left_rel.nbytes <= right_rel.nbytes
        build = left_rel if build_left else right_rel
        probe = right_rel if build_left else left_rel
        build_table = (
            node.left_key.table if build_left else node.right_key.table
        )
        op = HashJoinOp(spill=self._spill_config(build_table))
        joined = op.run(
            build,
            probe,
            build_key=left_key_q if build_left else right_key_q,
            probe_key=right_key_q if build_left else left_key_q,
            stats=op_stats,
            build_is_left=build_left,
        )
        self.last_notes.append(
            f"  build={'left' if build_left else 'right'} mode={op.last_mode} "
            f"rows={joined.n_rows}"
        )
        return joined

    def _strategy_budget(self, node: JoinNode) -> Optional[int]:
        """The budget the *chooser* prices spilling against."""
        if self.spill_budget_bytes is not None:
            return self.spill_budget_bytes
        budgets = []
        for table in (node.left_key.table, node.right_key.table):
            pool = getattr(self.catalog[table].manager, "buffer_pool", None)
            if pool is not None:
                budgets.append(pool.capacity_bytes)
        return min(budgets) if budgets else None

    @staticmethod
    def _joint_key_range(
        left_scan: ScanNode, right_scan: ScanNode, node: JoinNode
    ) -> Tuple[float, float]:
        """Pushed bounds on the join key (equivalence already propagated)."""
        lo, hi = float("-inf"), float("inf")
        for scan, key in (
            (left_scan, node.left_key.column),
            (right_scan, node.right_key.column),
        ):
            bounds = scan.pushed.get(key)
            interval = scan.meta.interval(key)
            blo = bounds[0] if bounds else interval.lo
            bhi = bounds[1] if bounds else interval.hi
            lo, hi = max(lo, blo), min(hi, bhi)
        return lo, hi

    def _run_partition_wise(
        self,
        node: JoinNode,
        left_scan: ScanNode,
        right_scan: ScanNode,
        strategy,
        total: ExecutionStats,
        op_stats: ExecutionStats,
    ) -> Relation:
        left_key_q = node.left_key.qualified
        right_key_q = node.right_key.qualified
        parts: List[Relation] = []
        tracer = obs_tracer()
        for split in strategy.splits:
            with tracer.span(
                "exec.join.split", lo=split.lo, hi=split.hi,
                build=split.build_side,
            ):
                left_rel = self._run_scan(
                    left_scan,
                    {node.left_key.column: split.key_range},
                    total,
                )
                right_rel = self._run_scan(
                    right_scan,
                    {node.right_key.column: split.key_range},
                    total,
                )
                build_left = split.build_side == "left"
                build = left_rel if build_left else right_rel
                probe = right_rel if build_left else left_rel
                build_table = (
                    node.left_key.table if build_left
                    else node.right_key.table
                )
                op = HashJoinOp(spill=self._spill_config(build_table))
                parts.append(
                    op.run(
                        build,
                        probe,
                        build_key=left_key_q if build_left else right_key_q,
                        probe_key=right_key_q if build_left else left_key_q,
                        stats=op_stats,
                        build_is_left=build_left,
                    )
                )
        if not parts:
            # No split overlapped the pushed range: provably empty join.
            left_rel = self._empty_scan_relation(left_scan)
            right_rel = self._empty_scan_relation(right_scan)
            op = HashJoinOp()
            return op.run(
                left_rel, right_rel, left_key_q, right_key_q, op_stats, True
            )
        return Relation.concat(parts)

    # -------------------------------------------------------- projection

    def _project(
        self, plan: RelationalPlan, relation: Relation
    ) -> RelationalResult:
        columns: Dict[str, np.ndarray] = {}
        for item, name in zip(plan.query.select, plan.output):
            if isinstance(item, AggSpec):
                columns[name] = relation.column(name)
            else:
                columns[name] = relation.column(item.qualified)
        return RelationalResult(columns)


# ------------------------------------------------------------------ explain


def explain_relational(
    plan: RelationalPlan,
    executor: Optional[DagExecutor] = None,
    actual: Optional[Tuple[RelationalResult, ExecutionStats]] = None,
    notes: Optional[List[str]] = None,
) -> str:
    """Text rendering of the DAG, with join-choice reasons per split.

    Without ``executor`` the tree shows only logical structure.  With one,
    each scan⋈scan join shows the priced strategy; with ``actual`` (an
    executed ``(result, stats)`` pair) the footer adds measured totals.
    """
    from .joins import choose_join_strategy

    lines: List[str] = [f"RelationalPlan: {', '.join(plan.output)}"]
    for note in plan.notes:
        lines.append(f"  note: {note}")

    def render(node, depth: int) -> None:
        pad = "  " * depth
        if isinstance(node, GroupAggNode):
            keys = ", ".join(k.qualified for k in node.keys) or "<scalar>"
            aggs = ", ".join(a.name for a in node.aggs)
            lines.append(f"{pad}GroupAgg keys=[{keys}] aggs=[{aggs}]")
            render(node.child, depth + 1)
        elif isinstance(node, JoinNode):
            header = f"{pad}HashJoin {node.left_key} = {node.right_key}"
            left_scan = node.left if isinstance(node.left, ScanNode) else None
            if executor is not None and left_scan is not None:
                key_range = DagExecutor._joint_key_range(
                    left_scan, node.right, node
                )
                strategy = choose_join_strategy(
                    executor.catalog[left_scan.table],
                    executor.catalog[node.right.table],
                    node.left_key.column,
                    node.right_key.column,
                    key_range,
                    left_scan.columns,
                    node.right.columns,
                    spill_budget_bytes=executor._strategy_budget(node),
                    memory_model=executor.memory_model,
                    force=executor.force_strategy,
                )
                header += f" [{strategy.kind}: {strategy.reason}]"
                lines.append(header)
                for split in strategy.splits:
                    lines.append(
                        f"{pad}  split [{split.lo:g}, {split.hi:g}] "
                        f"{split.reason}"
                    )
            else:
                if executor is not None:
                    header += " [broadcast: left side is an intermediate]"
                lines.append(header)
            render(node.left, depth + 1)
            render(node.right, depth + 1)
        else:  # ScanNode
            preds = " AND ".join(
                f"{lo:g} <= {name} <= {hi:g}"
                for name, (lo, hi) in sorted(node.pushed.items())
            )
            suffix = f" WHERE {preds}" if preds else ""
            if node.empty:
                suffix += " [provably empty]"
            lines.append(
                f"{pad}Scan {node.table} "
                f"[{', '.join(node.columns)}]{suffix}"
            )
            for column, source in sorted(node.propagated.items()):
                lines.append(
                    f"{pad}  pushed {column!r} via join-key equivalence "
                    f"({source})"
                )

    render(plan.root, 1)
    if notes:
        lines.append("execution:")
        for note in notes:
            lines.append(f"  {note}")
    if actual is not None:
        result, stats = actual
        lines.append(
            f"actual: {result.n_rows} rows, "
            f"sim io {stats.io_time_s:.6f}s, sim cpu {stats.cpu_time_s:.6f}s, "
            f"{stats.n_partition_reads} partition reads, "
            f"{stats.n_partitions_pruned} pruned, "
            f"{stats.n_spill_chunks} spill chunks"
        )
    return "\n".join(lines)
