"""DAG execution: run a relational plan over catalog-bound single-table engines.

The executor walks the logical DAG bottom-up.  Every :class:`ScanNode` leaf
compiles to an ordinary single-table :class:`~repro.core.query.Query` and
runs through the table's *bound* engine (whatever
:class:`~repro.layouts.base.MaterializedLayout` the catalog holds — scan,
partition-at-a-time or threaded), so zone/sketch/cache pruning,
fault degradation, tracing spans and simulated accounting all come
from the existing machinery.  Join nodes consult
:func:`~repro.plan.joins.choose_join_strategy`:

* **partition-wise** — the scan pair is re-run once per disjoint key split
  with the split's key range pushed into both leaves (the single-table
  planner then zone-prunes every partition outside the split), and each
  split joins independently with its own build-side choice;
* **broadcast** — each side scans once and the smaller side builds.

Build sides that exceed the spill budget degrade to a Grace join through
:class:`~repro.plan.relops.SpillConfig` (chunks written to the build table's
blob store).  Where row order is observed, outputs are canonically ordered
by source tuple ids, so every strategy/spill combination returns
byte-identical results.  An order-insensitive aggregate root
(:func:`~repro.plan.relational.place_aggregate`) carries no tuple ids and
sorts nothing: splits reach it as partial groups, and a side owning every
aggregate input is grouped below the join when that is priced to pay.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from ..core.cost import MemoryModel
from ..core.query import Query
from ..core.schema import TableMeta
from ..errors import InvalidQueryError
from ..obs import request_scope
from ..obs import tracer as obs_tracer
from .joins import JoinStrategy, choose_join_strategy, pinned
from .relational import (
    GroupAggNode,
    JoinNode,
    RelationalPlan,
    RelationalQuery,
    ScanNode,
    build_relational_plan,
)
from .relops import GroupAggOp, HashJoinOp, Relation, SpillConfig, partial_aggs
from .result import ResultSet
from .stats import CpuModel, ExecutionStats

__all__ = ["Catalog", "DagExecutor", "RelationalResult", "explain_relational"]


class Catalog:
    """Named, queryable table bindings the DAG executor runs leaves through.

    A binding is anything shaped like a
    :class:`~repro.layouts.base.MaterializedLayout`: ``.table``
    (:class:`TableMeta`), ``.manager``, and ``.executor``, whose
    ``execute(query, snapshot=)`` returns ``(ResultSet, ExecutionStats)``
    read from the catalog view the DAG pinned for the table.
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


@dataclass(frozen=True, slots=True)
class PhysicalChoice:
    """What the physical layer decided for one plan on one catalog state:
    priced once by :meth:`DagExecutor.choose`, read by the executor and by
    EXPLAIN alike."""

    #: the scan ⋈ scan join's priced shape (None: the plan has no join).
    strategy: Optional[JoinStrategy] = None
    #: why rows must reach the root in canonical order; "" when the root is
    #: an order-insensitive aggregate (no tid columns, no sort).
    ordered: str = ""
    #: the join side grouped *below* the join, when that was priced to pay.
    partial_side: Optional[str] = None
    #: the aggregate placement as EXPLAIN prints it on the GroupAgg line.
    label: str = ""


@dataclass(slots=True)
class _Run:
    """One execution's state, threaded through the node runners."""

    choice: PhysicalChoice
    #: table -> the catalog view pinned before planning: the join priced
    #: it, and every leaf scan of the table reads it.
    views: Dict[str, Any]
    total: ExecutionStats = field(default_factory=ExecutionStats)
    ops: ExecutionStats = field(default_factory=ExecutionStats)
    notes: List[str] = field(default_factory=list)
    #: groups ``choice.partial_side`` right after its scan.
    side_op: Optional[GroupAggOp] = None
    #: reduces each partition-wise split's join output to partial groups.
    split_op: Optional[GroupAggOp] = None


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
        #: the last finished execution's notes for EXPLAIN ANALYZE; replaced
        #: whole, so concurrent executions never interleave lines.
        self.last_notes: List[str] = []

    # ------------------------------------------------------------ public

    def plan(self, query: RelationalQuery) -> RelationalPlan:
        return build_relational_plan(query, self.catalog.metas())

    def execute(
        self, query: RelationalQuery
    ) -> Tuple[RelationalResult, ExecutionStats]:
        result, stats, _run = self._execute(self.plan(query))
        return result, stats

    def explain(self, query: RelationalQuery, analyze: bool = False) -> str:
        """Render the DAG; with ``analyze`` execute first and show actuals."""
        plan = self.plan(query)
        if not analyze:
            return explain_relational(plan, self)
        result, stats, run = self._execute(plan)
        return explain_relational(plan, self, (result, stats), run.notes, run.choice)

    def choose(
        self, plan: RelationalPlan, views: Optional[Mapping[str, Any]] = None
    ) -> PhysicalChoice:
        """Price the join strategy and place the aggregate — the one decision.

        The join is priced from ``views`` (table -> pinned catalog view, the
        versions the leaf scans read); a plan-only caller passes none and
        the current versions are pinned for the pricing.

        An order-insensitive aggregate (:func:`place_aggregate`) drops the
        tid columns and the canonical sort; a side owning every aggregate
        input is additionally grouped below the join when the simulated
        seconds its smaller join and root input save exceed the pre-group's
        hash inserts.
        """
        if views is None:
            with self._pinned(plan) as views:
                return self.choose(plan, views)
        strategy = None
        if plan.join_nodes:
            node = plan.join_nodes[0]
            assert isinstance(node.left, ScanNode)
            # Equivalence propagation pushed the same joint key bounds into
            # both scans (a provably empty scan carries none and reads nothing).
            domain = node.right.meta.interval(node.right_key.column)
            tables = (node.left.table, node.right.table)
            budgets = [b for b in map(self._budget, tables) if b is not None]
            strategy = choose_join_strategy(
                self.catalog[tables[0]],
                self.catalog[tables[1]],
                node.left_key.column,
                node.right_key.column,
                node.right.pushed.get(
                    node.right_key.column, (domain.lo, domain.hi)
                ),
                node.left.columns,
                node.right.columns,
                spill_budget_bytes=min(budgets, default=None),
                memory_model=self.memory_model,
                force=self.force_strategy,
                views=[views[table] for table in tables],
            )
        root = plan.root
        if not isinstance(root, GroupAggNode):
            return PhysicalChoice(strategy, "rows are returned in tuple-id order")
        if root.placement.ordered:
            reason = root.placement.ordered
            return PhysicalChoice(strategy, reason, label=f"ordered: {reason}")
        side: Optional[str] = None
        gain, label = 0.0, "order-insensitive"
        for table in root.placement.partial_sides:
            assert strategy is not None
            is_left = table == plan.query.tables[0]  # a scan ⋈ scan join
            scan = plan.scans[table]
            rows = min(
                strategy.left_rows_est if is_left else strategy.right_rows_est,
                float(scan.meta.n_tuples),
            )
            # Group bound: the pushed widths of the (integer) group keys.
            groups, keys = rows, root.partial_keys(table)
            if all(scan.meta.schema[k.column].integer for k in keys):
                widths = []
                for k in keys:
                    domain = scan.meta.interval(k.column)
                    lo, hi = scan.pushed.get(k.column, (domain.lo, domain.hi))
                    widths.append(hi - lo + 1)
                groups = min(rows, float(np.prod(widths)))
            # Each row the pre-group removes saves at least its probe and its
            # root hash insert; the pre-group costs mem(rows) inserts.
            cpu = self.cpu_model
            saved = (rows - groups) * (
                cpu.hash_update_s + cpu.hash_insert_s
            ) - self.memory_model.mem(rows)
            size = f"≤{groups:.0f} groups of ~{rows:.0f} rows"
            if saved > gain:
                by = ", ".join(k.column for k in keys)
                gain, side = saved, table
                label = f"partial below join: {table} by {by}, {size}"
            elif side is None:
                label = f"order-insensitive; no partial pays: {table} has {size}"
        return PhysicalChoice(strategy, "", side, label)

    # ------------------------------------------------------- node running

    @contextmanager
    def _pinned(self, plan: RelationalPlan) -> Iterator[Dict[str, Any]]:
        """Pin each table's catalog view: table -> view."""
        tables = plan.query.tables
        with pinned([self.catalog[table] for table in tables]) as views:
            yield dict(zip(tables, views))

    def _execute(
        self, plan: RelationalPlan
    ) -> Tuple[RelationalResult, ExecutionStats, _Run]:
        with request_scope("dag", plan.query) as scope, self._pinned(plan) as views:
            result, stats, run = self._execute_plan(plan, views)
            scope.complete(stats, table=",".join(plan.query.tables))
        return result, stats, run

    def _execute_plan(
        self, plan: RelationalPlan, views: Dict[str, Any]
    ) -> Tuple[RelationalResult, ExecutionStats, _Run]:
        started = time.perf_counter()
        run = _Run(self.choose(plan, views), views)
        choice, root = run.choice, plan.root
        node = root.child if isinstance(root, GroupAggNode) else root
        root_op: Optional[GroupAggOp] = None
        if isinstance(root, GroupAggNode):
            keys = [k.qualified for k in root.keys]
            mergeable = partial_aggs(root.aggs)
            form: Callable[..., GroupAggOp] = GroupAggOp
            if choice.partial_side is not None:
                run.side_op = GroupAggOp(
                    [k.qualified for k in root.partial_keys(choice.partial_side)],
                    mergeable,
                )
                form = GroupAggOp.combining
            strategy = choice.strategy
            if (
                not choice.ordered
                and strategy is not None
                and strategy.kind == "partition-wise"
                and len(plan.join_nodes) == 1
            ):
                run.split_op = form(keys, mergeable)
                form = GroupAggOp.combining
            root_op = form(keys, root.aggs)
        with obs_tracer().span("exec.dag", tables=",".join(plan.query.tables)):
            if isinstance(node, ScanNode):
                relation = self._run_scan(node, run)
            else:
                relation = self._run_join(node, run)
            if choice.ordered and relation.ordered and relation.n_rows > 1:
                run.notes.append("sort skipped (probe order is canonical)")
            elif choice.ordered:
                relation = relation.sorted_canonical()
            if root_op is not None:
                relation = root_op.run(relation, run.ops)
            # Output names are the qualified columns and the aggregate names.
            result = RelationalResult(
                {name: relation.column(name) for name in plan.output}
            )
        run.ops.charge_cpu(self.cpu_model)
        run.total.add(run.ops)
        run.total.n_result_tuples = result.n_rows
        run.total.wall_time_s = time.perf_counter() - started
        self.last_notes = run.notes
        return result, run.total, run

    def _run_scan(
        self,
        scan: ScanNode,
        run: _Run,
        extra: Optional[Mapping[str, Tuple[float, float]]] = None,
        naive: bool = False,
    ) -> Relation:
        """Execute one leaf through the table's bound engine (and group it
        straight away when it is the side holding the partial)."""
        query: Optional[Query] = None
        if naive and not scan.empty:
            # Benchmark mode: drop every pushed predicate — read it all and
            # post-filter (so predicate columns join the projection).
            columns = list(dict.fromkeys(list(scan.columns) + list(scan.pushed)))
            query = Query.build(scan.meta, columns, {}, label=f"naive:{scan.table}")
        elif not scan.empty:
            query = scan.compile_query(extra=extra)
        if query is None:
            result = ResultSet(np.empty(0, dtype=np.int64), {
                name: np.empty(0, dtype=scan.meta.schema[name].np_dtype)
                for name in scan.columns
            })
        else:
            engine = self.catalog[scan.table].executor
            result, stats = engine.execute(query, snapshot=run.views[scan.table])
            run.total.add(stats)
        tids = bool(run.choice.ordered)
        relation = Relation.from_result(scan.table, result, tids)
        if naive and scan.pushed and query is not None:
            # Post-filter what pushdown would have removed at the leaves.
            mask = np.ones(relation.n_rows, dtype=bool)
            for column, (lo, hi) in scan.pushed.items():
                values = relation.column(f"{scan.table}.{column}")
                mask &= (values >= lo) & (values <= hi)
            relation = relation.take(np.flatnonzero(mask))
        if run.side_op is not None and scan.table == run.choice.partial_side:
            relation = run.side_op.run(relation, run.ops)
        return relation

    # ------------------------------------------------------------- joins

    def _budget(self, table: str) -> Optional[int]:
        """Spill budget for a build side from ``table``: the configured one,
        else the table's buffer-pool capacity (no pool: unbounded)."""
        if self.spill_budget_bytes is not None:
            return self.spill_budget_bytes
        pool = getattr(self.catalog[table].manager, "buffer_pool", None)
        return None if pool is None else pool.capacity_bytes

    def _spill_config(self, build_table: str) -> Optional[SpillConfig]:
        budget = self._budget(build_table)
        if budget is None or budget <= 0:
            return None
        manager = self.catalog[build_table].manager
        return SpillConfig(
            store=manager.store,
            budget_bytes=int(budget),
            io_model=manager.device.profile.io_model,
        )

    def _hash_join(
        self,
        node: JoinNode,
        left_rel: Relation,
        right_rel: Relation,
        build_left: Optional[bool],
        run: _Run,
    ) -> Relation:
        """One :class:`HashJoinOp` run; without a priced ``build_left`` the
        smaller measured side builds."""
        if build_left is None:
            build_left = left_rel.nbytes <= right_rel.nbytes
        sides = [(left_rel, node.left_key), (right_rel, node.right_key)]
        (build, build_key), (probe, probe_key) = (
            sides if build_left else sides[::-1]
        )
        op = HashJoinOp(spill=self._spill_config(build_key.table))
        joined = op.run(
            build, probe, build_key.qualified, probe_key.qualified,
            stats=run.ops, build_is_left=build_left,
        )
        run.notes.append(
            f"  build={'left' if build_left else 'right'} mode={op.last_mode} "
            f"rows={joined.n_rows}"
        )
        return joined

    def _run_join(self, node: JoinNode, run: _Run) -> Relation:
        header = f"join {node.left_key} = {node.right_key}"
        if isinstance(node.left, ScanNode):
            # scan ⋈ scan: the chooser priced partition-wise vs broadcast.
            strategy = run.choice.strategy
            assert strategy is not None
            run.notes.append(f"{header}: {strategy.kind} ({strategy.reason})")
            run.notes.extend(
                f"  split [{split.lo:g}, {split.hi:g}]: {split.reason}"
                for split in strategy.splits
            )
            if strategy.kind == "partition-wise":
                return self._run_partition_wise(node, strategy, run)
            naive = strategy.kind == "naive"
            left_rel = self._run_scan(node.left, run, naive=naive)
        else:
            # Intermediate ⋈ scan: no catalog stats for the left side —
            # broadcast with the cheaper measured side building.
            left_rel = self._run_join(node.left, run)
            run.notes.append(
                f"{header}: broadcast (left side is an intermediate relation)"
            )
            naive = self.force_strategy == "naive"
        right_rel = self._run_scan(node.right, run, naive=naive)
        return self._hash_join(node, left_rel, right_rel, None, run)

    def _run_partition_wise(
        self, node: JoinNode, strategy: JoinStrategy, run: _Run
    ) -> Relation:
        """One scan pair and join per key split; an order-insensitive root
        receives each split as partial groups, never the joined rows."""
        parts: List[Relation] = []
        tracer = obs_tracer()
        for split in strategy.splits:
            with tracer.span(
                "exec.join.split", lo=split.lo, hi=split.hi,
                build=split.build_side,
            ):
                joined = self._join_range(
                    node, split.key_range, split.build_side == "left", run
                )
                if run.split_op is None:
                    parts.append(joined)
                elif joined.n_rows:
                    parts.append(run.split_op.run(joined, run.ops))
        if not parts:
            # Nothing to merge (no split overlapped the pushed range, or no
            # split matched): a join over an empty key range, whose scans
            # compile to no query at all, still shapes the output columns.
            parts.append(self._join_range(node, (1.0, 0.0), True, run))
        return Relation.concat(parts)

    def _join_range(
        self,
        node: JoinNode,
        key_range: Tuple[float, float],
        build_left: bool,
        run: _Run,
    ) -> Relation:
        assert isinstance(node.left, ScanNode)
        left_rel = self._run_scan(node.left, run, {node.left_key.column: key_range})
        right_rel = self._run_scan(node.right, run, {node.right_key.column: key_range})
        return self._hash_join(node, left_rel, right_rel, build_left, run)


# ------------------------------------------------------------------ explain


def explain_relational(
    plan: RelationalPlan,
    executor: Optional[DagExecutor] = None,
    actual: Optional[Tuple[RelationalResult, ExecutionStats]] = None,
    notes: Optional[List[str]] = None,
    choice: Optional[PhysicalChoice] = None,
) -> str:
    """Text rendering of the DAG, with join-choice reasons per split.

    Without ``executor`` the tree shows only logical structure.  With one,
    the scan⋈scan join shows the priced strategy and the aggregate its
    placement (``choice``: what an execution already decided, else priced
    here); with ``actual`` (an executed ``(result, stats)`` pair) the footer
    adds measured totals.
    """
    if choice is None and executor is not None:
        choice = executor.choose(plan)
    lines: List[str] = [f"RelationalPlan: {', '.join(plan.output)}"]
    lines.extend(f"  note: {note}" for note in plan.notes)

    def render(node, depth: int) -> None:
        pad = "  " * depth
        if isinstance(node, GroupAggNode):
            keys = ", ".join(k.qualified for k in node.keys) or "<scalar>"
            aggs = ", ".join(a.name for a in node.aggs)
            placed = f" [{choice.label}]" if choice else ""
            lines.append(f"{pad}GroupAgg keys=[{keys}] aggs=[{aggs}]{placed}")
            render(node.child, depth + 1)
        elif isinstance(node, JoinNode):
            header = f"{pad}HashJoin {node.left_key} = {node.right_key}"
            if choice is None:
                lines.append(header)
            elif isinstance(node.left, ScanNode) and choice.strategy is not None:
                strategy = choice.strategy
                lines.append(f"{header} [{strategy.kind}: {strategy.reason}]")
                lines.extend(
                    f"{pad}  split [{split.lo:g}, {split.hi:g}] {split.reason}"
                    for split in strategy.splits
                )
            else:
                lines.append(f"{header} [broadcast: left side is an intermediate]")
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
            lines.extend(
                f"{pad}  pushed {column!r} via join-key equivalence ({source})"
                for column, source in sorted(node.propagated.items())
            )

    render(plan.root, 1)
    if notes:
        lines.append("execution:")
        lines.extend(f"  {note}" for note in notes)
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
