"""Partition-local query evaluation over replicated layouts.

Companion to :mod:`repro.core.replication`: when every partition holding a
query's projected cells also holds (natively or via replicas) *all* of the
query's predicate attributes for its own tuples, the query is evaluated
**partition-locally** — each partition filters its own tuples and emits
their projected cells.  No predicate-only partition is read and no tuple
passes through the global reconstruction hash table, which is exactly the
cost the paper's future-work note wants to avoid.

Queries that cannot be localized (or that have no predicates) fall back to
the standard partition-at-a-time engine transparently.  The localizability
test and the local access list live in the planner
(:meth:`~repro.plan.physical.QueryPlanner.plan_replica_local`), and so does
the fault policy the :class:`~repro.engine.base.QueryEngine` scaffold
enforces: no degraded reads in place, and ``replica_fallback`` — an
unreadable partition retreats to the standard engine (:meth:`_retreat`).
The driver owns that dispatch and retreat plus the two local phases: filter
each home partition's own tuples, then emit their projected cells.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..core.query import Query
from ..core.schema import TableMeta
from ..errors import PartitionUnreadableError
from ..plan.explain import ExplainReport
from ..plan.logical import POLICY_SCAN
from ..plan.operators import ProjectFillOp, SelectOp, stored_cells
from ..plan.physical import PhysicalPlan
from ..plan.result import ResultSet
from ..plan.stats import ExecutionStats
from ..storage.partition_manager import CatalogSnapshot, PartitionManager
from .base import QueryEngine, QueryRun, run_selection
from .partition_at_a_time import PartitionAtATimeExecutor

__all__ = ["ReplicatedExecutor"]


class ReplicatedExecutor(QueryEngine):
    """Dispatches between local (replica-enabled) and standard evaluation."""

    name = "replicated-local"
    policy = POLICY_SCAN
    defaults = PartitionAtATimeExecutor.defaults

    def __init__(
        self, manager: PartitionManager, table: TableMeta, **options: Any
    ):
        super().__init__(manager, table, **options)
        #: the engine non-localizable queries (and retreats) run on;
        #: ``zone_maps`` is its pruning knob — the local path always prunes.
        self.standard = PartitionAtATimeExecutor(manager, table, **self.options)
        self.inner = (self.standard,)

    def _planning(self) -> Dict[str, Any]:
        return {"pruning": True, "degrade_enabled": False, "replica_fallback": True}

    # ------------------------------------------------------------ planning

    def local_plan(self, query: Query) -> Tuple[int, ...] | None:
        """The partitions a local evaluation would read, or None if the
        query cannot be evaluated partition-locally."""
        with self.manager.pin_snapshot() as view:
            return self.planner.plan_local(query, view)

    def plan(self, query: Query) -> PhysicalPlan:
        """The physical plan ``execute`` would drive (no I/O): the local
        plan when the query localizes, the standard engine's otherwise."""
        with self.manager.pin_snapshot() as view:
            local = self.planner.plan_replica_local(query, view)
            return local or self.standard.planner.plan(query, snapshot=view)

    def explain(self, query: Query) -> ExplainReport:
        """Snapshot of the plan's pruning and access decisions."""
        plan = self.plan(query)
        if plan.policy.replica_fallback:  # only the local plan retreats
            return plan.explain(engine=self.name)
        return plan.explain(engine=f"replicated (fallback: {self.standard.name})")

    # ------------------------------------------------------------ execute

    def execute(
        self, query: Query, snapshot: Optional[CatalogSnapshot] = None
    ) -> Tuple[ResultSet, ExecutionStats]:
        if snapshot is None:
            with self.manager.pin_snapshot() as snapshot:
                return self.execute(query, snapshot)
        plan = self.planner.plan_replica_local(query, snapshot)
        if plan is None:
            return self.standard.execute(query, snapshot=snapshot)
        return self._run(query, snapshot, plan)

    def _select(self, run: QueryRun) -> SelectOp:
        plan, reader, degrade, stats = run
        reader.cache = {}  # pid -> partition, kept for the emit pass
        # One status vector serves every partition: full coverage puts all
        # of a tuple's predicate cells in each of its homes, so its verdict
        # is final where it is reached — and a pruned home's zone (it covers
        # every local tuple's predicate cells) proves none of its tuples
        # match.  Predicates only: the emit pass gathers the projected
        # cells, so nothing is stashed.
        select_op = SelectOp(
            plan.logical.conjunction,
            n_tuples=self.table.n_tuples,
            valid_mask=plan.snapshot.valid_mask,
        )

        def process(pid: int, partition) -> None:
            stats.cells_scanned += stored_cells(partition)
            select_op.select(partition)

        run_selection(plan, reader, degrade, select_op, stats, process)
        return select_op

    def _project(self, run: QueryRun, fill_op: ProjectFillOp) -> None:
        # Emit the projected cells of the matching tuples (primary segments
        # only — a replica's cells belong to some other partition's tuples
        # and would double-emit).
        assert run.reader.cache is not None
        for partition in run.reader.cache.values():
            run.stats.cells_gathered += fill_op.fill(partition, skip_replicas=True)

    def _retreat(
        self, query: Query, run: QueryRun, exc: PartitionUnreadableError
    ) -> Tuple[ResultSet, ExecutionStats]:
        # Local evaluation needs this exact partition (it owns the tuples),
        # so there is no partition-local substitute; retreat to the standard
        # engine, whose tuple-level index can reassemble the lost cells from
        # replicas or overlapping primaries — or prove that nothing can.
        # The aborted local attempt's I/O and CPU events stay on the bill.
        stats = run.stats
        stats.n_unreadable_partitions += 1
        if exc.io_delta is not None:
            stats.accrue_io(exc.io_delta)
        result, combined = self.standard.execute(
            query, snapshot=run.plan.snapshot
        )
        combined.add(stats)
        return result, combined
