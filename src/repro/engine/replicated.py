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
(:meth:`~repro.plan.physical.QueryPlanner.plan_replica_local`); the plan's
``replica_fallback`` policy marks that an unreadable partition retreats to
the standard engine rather than degrading in place.
"""

from __future__ import annotations

import time
from typing import Tuple

from ..core.query import Query
from ..core.schema import TableMeta
from ..errors import PartitionUnreadableError, StorageError
from ..obs import record_query
from ..obs import tracer as obs_tracer
from ..plan.explain import ExplainReport
from ..plan.logical import POLICY_SCAN
from ..plan.operators import (
    DegradeOp,
    PlanReader,
    ProjectFillOp,
    SelectOp,
    finalize_stats,
    run_selection,
    stored_cells,
)
from ..plan.physical import PhysicalPlan, QueryPlanner
from ..plan.result import ResultSet
from ..plan.stats import CpuModel, ExecutionStats
from ..storage.partition_manager import PartitionManager
from ..storage.prefetch import Prefetcher
from .partition_at_a_time import PartitionAtATimeExecutor

__all__ = ["ReplicatedExecutor"]


class ReplicatedExecutor:
    """Dispatches between local (replica-enabled) and standard evaluation."""

    def __init__(
        self,
        manager: PartitionManager,
        table: TableMeta,
        cpu_model: CpuModel | None = None,
        zone_maps: bool = False,
        prefetch_depth: int = 0,
        partition_cache=None,
    ):
        self.manager = manager
        self.table = table
        self.cpu_model = cpu_model or CpuModel()
        self.prefetch_depth = prefetch_depth
        self.standard = PartitionAtATimeExecutor(
            manager, table, cpu_model=cpu_model, zone_maps=zone_maps,
            prefetch_depth=prefetch_depth, partition_cache=partition_cache,
        )
        self.planner = QueryPlanner(
            manager,
            table,
            policy=POLICY_SCAN,
            pruning=True,
            replica_fallback=True,
            partition_cache=partition_cache,
        )

    # ------------------------------------------------------------ planning

    def local_plan(self, query: Query) -> Tuple[int, ...] | None:
        """The partitions a local evaluation would read, or None if the
        query cannot be evaluated partition-locally."""
        return self.planner.plan_local(query)

    def plan(self, query: Query) -> PhysicalPlan:
        """The physical plan ``execute`` would drive (no I/O): the local
        plan when the query localizes, the standard engine's otherwise."""
        local = self.planner.plan_replica_local(query)
        if local is not None:
            return local
        return self.standard.plan(query)

    def explain(self, query: Query) -> ExplainReport:
        """Snapshot of the plan's pruning and access decisions."""
        local = self.planner.plan_replica_local(query)
        if local is not None:
            return local.explain(engine="replicated-local")
        return self.standard.plan(query).explain(
            engine="replicated (fallback: partition-at-a-time)"
        )

    # ------------------------------------------------------------ execute

    def execute(
        self, query: Query, snapshot=None
    ) -> Tuple[ResultSet, ExecutionStats]:
        plan = self.planner.plan_replica_local(query, snapshot=snapshot)
        if plan is None:
            return self.standard.execute(query, snapshot=snapshot)
        started = time.perf_counter()
        stats = ExecutionStats()
        tracer = obs_tracer()
        with tracer.phase(
            "exec.query", stats, cpu_model=self.cpu_model,
            engine="replicated-local",
        ):
            result, final_stats, engine = self._run_local(
                query, plan, stats, started, tracer
            )
        if engine is not None:
            # The fallback path already published through the standard
            # engine; publishing the combined ledger again would double
            # count, so only the clean local path records here.
            record_query(engine, plan, final_stats, query=query)
        return result, final_stats

    def _run_local(
        self,
        query: Query,
        plan: PhysicalPlan,
        stats: ExecutionStats,
        started: float,
        tracer,
    ) -> Tuple[ResultSet, ExecutionStats, str | None]:
        projected = plan.logical.projected
        # One status vector serves every partition: full coverage puts all
        # of a tuple's predicate cells in each of its homes, so its verdict
        # is final where it is reached — and a pruned home's zone (it covers
        # every local tuple's predicate cells) proves none of its tuples
        # match.  Predicates only: the emit pass below gathers the projected
        # cells, so nothing is stashed.
        select_op = SelectOp(
            plan.logical.conjunction,
            n_tuples=self.table.n_tuples,
            snapshot=plan.snapshot,
        )
        prefetcher = None
        if self.prefetch_depth > 0:
            prefetcher = Prefetcher(self.manager, depth=self.prefetch_depth)
        loaded: dict = {}  # pid -> partition, kept for the emit pass
        reader = PlanReader(
            self.manager, stats, cache=loaded, prefetcher=prefetcher
        )

        def process(pid: int, partition) -> None:
            stats.cells_scanned += stored_cells(partition)
            select_op.select(partition)

        try:
            with tracer.phase("exec.local", stats, cpu_model=self.cpu_model):
                try:
                    run_selection(
                        plan, reader,
                        DegradeOp(self.manager, stats, enabled=False),
                        select_op, stats, process,
                    )
                except PartitionUnreadableError as exc:
                    # Local evaluation needs this exact partition (it owns
                    # the tuples), so there is no partition-local
                    # substitute; retreat to the standard engine, whose
                    # tuple-level index can reassemble the lost cells from
                    # replicas or overlapping primaries — or prove that
                    # nothing can.  The aborted local attempt's I/O and
                    # CPU events stay on the bill.
                    stats.n_unreadable_partitions += 1
                    if exc.io_delta is not None:
                        stats.accrue_io(exc.io_delta)
                    result, fallback = self.standard.execute(
                        query, snapshot=plan.snapshot
                    )
                    fallback.add(stats)
                    fallback.charge_cpu(self.cpu_model)
                    fallback.wall_time_s = time.perf_counter() - started
                    return result, fallback, None
                # Emit the projected cells of the matching tuples (primary
                # segments only — a replica's cells belong to some other
                # partition's tuples and would double-emit).
                fill_op = ProjectFillOp(projected, select_op, self.table.schema)
                for partition in loaded.values():
                    stats.cells_gathered += fill_op.fill(
                        partition, skip_replicas=True
                    )
        finally:
            if prefetcher is not None:
                prefetcher.close()

        for name in projected:
            missing = fill_op.missing(name)
            if len(missing):
                raise StorageError(
                    f"local evaluation missed attribute {name!r} for "
                    f"{len(missing)} tuples"
                )
        result = fill_op.result(stats)
        finalize_stats(stats, self.cpu_model, started)
        return result, stats, "replicated-local"
