"""Scan-based query evaluation for the rectangular baselines.

One engine serves all six baselines because they differ only in how the
table was materialized, not in how a conjunctive scan query must be answered:

* **Row / Row-H** — every partition stores whole rows; the engine scans each
  partition like a block iterator (tuple-at-a-time with per-block
  amortization), so ``row_major=True`` charges per-tuple iterator overhead.
* **Column / Column-H / Row-V / Hierarchical** — operator-at-a-time: build a
  selection vector per predicate attribute, AND them, then gather the
  projected columns; ``row_major=False`` charges materialized selection
  vectors instead.

The executor is a thin serial driver over the shared planning layer: the
:class:`~repro.plan.physical.QueryPlanner` (scan pruning policy — a
partition whose zone refutes *any* predicate cannot contribute a qualifying
tuple) produces the access lists, and the :mod:`~repro.plan.operators`
core — the same selection-vector ops the partition-at-a-time engine drives,
priced by this engine's own counter rule — evaluates them.  Zone pruning is
the mechanism behind Column-H's advantage over Column in the paper, and the
reason that advantage decays as query templates multiply.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

import numpy as np

from ..core.query import Query
from ..core.schema import TableMeta
from ..errors import PartitionUnreadableError, StorageError
from ..obs import record_query
from ..obs import tracer as obs_tracer
from ..plan.degrade import FaultContext
from ..plan.explain import ExplainReport
from ..plan.logical import POLICY_SCAN
from ..plan.operators import (
    AccessLoop,
    DegradeOp,
    PlanReader,
    ProjectFillOp,
    SelectOp,
    count_prune,
    finalize_stats,
    run_selection,
)
from ..plan.physical import PhysicalPlan, QueryPlanner
from ..plan.result import ResultSet
from ..plan.stats import CpuModel, ExecutionStats
from ..storage.partition_manager import PartitionManager
from ..storage.prefetch import Prefetcher

__all__ = ["ScanExecutor"]


class ScanExecutor:
    """Evaluates conjunctive scan queries on rectangular layouts."""

    def __init__(
        self,
        manager: PartitionManager,
        table: TableMeta,
        cpu_model: CpuModel | None = None,
        zone_maps: bool = True,
        chunk_size: int | None = None,
        row_major: bool = False,
        pin_pool: bool = False,
        prefetch_depth: int = 0,
        partition_cache=None,
    ):
        self.manager = manager
        self.table = table
        self.cpu_model = cpu_model or CpuModel()
        self.zone_maps = zone_maps
        self.chunk_size = chunk_size
        self.row_major = row_major
        self.prefetch_depth = prefetch_depth
        self.planner = QueryPlanner(
            manager,
            table,
            policy=POLICY_SCAN,
            pruning=zone_maps,
            pin_pool=pin_pool,
            chunk_size=chunk_size,
            partition_cache=partition_cache,
        )

    # ---------------------------------------------------------- planning

    def plan(self, query: Query) -> PhysicalPlan:
        """The physical plan ``execute`` would drive (no I/O)."""
        return self.planner.plan(query)

    def explain(self, query: Query) -> ExplainReport:
        """Snapshot of the plan's pruning and access decisions."""
        return self.plan(query).explain(engine="scan")

    # ------------------------------------------------------------ execute

    def execute(
        self, query: Query, snapshot=None
    ) -> Tuple[ResultSet, ExecutionStats]:
        started = time.perf_counter()
        stats = ExecutionStats()
        tracer = obs_tracer()
        with tracer.phase(
            "exec.query", stats, cpu_model=self.cpu_model, engine="scan"
        ):
            plan = self.planner.plan(query, snapshot=snapshot)
            fctx = FaultContext()
            # Within-query working memory: a partition first loaded for the
            # selection phase decodes further columns on demand when the
            # gather phase revisits it, so the reuse stays sound under lazy
            # loads.
            prefetcher = None
            if self.prefetch_depth > 0:
                prefetcher = Prefetcher(
                    self.manager,
                    depth=self.prefetch_depth,
                    chunk_size=self.chunk_size,
                )
            reader = PlanReader(
                self.manager,
                stats,
                fctx,
                chunk_size=self.chunk_size,
                cache={},
                pin_hints=plan.pin_hints(),
                prefetcher=prefetcher,
            )
            degrade = DegradeOp(self.manager, stats, fctx)
            projected = plan.logical.projected
            try:
                with tracer.phase(
                    "exec.selection", stats, cpu_model=self.cpu_model
                ):
                    # Predicates only: the gather phase revisits partitions
                    # for their projected cells, so nothing is stashed.
                    select_op = SelectOp(
                        plan.logical.conjunction,
                        n_tuples=self.table.n_tuples,
                        snapshot=plan.snapshot,
                    )
                    self._selection_phase(plan, reader, degrade, select_op, stats)
                    fill_op = ProjectFillOp(
                        projected, select_op, self.table.schema
                    )

                with tracer.phase(
                    "exec.projection", stats, cpu_model=self.cpu_model
                ):
                    self._gather_projection(
                        plan, reader, degrade, fill_op, stats
                    )
            finally:
                reader.release()
                if prefetcher is not None:
                    prefetcher.close()

            for name in projected:
                missing = fill_op.missing(name)
                if len(missing):
                    if fctx.unreadable:
                        raise PartitionUnreadableError(
                            f"attribute {name!r} is missing for {len(missing)} "
                            f"selected tuples after losing partitions "
                            f"{sorted(fctx.unreadable)}"
                        )
                    raise StorageError(
                        f"layout does not store attribute {name!r} for "
                        f"{len(missing)} selected tuples"
                    )
            result = fill_op.result(stats)
            finalize_stats(stats, self.cpu_model, started)
        record_query("scan", plan, stats, query=query)
        return result, stats

    def _selection_phase(
        self,
        plan: PhysicalPlan,
        reader: PlanReader,
        degrade: DegradeOp,
        select_op: SelectOp,
        stats: ExecutionStats,
    ) -> None:
        """Evaluate the predicates partition by partition into the status
        vector: VALID = passed every predicate cell read, none refuted."""
        conjunction = plan.logical.conjunction
        if not conjunction:
            select_op.select_all()
            return
        predicate_attributes = conjunction.attributes

        def process(pid: int, partition) -> None:
            for segment in partition.segments:
                n_tuples = len(segment.tuple_ids)
                if self.row_major:
                    stats.tuples_iterated += n_tuples
                stats.cells_scanned += n_tuples * sum(
                    name in predicate_attributes for name in segment.attributes
                )
            select_op.select(partition)

        run_selection(plan, reader, degrade, select_op, stats, process)
        if not self.row_major:
            # Operator-at-a-time materializes one selection vector per
            # predicate plus the conjunction.
            stats.materialized_bytes += (len(conjunction) + 1) * (
                (self.table.n_tuples + 7) // 8
            )

    def _gather_projection(
        self,
        plan: PhysicalPlan,
        reader: PlanReader,
        degrade: DegradeOp,
        fill_op: ProjectFillOp,
        stats: ExecutionStats,
    ) -> None:
        projected = plan.logical.projected
        loaded = reader.cache
        assert loaded is not None

        def still_missing() -> Dict[str, np.ndarray]:
            # Restrict a rescue to projected cells of selected tuples that
            # no readable partition has supplied yet.
            return {name: fill_op.missing(name) for name in projected}

        def idle(pid: int) -> bool:
            # No selected tuple lives here: nothing to gather.
            return not fill_op.touches(self.manager.info(pid))

        loop = AccessLoop(
            reader,
            degrade,
            projected,
            plan.logical.projection_columns,
            replan_known_dead=True,
            tids_by_attribute=still_missing,
        )
        loop.enqueue(plan.projection_pids())
        reader.prefetch(
            [
                pid for pid in plan.projection_pids()
                if pid not in loaded
                and not plan.decision_for(pid).is_pruned
                and not idle(pid)
            ],
            plan.logical.projection_columns,
        )

        def skip(pid: int) -> bool:
            if pid in loaded:
                # Loaded for the selection phase; when no tuple here
                # survived it, re-scanning would gather nothing.  Not
                # counted as a skip — no read was avoided.
                return idle(pid)
            decision = plan.decision_for(pid)
            if decision.is_pruned:
                count_prune(decision, stats)
                return True
            if idle(pid):
                stats.n_partitions_skipped += 1
                return True
            return False

        def process(pid: int, partition) -> None:
            stats.cells_gathered += fill_op.fill(partition)

        loop.run(process, skip)
