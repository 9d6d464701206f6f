"""Partition-at-a-time query evaluation (Section 5.2, Algorithm 5).

The engine exhausts one partition before moving to the next, so an irregular
partition is never read twice:

* **Selection phase** — scan every partition containing a predicate
  attribute.  Each tuple carries a status (NOT_CHECKED / VALID / INVALID);
  tuples failing the locally evaluable predicates turn INVALID, passing ones
  turn VALID, and any of their projected cells stored in the current
  partition are added to the result hash table immediately so the partition
  need not be revisited.
* **Projection phase** — for VALID tuples, find the projected attributes
  still missing, locate the partitions holding them through the tuple-level
  index, and fill the gaps partition by partition.

The result hash table is held at its true size: the selection phase keeps
one status byte per tuple plus |hits|-sized stashed chunks, and once it is
final the projection phase writes into |result|-sized columns (see
:mod:`repro.plan.operators`).  Hash-table insert/update events are counted
in closed form from lengths and mask sums — as if the paper's
tuple-at-a-time loop had run — and priced by the CPU model, matching the
paper's ``mem()`` accounting.

Both phases are thin serial drivers over the shared planning layer: the
:class:`~repro.plan.physical.QueryPlanner` (partition pruning policy —
Algorithm 5's status semantics require the all-stored-attributes-disjoint
rule plus explicit tuple invalidation) builds the access lists, and
:mod:`repro.plan.operators` supplies the selection / fill / degrade loop.
"""

from __future__ import annotations

import time
from typing import Dict, Set, Tuple

import numpy as np

from ..core.query import Query
from ..core.schema import TableMeta
from ..errors import StorageError
from ..obs import record_query
from ..obs import tracer as obs_tracer
from ..plan.degrade import FaultContext
from ..plan.explain import ExplainReport
from ..plan.logical import POLICY_PARTITION
from ..plan.operators import (
    STATUS_INVALID,
    STATUS_NOT_CHECKED,
    STATUS_VALID,
    AccessLoop,
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

__all__ = [
    "STATUS_NOT_CHECKED",
    "STATUS_VALID",
    "STATUS_INVALID",
    "PartitionAtATimeExecutor",
]


class PartitionAtATimeExecutor:
    """Evaluates one query at a time over an irregularly partitioned table.

    ``zone_maps=True`` enables an extension beyond the paper (its future-work
    "indexing" direction): a predicate partition whose catalog min/max proves
    that *every* stored predicate cell fails the query is skipped without
    I/O.  Skipping is sound because a tuple that fails any predicate is
    excluded anyway — its status would move to INVALID; leaving it
    NOT_CHECKED has the same effect on the result.
    """

    def __init__(
        self,
        manager: PartitionManager,
        table: TableMeta,
        cpu_model: CpuModel | None = None,
        zone_maps: bool = False,
        pin_pool: bool = False,
        prefetch_depth: int = 0,
        partition_cache=None,
    ):
        self.manager = manager
        self.table = table
        self.cpu_model = cpu_model or CpuModel()
        self.zone_maps = zone_maps
        self.prefetch_depth = prefetch_depth
        self.planner = QueryPlanner(
            manager,
            table,
            policy=POLICY_PARTITION,
            pruning=zone_maps,
            pin_pool=pin_pool,
            partition_cache=partition_cache,
        )

    # ---------------------------------------------------------- planning

    def plan(self, query: Query) -> PhysicalPlan:
        """The physical plan ``execute`` would drive (no I/O)."""
        return self.planner.plan(query)

    def explain(self, query: Query) -> ExplainReport:
        """Snapshot of the plan's pruning and access decisions."""
        return self.plan(query).explain(engine="partition-at-a-time")

    # ------------------------------------------------------------ execute

    def execute(
        self, query: Query, snapshot=None
    ) -> Tuple[ResultSet, ExecutionStats]:
        started = time.perf_counter()
        stats = ExecutionStats()
        tracer = obs_tracer()
        with tracer.phase(
            "exec.query", stats, cpu_model=self.cpu_model,
            engine="partition-at-a-time",
        ):
            plan = self.planner.plan(query, snapshot=snapshot)
            select_op = SelectOp(
                plan.logical.conjunction, plan.logical.projected,
                self.table.n_tuples, plan.snapshot,
            )
            fctx = FaultContext()
            prefetcher = None
            if self.prefetch_depth > 0:
                prefetcher = Prefetcher(self.manager, depth=self.prefetch_depth)
            reader = PlanReader(
                self.manager, stats, fctx, pin_hints=plan.pin_hints(),
                prefetcher=prefetcher,
            )
            degrade = DegradeOp(self.manager, stats, fctx)
            try:
                with tracer.phase(
                    "exec.selection", stats, cpu_model=self.cpu_model
                ):
                    if plan.logical.conjunction:
                        self._selection_phase(
                            plan, reader, degrade, select_op, stats
                        )
                    else:
                        stats.hash_inserts += select_op.select_all()

                with tracer.phase(
                    "exec.projection", stats, cpu_model=self.cpu_model
                ):
                    fill_op = self._projection_phase(
                        plan, reader, degrade, select_op, stats
                    )
            finally:
                reader.release()
                if prefetcher is not None:
                    prefetcher.close()

            result = fill_op.result(stats)
            finalize_stats(stats, self.cpu_model, started)
        record_query("partition-at-a-time", plan, stats, query=query)
        return result, stats

    # ------------------------------------------------------------ phase 1

    def _selection_phase(
        self,
        plan: PhysicalPlan,
        reader: PlanReader,
        degrade: DegradeOp,
        select_op: SelectOp,
        stats: ExecutionStats,
    ) -> None:
        def process(pid: int, partition) -> None:
            stats.cells_scanned += stored_cells(partition)
            inserts, evictions, stashed = select_op.select(partition)
            stats.hash_inserts += inserts
            stats.hash_updates += evictions + stashed

        # A pruned partition's verdict evicts hash-table rows as the read
        # would have.  (``+= run_selection(...)`` would read the counter
        # before ``process`` advances it.)
        evicted = run_selection(plan, reader, degrade, select_op, stats, process)
        stats.hash_updates += evicted

    # ------------------------------------------------------------ phase 2

    def _projection_phase(
        self,
        plan: PhysicalPlan,
        reader: PlanReader,
        degrade: DegradeOp,
        select_op: SelectOp,
        stats: ExecutionStats,
    ) -> ProjectFillOp:
        projected = plan.logical.projected
        fill_op = ProjectFillOp(projected, select_op, self.table.schema)
        if not len(fill_op.valid):
            return fill_op
        index = plan.snapshot if plan.snapshot is not None else self.manager
        proj_pids: Set[int] = set()
        missing_by_attr: Dict[str, np.ndarray] = {}
        for name in projected:
            missing = fill_op.missing(name)
            if len(missing):
                missing_by_attr[name] = missing
                proj_pids.update(
                    index.partitions_with_missing_cells(name, missing)
                )
        # Only the still-missing projected attributes need decoding here;
        # everything else in these partitions is dead weight for this phase.
        loop = AccessLoop(
            reader,
            degrade,
            missing_by_attr,
            frozenset(missing_by_attr),
            replan_known_dead=True,
            tids_by_attribute=missing_by_attr,
        )
        loop.enqueue(sorted(proj_pids))
        reader.prefetch(sorted(proj_pids), frozenset(missing_by_attr))

        def process(pid: int, partition) -> None:
            stats.cells_scanned += stored_cells(partition)
            stats.hash_updates += fill_op.fill(partition)

        loop.run(process)
        for name in projected:
            still_missing = fill_op.missing(name)
            if len(still_missing):
                raise StorageError(
                    f"projection could not find attribute {name!r} for "
                    f"{len(still_missing)} tuples (first: {still_missing[:5].tolist()}); "
                    "the partitioning does not cover the table"
                )
        return fill_op
