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

The result hash table is represented densely (per-attribute value + presence
arrays indexed by tuple ID); hash-table insert/update events are counted and
priced by the CPU model, matching the paper's ``mem()`` accounting.

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
    base_invalid_tids,
    count_prune,
    finalize_stats,
    full_selection,
    invalidate_pruned,
    merge_results,
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
        n = self.table.n_tuples
        with tracer.phase(
            "exec.query", stats, cpu_model=self.cpu_model,
            engine="partition-at-a-time",
        ):
            status = np.full(n, STATUS_NOT_CHECKED, dtype=np.uint8)
            plan = self.planner.plan(query, snapshot=snapshot)
            projected = plan.logical.projected
            values: Dict[str, np.ndarray] = {}
            present: Dict[str, np.ndarray] = {}
            for name in projected:
                values[name] = np.zeros(
                    n, dtype=self.table.schema[name].np_dtype
                )
                present[name] = np.zeros(n, dtype=bool)

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
                        status[base_invalid_tids(n, plan.snapshot)] = (
                            STATUS_INVALID
                        )
                        self._selection_phase(
                            plan, reader, degrade, status, values, present,
                            stats,
                        )
                    else:
                        # No WHERE clause: every tuple qualifies; lines 3-16
                        # degenerate to allocating a hash-table row per tuple.
                        qualifying = full_selection(n, plan.snapshot)
                        status[qualifying] = STATUS_VALID
                        stats.hash_inserts += int(qualifying.sum())

                with tracer.phase(
                    "exec.projection", stats, cpu_model=self.cpu_model
                ):
                    self._projection_phase(
                        plan, reader, degrade, status, values, present, stats
                    )
            finally:
                reader.release()
                if prefetcher is not None:
                    prefetcher.close()

            valid = np.nonzero(status == STATUS_VALID)[0].astype(np.int64)
            result = merge_results(valid, values, projected, stats)
            finalize_stats(stats, self.cpu_model, started)
        record_query("partition-at-a-time", plan, stats, query=query)
        return result, stats

    # ------------------------------------------------------------ phase 1

    def _selection_phase(
        self,
        plan: PhysicalPlan,
        reader: PlanReader,
        degrade: DegradeOp,
        status: np.ndarray,
        values: Dict[str, np.ndarray],
        present: Dict[str, np.ndarray],
        stats: ExecutionStats,
    ) -> None:
        conjunction = plan.logical.conjunction
        select_op = SelectOp(conjunction, plan.logical.projected)
        loop = AccessLoop(
            reader,
            degrade,
            conjunction.attributes,
            plan.logical.selection_columns,
        )
        loop.enqueue(plan.selection_pids())
        reader.prefetch(
            [
                pid for pid in plan.selection_pids()
                if not plan.decision_for(pid).is_pruned
            ],
            plan.logical.selection_columns,
        )

        def skip(pid: int) -> bool:
            decision = plan.decision_for(pid)
            if decision.is_pruned:
                # The catalog already proves every stored predicate cell
                # fails; apply the verdict Algorithm 5 would have reached.
                invalidate_pruned(
                    self.manager.info(pid), decision.pruned_attributes,
                    status, stats,
                )
                count_prune(decision, stats)
                return True
            return False

        loop.run(
            lambda pid, partition: select_op.filter_partition(
                partition, status, values, present, stats
            ),
            skip,
        )

    # ------------------------------------------------------------ phase 2

    def _projection_phase(
        self,
        plan: PhysicalPlan,
        reader: PlanReader,
        degrade: DegradeOp,
        status: np.ndarray,
        values: Dict[str, np.ndarray],
        present: Dict[str, np.ndarray],
        stats: ExecutionStats,
    ) -> None:
        projected = plan.logical.projected
        valid = np.nonzero(status == STATUS_VALID)[0].astype(np.int64)
        if not len(valid):
            return
        index = plan.snapshot if plan.snapshot is not None else self.manager
        proj_pids: Set[int] = set()
        missing_attrs: Set[str] = set()
        missing_by_attr: Dict[str, np.ndarray] = {}
        for name in projected:
            missing = valid[~present[name][valid]]
            if len(missing):
                missing_attrs.add(name)
                missing_by_attr[name] = missing
                proj_pids.update(
                    index.partitions_with_missing_cells(name, missing)
                )
        fill_op = ProjectFillOp(projected)
        # Only the still-missing projected attributes need decoding here;
        # everything else in these partitions is dead weight for this phase.
        loop = AccessLoop(
            reader,
            degrade,
            missing_attrs,
            frozenset(missing_attrs),
            replan_known_dead=True,
            tids_by_attribute=missing_by_attr,
        )
        loop.enqueue(sorted(proj_pids))
        reader.prefetch(sorted(proj_pids), frozenset(missing_attrs))
        loop.run(
            lambda pid, partition: fill_op.fill_valid(
                partition, status, values, present, stats
            )
        )
        for name in projected:
            still_missing = valid[~present[name][valid]]
            if len(still_missing):
                raise StorageError(
                    f"projection could not find attribute {name!r} for "
                    f"{len(still_missing)} tuples (first: {still_missing[:5].tolist()}); "
                    "the partitioning does not cover the table"
                )
