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
pipeline evaluates them.  Zone pruning is the mechanism behind Column-H's
advantage over Column in the paper, and the reason that advantage decays as
query templates multiply.
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
    base_invalid_tids,
    count_prune,
    finalize_stats,
    full_selection,
    merge_results,
)
from ..plan.physical import PhysicalPlan, QueryPlanner
from ..plan.result import ResultSet
from ..plan.stats import CpuModel, ExecutionStats
from ..storage.partition_manager import PartitionInfo, PartitionManager
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

    # ------------------------------------------------------------ helpers

    @staticmethod
    def _any_selected(info: PartitionInfo, selection: np.ndarray) -> bool:
        return any(
            len(tids) and bool(np.any(selection[tids])) for tids in info.segment_tids
        )

    # ------------------------------------------------------------ execute

    def execute(
        self, query: Query, snapshot=None
    ) -> Tuple[ResultSet, ExecutionStats]:
        started = time.perf_counter()
        stats = ExecutionStats()
        tracer = obs_tracer()
        n = self.table.n_tuples
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
            try:
                with tracer.phase(
                    "exec.selection", stats, cpu_model=self.cpu_model
                ):
                    selection = self._selection_vector(
                        plan, reader, degrade, stats, n
                    )
                    selected = np.nonzero(selection)[0].astype(np.int64)

                projected = plan.logical.projected
                values: Dict[str, np.ndarray] = {
                    name: np.zeros(n, dtype=self.table.schema[name].np_dtype)
                    for name in projected
                }
                present: Dict[str, np.ndarray] = {
                    name: np.zeros(n, dtype=bool) for name in projected
                }
                with tracer.phase(
                    "exec.projection", stats, cpu_model=self.cpu_model
                ):
                    self._gather_projection(
                        plan, reader, degrade, selection, selected, values,
                        present, stats,
                    )
            finally:
                reader.release()
                if prefetcher is not None:
                    prefetcher.close()

            for name in projected:
                missing = selected[~present[name][selected]]
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
            result = merge_results(selected, values, projected, stats)
            finalize_stats(stats, self.cpu_model, started)
        record_query("scan", plan, stats, query=query)
        return result, stats

    def _selection_vector(
        self,
        plan: PhysicalPlan,
        reader: PlanReader,
        degrade: DegradeOp,
        stats: ExecutionStats,
        n: int,
    ) -> np.ndarray:
        """Evaluate predicates attribute by attribute into one dense mask."""
        conjunction = plan.logical.conjunction
        if not conjunction:
            return full_selection(n, plan.snapshot)
        masks = {name: np.zeros(n, dtype=bool) for name in conjunction.attributes}
        select_op = SelectOp(conjunction, row_major=self.row_major)
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
            if plan.decision_for(pid).is_pruned:
                count_prune(plan.decision_for(pid), stats)
                return True
            return False

        loop.run(
            lambda pid, partition: select_op.scan_masks(partition, masks, stats),
            skip,
        )
        selection = np.ones(n, dtype=bool)
        for mask in masks.values():
            selection &= mask
        selection[base_invalid_tids(n, plan.snapshot)] = False
        if not self.row_major:
            # Operator-at-a-time materializes one selection vector per
            # predicate plus the conjunction.
            stats.materialized_bytes += (len(masks) + 1) * ((n + 7) // 8)
        return selection

    def _gather_projection(
        self,
        plan: PhysicalPlan,
        reader: PlanReader,
        degrade: DegradeOp,
        selection: np.ndarray,
        selected: np.ndarray,
        values: Dict[str, np.ndarray],
        present: Dict[str, np.ndarray],
        stats: ExecutionStats,
    ) -> None:
        projected = plan.logical.projected
        fill_op = ProjectFillOp(projected)
        loaded = reader.cache
        assert loaded is not None

        def still_missing() -> Dict[str, np.ndarray]:
            # Restrict a rescue to projected cells of selected tuples that
            # no readable partition has supplied yet.
            return {
                name: selected[~present[name][selected]] for name in projected
            }

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
                and len(selected)
                and self._any_selected(self.manager.info(pid), selection)
            ],
            plan.logical.projection_columns,
        )

        def skip(pid: int) -> bool:
            info = self.manager.info(pid)
            if pid not in loaded:
                if plan.decision_for(pid).is_pruned:
                    count_prune(plan.decision_for(pid), stats)
                    return True
                if len(selected) and not self._any_selected(info, selection):
                    stats.n_partitions_skipped += 1
                    return True
                if not len(selected):
                    stats.n_partitions_skipped += 1
                    return True
            elif not len(selected) or not self._any_selected(info, selection):
                # Already loaded for the selection phase but no tuple here
                # survived it: re-scanning would gather nothing.  Not counted
                # as a skip — no read was avoided, only working-memory churn.
                return True
            return False

        loop.run(
            lambda pid, partition: fill_op.gather(
                partition, selection, values, present, stats
            ),
            skip,
        )
