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

The driver owns what is the scan engine's own: the list-driven gather over
within-query working memory, and its counter rule (``row_major`` iterator
overhead vs ``materialized_bytes`` selection vectors).  Everything around
that — construction, planning (:class:`~repro.plan.physical.QueryPlanner`
under the scan pruning policy: a partition whose zone refutes *any*
predicate cannot contribute a qualifying tuple), the read pipeline, the
completeness check, pricing and publishing — is the
:class:`~repro.engine.base.QueryEngine` scaffold, and the
:mod:`~repro.plan.operators` core — the same selection-vector ops the
partition-at-a-time engine drives — evaluates the phases.  Zone pruning is
the mechanism behind Column-H's advantage over Column in the paper, and the
reason that advantage decays as query templates multiply.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from ..plan.logical import POLICY_SCAN
from ..plan.operators import AccessLoop, ProjectFillOp, SelectOp
from ..plan.stats import CpuModel
from .base import QueryEngine, QueryRun, count_prunes, run_selection

__all__ = ["ScanExecutor"]


class ScanExecutor(QueryEngine):
    """Evaluates conjunctive scan queries on rectangular layouts."""

    name = "scan"
    policy = POLICY_SCAN
    defaults = {
        **QueryEngine.defaults, "cpu_model": CpuModel(), "zone_maps": True,
        "chunk_size": None, "row_major": False,
    }
    zone_maps: bool
    chunk_size: Optional[int]
    row_major: bool

    def _planning(self) -> Dict[str, Any]:
        return {"pruning": self.zone_maps, "chunk_size": self.chunk_size}

    def _select(self, run: QueryRun) -> SelectOp:
        """Evaluate the predicates partition by partition into the status
        vector: VALID = passed every predicate cell read, none refuted."""
        plan, reader, stats = run
        # Within-query working memory: a partition first loaded for the
        # selection phase decodes further columns on demand when the
        # gather phase revisits it, so the reuse stays sound under lazy
        # loads.
        reader.cache = {}
        conjunction = plan.logical.conjunction
        # Predicates only: the gather phase revisits partitions for their
        # projected cells, so nothing is stashed.
        select_op = SelectOp(
            conjunction, n_tuples=self.table.n_tuples,
            hidden=plan.snapshot.hidden, hit_only=plan.visits_once,
            refuted=plan.zone_refuted,
        )
        if not conjunction:
            select_op.select_all()
            return select_op
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

        run_selection(plan, reader, select_op, stats, process)
        if not self.row_major:
            # Operator-at-a-time materializes one selection vector per
            # predicate plus the conjunction.
            stats.materialized_bytes += (len(conjunction) + 1) * (
                (self.table.n_tuples + 7) // 8
            )
        return select_op

    def _project(self, run: QueryRun, fill_op: ProjectFillOp) -> None:
        """Gather the projected cells of the selected tuples."""
        plan, reader, stats = run
        projected = plan.logical.projected
        loaded = reader.cache
        assert loaded is not None

        def still_missing() -> Dict[str, np.ndarray]:
            # Restrict a rescue to projected cells of selected tuples that
            # no readable partition has supplied yet.
            return {name: fill_op.missing(name) for name in projected}

        def idle(pid: int) -> bool:
            # No selected tuple lives here: nothing to gather.
            return not fill_op.touches(plan.snapshot.info(pid))

        loop = AccessLoop(
            reader,
            plan.snapshot.index,
            projected,
            replan_known_dead=True,
            tids_by_attribute=still_missing,
        )
        loop.pending.extend(plan.projection_pids())

        def skip(pid: int) -> bool:
            if pid in loaded:
                # Loaded for the selection phase; when no tuple here
                # survived it, re-scanning would gather nothing.  Not
                # counted as a skip — no read was avoided.
                return idle(pid)
            if plan.pruned(pid):
                count_prunes(plan, (pid,), stats)
                return True
            if idle(pid):
                stats.n_partitions_skipped += 1
                return True
            return False

        def process(pid: int, partition) -> None:
            stats.cells_gathered += fill_op.fill(partition)

        loop.run(process, skip)
