"""Partition-at-a-time query evaluation (Section 5.2, Algorithm 5).

The engine exhausts one partition before moving to the next, so an irregular
partition is never read twice:

* **Selection phase** — scan every partition containing a predicate
  attribute.  Each tuple carries a status (NOT_CHECKED / VALID / INVALID);
  tuples failing the locally evaluable predicates turn INVALID, passing ones
  turn VALID, and any of their projected cells stored in the current
  partition count as added to the result hash table, so the partition need
  not be revisited.
* **Projection phase** — for VALID tuples, find the projected attributes
  still missing, locate the partitions holding them through the tuple-level
  index (one probe per owner map,
  :func:`~repro.engine.base.projection_loop`), read them and fill the gaps.

Reads are charged per partition, in plan order, answered as a run
(:meth:`~repro.plan.operators.PlanReader.load_run`: one pool call per run
of resident pids, each miss through the shared read pipeline), so every
charge, pool hit, LRU move and visibility mask is what the paper's loop
would meet; a partition that stays unreadable fails the query.  Both
forms of the selection share one loop
(:func:`~repro.engine.base.run_selection`): each run is filed as it
loads, and the full form evaluates it partition by partition, in plan
order, while the visit-once form evaluates once every run is in.
Evaluation is not per partition either: Jigsaw's partitions share a
handful of segment schemas, and the engine evaluates over the
schema-group image (:mod:`repro.storage.image`) — under the visit-once
verdict one predicate mask per block of a schema group's slots this query
evaluated, and in the projection one position gather per (group,
attribute) into |result|-sized columns (see
:class:`~repro.plan.operators.GroupSelectOp`).  Hash-table insert/update
events are counted in closed form from slot lengths and hit counts — as if
the tuple-at-a-time loop had run — and priced by the CPU model, matching
the paper's ``mem()`` accounting.

The driver owns exactly Algorithm 5: the two phases and the hash-table
counter rule.  Everything around them — construction, planning
(:class:`~repro.plan.physical.QueryPlanner` under the partition pruning
policy: Algorithm 5's status semantics require the
all-stored-attributes-disjoint rule plus explicit tuple invalidation), the
read pipeline, the completeness check, pricing and publishing — is the
:class:`~repro.engine.base.QueryEngine` scaffold.
"""

from __future__ import annotations

from typing import Any, Dict

from ..plan.operators import (
    STATUS_INVALID,
    STATUS_NOT_CHECKED,
    STATUS_VALID,
    GroupSelectOp,
    ProjectFillOp,
)
from ..plan.stats import CpuModel
from .base import QueryEngine, QueryRun, projection_loop, run_selection

__all__ = [
    "STATUS_NOT_CHECKED",
    "STATUS_VALID",
    "STATUS_INVALID",
    "PartitionAtATimeExecutor",
]


class PartitionAtATimeExecutor(QueryEngine):
    """Evaluates one query at a time over an irregularly partitioned table.

    ``zone_maps=True`` enables an extension beyond the paper (its future-work
    "indexing" direction): a predicate partition whose catalog min/max proves
    that *every* stored predicate cell fails the query is skipped without
    I/O.  Skipping is sound because a tuple that fails any predicate is
    excluded anyway — its status would move to INVALID; leaving it
    NOT_CHECKED has the same effect on the result.
    """

    name = "partition-at-a-time"
    defaults = {**QueryEngine.defaults, "cpu_model": CpuModel(), "zone_maps": False}
    zone_maps: bool

    def _planning(self) -> Dict[str, Any]:
        return {"pruning": self.zone_maps}

    # ------------------------------------------------------------ phase 1

    def _select(self, run: QueryRun) -> GroupSelectOp:
        plan, reader, stats = run
        select_op = GroupSelectOp(
            plan.logical.conjunction, plan.logical.projected,
            plan.snapshot.index.tid_domain(), plan.snapshot.hidden, plan.visits_once,
            plan.zone_refuted, self.manager.buffer_pool,
        )
        if not plan.logical.conjunction:
            stats.hash_inserts += select_op.select_all()
            return select_op

        def process(pids, partitions) -> None:
            stats.cells_scanned += select_op.add_run(pids, partitions, True)
            if select_op.hit_only:  # no order to keep: one mask per group
                return
            for partition in partitions:
                inserts, evictions, stashed = select_op.select(partition)
                stats.hash_inserts += inserts
                stats.hash_updates += evictions + stashed

        # A pruned partition's verdict evicts hash-table rows as the read
        # would have.  (``+= run_selection(...)`` would read the counter
        # before ``process`` advances it.)
        evicted = run_selection(plan, reader, select_op, stats, process)
        stats.hash_updates += evicted
        if select_op.hit_only:
            inserts, stashed = select_op.select_groups()
            stats.hash_inserts += inserts
            stats.hash_updates += stashed
        return select_op

    # ------------------------------------------------------------ phase 2

    def _project(self, run: QueryRun, fill_op: ProjectFillOp) -> None:
        plan, reader, stats = run
        select_op = fill_op.select
        assert isinstance(select_op, GroupSelectOp)
        # Line 16: the evaluated selection slots supply their result
        # tuples' cells (counted when they were selected).
        select_op.fill(fill_op, select_op.evaluated)
        pids = projection_loop(plan.snapshot, fill_op)
        for run_pids, partitions in reader.load_run(pids):
            stats.cells_scanned += select_op.add_run(run_pids, partitions, False)
        stats.hash_updates += select_op.fill(fill_op, pids)
