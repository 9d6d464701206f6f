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
  index (one probe per owner map), read them and fill the gaps.

Reads stay per partition and in plan order, through the shared read
pipeline, so every charge, pool hit, degraded substitute and visibility
mask is what the paper's loop would meet.  Evaluation does not: Jigsaw's
partitions share a handful of segment schemas, and the engine evaluates
over the schema-group image (:mod:`repro.storage.image`) — under the
visit-once verdict one predicate mask per schema group over the slots this
query loaded, and in the projection one position gather per (group,
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

from typing import Any, Dict, List, Set

import numpy as np

from ..plan.operators import (
    STATUS_INVALID,
    STATUS_NOT_CHECKED,
    STATUS_VALID,
    AccessLoop,
    GroupSelectOp,
    ProjectFillOp,
    stored_cells,
)
from ..plan.stats import CpuModel
from .base import QueryEngine, QueryRun, run_selection

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
            self.table.n_tuples, plan.snapshot.hidden, plan.visits_once,
            plan.zone_refuted, self.manager.buffer_pool,
        )
        if not plan.logical.conjunction:
            stats.hash_inserts += select_op.select_all()
            return select_op

        def process(pid: int, partition) -> None:
            stats.cells_scanned += stored_cells(partition)
            select_op.add(pid, partition, selection=True)
            if not select_op.hit_only:
                inserts, evictions, stashed = select_op.select(partition)
                stats.hash_inserts += inserts
                stats.hash_updates += evictions + stashed

        # A pruned partition's verdict evicts hash-table rows as the read
        # would have.  (``+= run_selection(...)`` would read the counter
        # before ``process`` advances it.)
        evicted = run_selection(plan, reader, select_op, stats, process)
        stats.hash_updates += evicted
        if select_op.hit_only:  # no order to keep: one mask per group
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
        view = plan.snapshot
        missing_by_attr: Dict[str, np.ndarray] = {}
        groups: Dict[Any, List[str]] = {}  # owner map -> its missing attributes
        for name in plan.logical.projected:
            missing = fill_op.missing(name)
            if len(missing):
                missing_by_attr[name] = missing
                groups.setdefault(view.index.owners(name), []).append(name)
        groups.pop(None, None)  # stored primarily nowhere: no partition to read
        # One probe per owner map, over the union of its attributes' missing
        # tids (a probe distributes over a union).
        proj_pids: Set[int] = set()
        for owners, names in groups.items():
            tids = missing_by_attr[names[0]]
            if len(tids) < len(fill_op.valid) and len(names) > 1:
                filled = np.logical_and.reduce([fill_op.filled[n] for n in names])
                tids = fill_op.valid[~filled]
            proj_pids.update(view.partitions_with_missing_cells(names[0], tids))
        loop = AccessLoop(
            reader,
            view.index,
            missing_by_attr,
            replan_known_dead=True,
            tids_by_attribute=missing_by_attr,
        )
        loop.pending.extend(sorted(proj_pids))
        read: List[int] = []

        def process(pid: int, partition) -> None:
            stats.cells_scanned += stored_cells(partition)
            select_op.add(pid, partition, selection=False)
            read.append(pid)

        loop.run(process)
        stats.hash_updates += select_op.fill(fill_op, read)
