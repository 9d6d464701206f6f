"""The physical plan: pid lists, pushdown column sets and the read chunk size.

The second planning layer.  A :class:`PhysicalPlan` is plain data:

* the ascending **selection** and **projection pid lists** (the partitions
  storing a predicate / a projected attribute; ascending pid is
  deterministic, and the order the simulated OS cache accounting is
  calibrated to) and the two **projection-pushdown column sets**;
* the **read chunk size** (``chunk_size``), stated once, here: the engine
  scaffold configures its reader from ``plan.chunk_size`` and nothing
  else.  (The retry budget is the manager's
  :class:`~repro.storage.faults.RetryPolicy`, enforced and reported
  there.)
* the **visit-once verdict** (``visits_once``): the catalog proves the
  selection phase reaches each tuple in one segment, so Algorithm 5 may
  write a status for the passing tuples only; under it, ``zone_refuted``
  names the selection pids whose zone refutes a predicate every segment
  there stores — read, but no tuple of theirs can pass.

* the **zone verdict** (``verdict``, :class:`~repro.plan.logical.Verdict`):
  the pids the catalog already refutes, computed once when the plan is
  built (or replayed from the partition cache), so ``pruned(pid)`` is a set
  lookup and the *estimates* (partitions, bytes, predicted I/O seconds from
  the fitted ``io(x)`` model) that ``explain()`` reports against the
  actuals come from it without a classification.

A partition's classified :class:`~repro.plan.logical.PartitionDecision`,
with its reason, is made on demand and memoised per pid: only where
something consumes it — ``explain()``, ``selection`` / ``projection``, the
adaptive monitor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

from ..core.cost import estimate_access_io
from ..core.query import Query
from ..obs import tracer as obs_tracer
from ..storage.partition_manager import CatalogSnapshot, PartitionManager
from .explain import AccessExplain, ExplainReport
from .logical import (
    POLICY_PARTITION,
    LogicalPlan,
    PartitionDecision,
    Verdict,
    refuted_zones,
)

__all__ = ["PartitionAccess", "PhysicalPlan", "QueryPlanner"]


@dataclass(frozen=True, slots=True)
class PartitionAccess:
    """One candidate partition read, classified (built on demand)."""

    pid: int
    decision: PartitionDecision
    n_bytes: int
    columns: Optional[frozenset]


class PhysicalPlan:
    """Pid lists + pushdown + chunk size for one query on one pinned view."""

    __slots__ = (
        "logical", "chunk_size", "selection_columns", "projection_columns",
        "snapshot", "catalog_version", "visits_once", "zone_refuted",
        "verdict", "_selection_pids", "_projection_pids", "_estimates",
    )

    def __init__(
        self,
        logical: LogicalPlan,
        chunk_size: Optional[int],
        selection_pids: Tuple[int, ...],
        projection_pids: Tuple[int, ...],
        snapshot: CatalogSnapshot,
        visits_once: bool = False,
        zone_refuted: frozenset = frozenset(),
        selection_columns: Optional[frozenset] = None,
        verdict: Optional[Verdict] = None,
    ):
        self.logical = logical
        #: the read granularity of this execution's loads.
        self.chunk_size = chunk_size
        self._selection_pids = selection_pids
        self._projection_pids = projection_pids
        self.selection_columns = selection_columns or logical.selection_columns
        self.projection_columns = logical.projection_columns
        #: the catalog's proof that the selection phase reaches every tuple
        #: once (:meth:`CatalogIndex.visits_once`), under a view that hides
        #: tids too: the selection may run hit-only.
        self.visits_once = visits_once
        self.zone_refuted = zone_refuted
        self.verdict = (
            verdict if verdict is not None else logical.verdict(snapshot.index)
        )
        #: the pinned catalog view the plan was built against.  Everything
        #: an execution asks the catalog — partition entries, tuple-level
        #: probes — it asks this view, and it
        #: marks the view's ``hidden`` tids INVALID before selecting.
        self.snapshot = snapshot
        #: the catalog version the plan reads.
        self.catalog_version = snapshot.version
        self._estimates: Optional[Tuple[int, int, float]] = None

    # ------------------------------------------------------------- queries

    def decision_for(self, pid: int) -> PartitionDecision:
        """Classification for any pid of the view."""
        return self.logical.classify(self.snapshot.info(pid))

    def pruned(self, pid: int) -> bool:
        """Whether the zone verdict prunes ``pid`` (any pid of the view)."""
        return pid in self.verdict.pruned

    def selection_pids(self) -> Tuple[int, ...]:
        return self._selection_pids

    def projection_pids(self) -> Tuple[int, ...]:
        return self._projection_pids

    @property
    def selection(self) -> Tuple[PartitionAccess, ...]:
        return self._accesses(self._selection_pids, self.selection_columns)

    @property
    def projection(self) -> Tuple[PartitionAccess, ...]:
        return self._accesses(self._projection_pids, self.projection_columns)

    def _accesses(self, pids, columns) -> Tuple[PartitionAccess, ...]:
        return tuple(
            PartitionAccess(
                pid, self.decision_for(pid), self.snapshot.info(pid).n_bytes,
                columns,
            )
            for pid in pids
        )

    # ----------------------------------------------------------- estimates

    estimated_partition_reads = property(lambda self: self._estimate()[0])
    estimated_bytes = property(lambda self: self._estimate()[1])
    estimated_io_time_s = property(lambda self: self._estimate()[2])

    def _estimate(self) -> Tuple[int, int, float]:
        # Upper bound for a healthy (fault-free) execution: every non-pruned
        # selection access is read; a projection access is only *maybe* read
        # (phase-2 skips partitions with no missing cell / no selected
        # tuple), so the bound counts those not already read by selection.
        if self._estimates is None:
            n_bytes = [
                self.snapshot.info(pid).n_bytes
                for pid in dict.fromkeys(self._selection_pids + self._projection_pids)
                if pid not in self.verdict.pruned
            ]
            self._estimates = (
                len(n_bytes),
                sum(n_bytes),
                estimate_access_io(
                    self.snapshot.manager.device.profile.io_model, n_bytes
                ),
            )
        return self._estimates

    # ------------------------------------------------------------- explain

    def explain(self, engine: str = "") -> ExplainReport:
        """Inspectable snapshot of every planning decision."""
        logical = self.logical
        return ExplainReport(
            engine=engine,
            query=str(logical.query),
            policy_name=logical.policy,
            pruning=logical.pruning,
            normalized_predicates=tuple(
                f"{p.lo:g} <= {p.attribute} <= {p.hi:g}"
                for p in logical.conjunction.predicates
            ),
            selection_columns=tuple(sorted(logical.selection_columns)),
            projection_columns=tuple(sorted(logical.projection_columns)),
            max_attempts=self.snapshot.manager.retry_policy.max_attempts,
            selection=tuple(_access_explain(a) for a in self.selection),
            projection=tuple(_access_explain(a) for a in self.projection),
            estimated_partition_reads=self.estimated_partition_reads,
            estimated_bytes=self.estimated_bytes,
            estimated_io_time_s=self.estimated_io_time_s,
        )


def _access_explain(access: PartitionAccess) -> AccessExplain:
    return AccessExplain(
        pid=access.pid,
        decision=access.decision.decision,
        reason=access.decision.reason,
        n_bytes=access.n_bytes,
        columns=tuple(sorted(access.columns)) if access.columns else (),
    )


class QueryPlanner:
    """Builds logical + physical plans against one partition manager.

    One planner per executor: the executor's pruning knob and scheduling
    family pick the policy, a pinned view of the manager's catalog supplies
    the metadata.  Planning itself performs no I/O.

    ``observer`` is the adaptive-monitoring hook: a callable invoked with
    every ``(query, physical_plan)`` the planner emits.  Every engine
    plans through this class, so attaching an observer here feeds a
    :class:`~repro.adaptive.WorkloadMonitor` from every entry point without
    touching the executors.  Observers must not mutate the plan.

    ``partition_cache`` is the serving tier's semantic cache
    (:class:`repro.serve.PartitionCache`, duck-typed to avoid a layering
    cycle).  When set, the planner consults it before the zone verdict —
    ``lookup(logical, view)`` returns the :class:`Verdict` recorded for an
    equal normalized-predicate signature under the view's version, which the
    plan replays as it is — and on a miss records the plan's verdict, naming
    the candidates it covers.
    """

    def __init__(
        self,
        manager: PartitionManager,
        policy: str = POLICY_PARTITION,
        pruning: bool = False,
        chunk_size: Optional[int] = None,
        observer: Optional[Callable[[Query, "PhysicalPlan"], None]] = None,
        partition_cache=None,
    ):
        self.manager = manager
        self.policy = policy
        self.pruning = pruning
        self.observer = observer
        self.partition_cache = partition_cache
        self.chunk_size = chunk_size

    def logical_plan(self, query: Query) -> LogicalPlan:
        return LogicalPlan(query, policy=self.policy, pruning=self.pruning)

    def plan(
        self,
        query: Query,
        notify: bool = True,
        snapshot: Optional[CatalogSnapshot] = None,
    ) -> PhysicalPlan:
        """Build the physical plan against ``snapshot``, the caller's pinned
        catalog view: partition candidates, classifications and sizes come
        from its frozen partition set, and the semantic partition cache keys
        on its version.  A plan-only caller (``explain``, a drift baseline, a
        cost estimate) hands none, and one is pinned for the duration of
        planning.  ``notify=False`` suppresses the observer (re-planning for
        estimation must not feed the monitor its own bookkeeping queries).
        """
        if snapshot is None:
            with self.manager.pin_snapshot() as snapshot:
                return self.plan(query, notify, snapshot)
        tracer = obs_tracer()
        if not tracer.enabled:
            return self._plan(query, notify, snapshot)
        with tracer.span("plan.query", policy=self.policy) as span:
            plan = self._plan(query, notify, snapshot)
            span.set(
                pruning=self.pruning,
                n_selection_accesses=len(plan.selection_pids()),
                n_projection_accesses=len(plan.projection_pids()),
                estimated_partition_reads=plan.estimated_partition_reads,
                estimated_bytes=plan.estimated_bytes,
                estimated_io_time_s=plan.estimated_io_time_s,
            )
        return plan

    def _plan(
        self, query: Query, notify: bool, view: CatalogSnapshot
    ) -> PhysicalPlan:
        logical = self.logical_plan(query)
        cache = self.partition_cache
        verdict = cache.lookup(logical, view) if cache is not None else None
        if verdict is not None:
            logical.use_cached(verdict.cached)
        if logical.conjunction:
            pred_pids = view.index.pids_for_attributes(
                logical.predicate_attributes
            )
        else:
            # No WHERE clause: every tuple qualifies without reading a
            # single predicate cell; the plan is projection-only.
            pred_pids = ()
        proj_pids = view.index.pids_for_attributes(logical.projected_attributes)
        visits_once = bool(pred_pids) and view.index.visits_once(
            logical.predicate_attributes
        )
        # The zone arrays are built only where something reads them: the
        # visit-once form's zone-refuted pids and a pruning verdict.
        zones = refuted_zones(view.index, logical.conjunction) if visits_once else None
        if verdict is None:
            verdict = logical.verdict(view.index, zones)
            if cache is not None:
                cache.record(logical, view, replace(
                    verdict, cached=frozenset(pred_pids + proj_pids)
                ))
        plan = PhysicalPlan(
            logical, self.chunk_size, pred_pids, proj_pids, view,
            visits_once, frozenset(zones[0]) if zones else frozenset(),
            verdict=verdict,
        )
        if notify and self.observer is not None:
            self.observer(query, plan)
        return plan
