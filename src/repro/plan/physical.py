"""The physical plan: pid lists, pushdown column sets and the access policy.

The second planning layer.  A :class:`PhysicalPlan` is plain data:

* the ascending **selection** and **projection pid lists** (the partitions
  storing a predicate / a projected attribute; ascending pid is
  deterministic, and the order the simulated OS cache accounting is
  calibrated to) and the two **projection-pushdown column sets**;
* the **access policy** (:class:`AccessPolicy`): whether degraded
  substitute reads are allowed, whether the executor retreats to the
  standard engine instead (the replica-local path), and the read chunk
  size.  The policy is stated once, here: the engine scaffold configures
  its reader and degrade op from ``plan.policy`` and nothing
  else.  (The retry budget is the manager's
  :class:`~repro.storage.faults.RetryPolicy`, enforced and reported there.)
* the **visit-once verdict** (``visits_once``): the catalog proves the
  selection phase reaches each tuple in one segment, so Algorithm 5 may
  write a status for the passing tuples only; under it, ``zone_refuted``
  names the selection pids whose zone refutes a predicate every segment
  there stores — read, but no tuple of theirs can pass.

Decisions are made on demand and memoised per pid: a partition's verdict
only where something consumes it (the prune check of a plan that can
prune, the scan engine's projection skip, ``explain()``, the adaptive
monitor, the partition cache's record), and so are the classified
:class:`PartitionAccess` rows and the *estimates* (partitions, bytes,
predicted I/O seconds from the fitted ``io(x)`` model) that ``explain()``
reports against the actuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..core.cost import estimate_access_io
from ..core.query import Query
from ..core.schema import TableMeta
from ..obs import tracer as obs_tracer
from ..storage.partition_manager import CatalogSnapshot, PartitionManager
from .explain import AccessExplain, ExplainReport
from .logical import (
    POLICY_PARTITION,
    POLICY_SCAN,
    LogicalPlan,
    PartitionDecision,
)
from .predicates import Conjunction

__all__ = ["AccessPolicy", "PartitionAccess", "PhysicalPlan", "QueryPlanner"]


@dataclass(frozen=True, slots=True)
class AccessPolicy:
    """How an execution reads, as plan properties the engine scaffold
    enforces: ``degrade_enabled`` allows substitute reads from
    replicas/overlapping primaries; ``replica_fallback`` makes an unreadable
    partition retreat to the standard engine instead of degrading in place;
    ``chunk_size`` is the read granularity of loads.
    """

    degrade_enabled: bool = True
    replica_fallback: bool = False
    chunk_size: Optional[int] = None


@dataclass(frozen=True, slots=True)
class PartitionAccess:
    """One candidate partition read, classified (built on demand)."""

    pid: int
    decision: PartitionDecision
    n_bytes: int
    columns: Optional[frozenset]


class PhysicalPlan:
    """Pid lists + pushdown + policy for one query on one pinned view."""

    __slots__ = (
        "logical", "policy", "selection_columns", "projection_columns",
        "snapshot", "catalog_version", "visits_once", "zone_refuted",
        "_selection_pids", "_projection_pids", "_estimates",
    )

    def __init__(
        self,
        logical: LogicalPlan,
        policy: AccessPolicy,
        selection_pids: Tuple[int, ...],
        projection_pids: Tuple[int, ...],
        snapshot: CatalogSnapshot,
        visits_once: bool = False,
        zone_refuted: frozenset = frozenset(),
        selection_columns: Optional[frozenset] = None,
    ):
        self.logical = logical
        self.policy = policy
        self._selection_pids = selection_pids
        self._projection_pids = projection_pids
        self.selection_columns = selection_columns or logical.selection_columns
        self.projection_columns = logical.projection_columns
        #: the catalog's proof that the selection phase reaches every tuple
        #: once (:meth:`CatalogIndex.visits_once`), taken only for a view
        #: with no ``valid_mask``: the selection may run hit-only.
        self.visits_once = visits_once
        self.zone_refuted = zone_refuted
        #: the pinned catalog view the plan was built against.  Everything
        #: an execution asks the catalog — partition entries, tuple-level
        #: probes, degraded-read substitutes — it asks this view, and it
        #: marks what the view's ``valid_mask`` hides INVALID before
        #: selecting.
        self.snapshot = snapshot
        #: the catalog version the plan reads.
        self.catalog_version = snapshot.version
        self._estimates: Optional[Tuple[int, int, float]] = None

    # ------------------------------------------------------------- queries

    def decision_for(self, pid: int) -> PartitionDecision:
        """Classification for any pid — including substitutes enlisted at
        runtime, which were not on the initial access lists."""
        return self.logical.classify(self.snapshot.info(pid))

    def pruned(self, pid: int) -> Optional[PartitionDecision]:
        """``pid``'s PRUNED verdict, or None; a plan that cannot prune
        (pruning off, or no WHERE clause) classifies nothing."""
        logical = self.logical
        if not (logical.pruning and logical.conjunction):
            return None
        decision = self.decision_for(pid)
        return decision if decision.is_pruned else None

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
            read = [a for a in self.selection if not a.decision.is_pruned]
            selected = {a.pid for a in read}
            read += [
                a for a in self.projection
                if not a.decision.is_pruned and a.pid not in selected
            ]
            self._estimates = (
                len(read),
                sum(a.n_bytes for a in read),
                estimate_access_io(
                    self.snapshot.manager.device.profile.io_model,
                    (a.n_bytes for a in read),
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
            degrade_enabled=self.policy.degrade_enabled,
            replica_fallback=self.policy.replica_fallback,
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


def _zone_refuted(
    view: CatalogSnapshot, conjunction: Conjunction, pids: Tuple[int, ...]
) -> frozenset:
    """The ``pids`` whose catalog zone refutes one of the predicates."""
    predicates = conjunction.predicates
    return frozenset(
        info.pid for info in map(view.info, pids)
        if any(info.zone_disjoint(p.attribute, p.lo, p.hi) for p in predicates)
    )


class QueryPlanner:
    """Builds logical + physical plans against one partition manager.

    One planner per executor: the executor's pruning knob and scheduling
    family pick the policy, a pinned view of the manager's catalog supplies
    the metadata.  Planning itself performs no I/O.

    ``observer`` is the adaptive-monitoring hook: a callable invoked with
    every ``(query, physical_plan)`` the planner emits.  All four engines
    plan through this class, so attaching an observer here feeds a
    :class:`~repro.adaptive.WorkloadMonitor` from every entry point without
    touching the executors.  Observers must not mutate the plan.

    ``partition_cache`` is the serving tier's semantic cache
    (:class:`repro.serve.PartitionCache`, duck-typed to avoid a layering
    cycle).  When set, the planner consults it before classification —
    ``lookup(logical, view)`` returns replayed per-partition verdicts for an
    equal normalized-predicate signature under the view's version, which
    :meth:`LogicalPlan.use_cached` short-circuits into — and on a miss
    classifies every candidate and records the verdicts back.
    """

    def __init__(
        self,
        manager: PartitionManager,
        table: TableMeta,
        policy: str = POLICY_PARTITION,
        pruning: bool = False,
        degrade_enabled: bool = True,
        replica_fallback: bool = False,
        chunk_size: Optional[int] = None,
        observer: Optional[Callable[[Query, "PhysicalPlan"], None]] = None,
        partition_cache=None,
    ):
        self.manager = manager
        self.table = table
        self.policy = policy
        self.pruning = pruning
        self.observer = observer
        self.partition_cache = partition_cache
        self.access_policy = AccessPolicy(
            degrade_enabled=degrade_enabled,
            replica_fallback=replica_fallback,
            chunk_size=chunk_size,
        )

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
        cache_hit = None
        if cache is not None:
            cache_hit = cache.lookup(logical, view)
            if cache_hit is not None:
                logical.use_cached(cache_hit)
        if logical.conjunction:
            pred_pids = view.partitions_for_attributes(
                logical.predicate_attributes
            )
        else:
            # No WHERE clause: every tuple qualifies without reading a
            # single predicate cell; the plan is projection-only.
            pred_pids = ()
        proj_pids = view.partitions_for_attributes(logical.projected)
        visits_once = bool(pred_pids) and view.valid_mask is None and (
            view.index.visits_once(logical.predicate_attributes)
        )
        plan = PhysicalPlan(
            logical, self.access_policy, pred_pids, proj_pids, view,
            visits_once,
            _zone_refuted(view, logical.conjunction, pred_pids)
            if visits_once else frozenset(),
        )
        if cache is not None and cache_hit is None:
            # The entry replays a verdict for every candidate.
            for pid in pred_pids + proj_pids:
                plan.decision_for(pid)
            cache.record(logical, view)
        if notify and self.observer is not None:
            self.observer(query, plan)
        return plan

    # ------------------------------------------------------ replica-local

    def plan_local(
        self, query: Query, view: CatalogSnapshot
    ) -> Optional[Tuple[int, ...]]:
        """The partitions a replica-local evaluation would read, or None.

        Localizable iff every (non-empty) partition holding a projected cell
        also stores — natively or via replicas — *all* predicate attributes
        for its own tuples; then each partition filters and emits its own
        tuples with no cross-partition reconstruction.
        """
        if not query.where:
            return None
        proj_pids = view.partitions_for_attributes(query.pi_attributes)
        if not proj_pids:
            return None
        sigma = query.sigma_attributes
        non_empty = []
        for pid in proj_pids:
            info = view.info(pid)
            if info.n_tuples == 0:
                continue  # empty placeholder: nothing to evaluate or emit
            if not sigma <= info.full_coverage_attrs:
                return None
            non_empty.append(pid)
        return tuple(non_empty)

    def plan_replica_local(
        self, query: Query, view: CatalogSnapshot
    ) -> Optional[PhysicalPlan]:
        """Physical plan for a partition-local evaluation, or None.

        The access list is the localizable partition set; each access reads
        predicate *and* projected cells (one pass filters and emits).  Full
        coverage makes the scan (any-disjoint) pruning rule sound locally:
        every tuple's predicate cells are covered by the partition's zone,
        so one refuted predicate excludes all local tuples.
        """
        pids = self.plan_local(query, view)
        if pids is None:
            return None
        logical = LogicalPlan(query, policy=POLICY_SCAN, pruning=True)
        return PhysicalPlan(
            logical, self.access_policy, pids, (), view,
            selection_columns=logical.selection_columns
            | logical.projection_columns,
        )
