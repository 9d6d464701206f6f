"""The engine contract: one type under every ``layout.executor``.

:class:`QueryEngine` is what the four drivers extend and what every other
layer programs against, so no caller needs to know which driver it holds.
It owns **construction** (a driver declares its keyword options in
``defaults``; the base checks and records them and builds the
:class:`~repro.plan.physical.QueryPlanner`), the **contract** (``name``,
``planner``, ``pruning``, ``cpu_model``, ``clone(**overrides)``,
``rebind(meta)``, ``plan``/``explain``) and, for the three vectorised
drivers, the **execute scaffold**: pin a catalog view (unless the caller
handed one) → plan against it → read pipeline (fault context, reader,
degrade op) *configured from* ``plan.policy`` → the driver's
:meth:`_select` and :meth:`_project` phases → complete result or error →
price → publish → release the pin.  The view is the request's whole
catalog: nothing below the root asks the live manager for metadata.  Fault
and chunking policy is stated once, in the plan; a driver never hands it to
a collaborator itself.  The threaded protocols replace ``execute`` whole.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Mapping, NamedTuple, Optional, Tuple

from ..core.query import Query
from ..core.schema import TableMeta
from ..errors import PartitionUnreadableError
from ..obs import request_scope
from ..obs import tracer as obs_tracer
from ..plan.degrade import FaultContext
from ..plan.explain import ExplainReport
from ..plan.logical import POLICY_PARTITION
from ..plan.operators import (
    AccessLoop,
    DegradeOp,
    PlanReader,
    ProjectFillOp,
    SelectOp,
    finalize_stats,
)
from ..plan.physical import PhysicalPlan, QueryPlanner
from ..plan.result import ResultSet
from ..plan.stats import CpuModel, ExecutionStats
from ..storage.partition_manager import CatalogSnapshot, PartitionManager
from ..storage.physical import PhysicalPartition

__all__ = ["QueryEngine", "QueryRun", "count_prune", "run_selection"]


class QueryRun(NamedTuple):
    """One execution's plan, read pipeline and ledger, as the scaffold
    hands them to a driver's phases."""

    plan: PhysicalPlan
    reader: PlanReader
    degrade: DegradeOp
    stats: ExecutionStats


class QueryEngine:
    """Base of every query engine; see the module docstring."""

    #: label ``explain``, the ``exec.query`` span and the request scope carry.
    name: str = ""
    #: the planner's pruning family.
    policy: str = POLICY_PARTITION
    #: every keyword option the driver takes, with its default.  The table is
    #: the whole list: each option is a public attribute, :meth:`clone`
    #: replays all of them, and any other name is a ``TypeError``.
    defaults: Mapping[str, Any] = {"partition_cache": None}
    #: None on an engine that does not price CPU events.
    cpu_model: Optional[CpuModel] = None
    #: engines this one delegates to (rebound with it).
    inner: Tuple["QueryEngine", ...] = ()
    partition_cache: Any

    def __init__(
        self, manager: PartitionManager, table: TableMeta, **options: Any
    ):
        unknown = sorted(options.keys() - self.defaults.keys())
        if unknown:
            raise TypeError(f"{type(self).__name__} has no option {unknown}")
        self.manager = manager
        self.table = table
        #: the options as built (None = the default, as in a signature).
        self.options: Dict[str, Any] = {
            **self.defaults,
            **{k: v for k, v in options.items() if v is not None},
        }
        vars(self).update(self.options)
        self.planner = QueryPlanner(
            manager, table, policy=self.policy,
            partition_cache=self.partition_cache, **self._planning(),
        )

    def _planning(self) -> Dict[str, Any]:
        """The planner arguments this driver's options and policy imply."""
        return {}

    # ---------------------------------------------------------- contract

    @property
    def pruning(self) -> bool:
        """Whether this engine's planner zone-prunes refuted partitions."""
        return self.planner.pruning

    def clone(self, **overrides: Any) -> "QueryEngine":
        """This engine, but with ``overrides``: same class, manager and
        table, every other option as built."""
        return type(self)(
            self.manager, self.table, **{**self.options, **overrides}
        )

    def rebind(self, meta: TableMeta) -> None:
        """Point the engine, its planner and any inner engine at the grown
        table meta."""
        self.table = meta
        self.planner.table = meta
        for engine in self.inner:
            engine.rebind(meta)

    def plan(self, query: Query) -> PhysicalPlan:
        """The physical plan ``execute`` would drive (no I/O)."""
        return self.planner.plan(query)

    def explain(self, query: Query) -> ExplainReport:
        """Snapshot of the plan's pruning and access decisions."""
        return self.plan(query).explain(engine=self.name)

    # ------------------------------------------------------------ execute

    def execute(
        self, query: Query, snapshot: Optional[CatalogSnapshot] = None
    ) -> Tuple[ResultSet, ExecutionStats]:
        """Evaluate ``query`` against ``snapshot`` — the caller's pinned
        view (``AS OF``) — or the catalog as it stands."""
        return self._run(query, snapshot)

    def _run(
        self,
        query: Query,
        snapshot: Optional[CatalogSnapshot],
        plan: Optional[PhysicalPlan] = None,
    ) -> Tuple[ResultSet, ExecutionStats]:
        """The scaffold: where a vectorised query starts and ends.  A driver
        that had to plan before choosing this path hands its ``plan``."""
        if snapshot is None:
            with self.manager.pin_snapshot() as snapshot:
                return self._run(query, snapshot, plan)
        started = time.perf_counter()
        stats = ExecutionStats()
        cpu_model = self.cpu_model
        # The tracer is resolved inside the scope: a root scope may install
        # the one that captures this request's spans for the slow-query log.
        with request_scope(self.name, query) as scope, (
            tracer := obs_tracer()
        ).phase("exec.query", stats, cpu_model=cpu_model, engine=self.name):
            if plan is None:
                plan = self.planner.plan(query, snapshot=snapshot)
            policy = plan.policy
            fctx = FaultContext()
            reader = PlanReader(
                self.manager, stats, fctx, chunk_size=policy.chunk_size
            )
            degrade = DegradeOp(
                snapshot.index, stats, fctx, enabled=policy.degrade_enabled
            )
            run = QueryRun(plan, reader, degrade, stats)
            try:
                with tracer.phase("exec.selection", stats, cpu_model=cpu_model):
                    select_op = self._select(run)
                with tracer.phase("exec.projection", stats, cpu_model=cpu_model):
                    fill_op = ProjectFillOp(
                        plan.logical.projected, select_op, self.table.schema
                    )
                    self._project(run, fill_op)
            except PartitionUnreadableError as exc:
                if not policy.replica_fallback:
                    raise
                result, combined = self._retreat(query, run, exc)
                finalize_stats(combined, cpu_model, started)
                scope.complete(combined, plan)
                return result, combined
            result = fill_op.result(stats, fctx.unreadable)
            finalize_stats(stats, cpu_model, started)
            scope.complete(stats, plan)
        return result, stats

    # -------------------------------------------------------- driver hooks

    def _select(self, run: QueryRun) -> SelectOp:
        """Phase 1: read the predicate partitions; the returned op's status
        vector is final."""
        raise NotImplementedError

    def _project(self, run: QueryRun, fill_op: ProjectFillOp) -> None:
        """Phase 2: fill the selected tuples' projected cells."""
        raise NotImplementedError

    def _retreat(
        self, query: Query, run: QueryRun, exc: PartitionUnreadableError
    ) -> Tuple[ResultSet, ExecutionStats]:
        """Answer ``query`` another way after ``exc`` aborted a plan whose
        policy is ``replica_fallback`` (only such a plan's driver has one);
        the returned ledger includes the aborted attempt's."""
        raise NotImplementedError


def count_prune(decision, stats: ExecutionStats) -> None:
    """Count one planner-pruned partition, attributing sketch-won skips.

    A verdict replayed from the partition cache keeps its original
    ``source`` (so sketch attribution is identical cache-on vs cache-off)
    and additionally counts in ``n_partitions_cache_pruned``.
    """
    stats.n_partitions_skipped += 1
    stats.n_partitions_pruned += 1
    if decision.source == "sketch":
        stats.n_partitions_sketch_pruned += 1
    if decision.via_cache:
        stats.n_partitions_cache_pruned += 1


def run_selection(
    plan,
    reader: PlanReader,
    degrade: DegradeOp,
    select_op: SelectOp,
    stats: ExecutionStats,
    process: Callable[[int, PhysicalPartition], None],
) -> int:
    """Drive a selection phase: every predicate partition in plan order,
    ``process`` on each one read, and a pruned one's verdict applied from
    the catalog alone.  Returns the VALID tuples those verdicts evicted."""
    logical = plan.logical
    loop = AccessLoop(
        reader, degrade, logical.predicate_attributes, plan.selection_columns
    )
    loop.pending.extend(plan.selection_pids())
    evictions = 0
    # Under the visit-once verdict a substitute is never a selection pid.
    substitutes = degrade.fctx.degraded

    def skip(pid: int) -> bool:
        nonlocal evictions
        if select_op.hit_only and pid in substitutes:
            select_op.flush()
        decision = plan.pruned(pid)
        if decision is None:
            return False
        # The partition policy names the refuted attributes; under the scan
        # policy one refuted predicate excludes every tuple with a predicate
        # cell here, whatever its other cells say.
        evictions += select_op.invalidate(
            plan.snapshot.info(pid),
            decision.pruned_attributes or logical.predicate_attributes,
        )
        count_prune(decision, stats)
        return True

    loop.run(process, skip)
    return evictions
