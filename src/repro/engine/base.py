"""The engine contract: one type under every ``layout.executor``.

:class:`QueryEngine` is what the three drivers extend and what every other
layer programs against, so no caller needs to know which driver it holds.
It owns **construction** (a driver declares its keyword options in
``defaults``; the base checks and records them and builds the
:class:`~repro.plan.physical.QueryPlanner`), the **contract** (``name``,
``planner``, ``pruning``, ``cpu_model``, ``clone(**overrides)``,
``rebind(meta)``, ``plan``/``explain``) and, for the two vectorised
drivers, the **execute scaffold**: pin a catalog view (unless the caller
handed one) → plan against it → read pipeline (a reader *configured from*
``plan.policy``, with the execution's fault context) → the driver's
:meth:`_select` and :meth:`_project` phases → complete result or error →
price → publish → release the pin.  The view is the request's whole
catalog: nothing below the root asks the live manager for metadata.  The
chunking policy is stated once, in the plan; a driver never hands it to a
collaborator itself.  The threaded protocols replace ``execute`` whole.
"""

from __future__ import annotations

import time
from typing import (
    Any,
    Callable,
    Dict,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..core.query import Query
from ..core.schema import TableMeta
from ..obs import request_scope
from ..obs import tracer as obs_tracer
from ..plan.degrade import FaultContext
from ..plan.explain import ExplainReport
from ..plan.logical import POLICY_PARTITION
from ..plan.operators import (
    AccessLoop,
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

__all__ = ["QueryEngine", "QueryRun", "count_prunes", "run_selection"]


class QueryRun(NamedTuple):
    """One execution's plan, read pipeline and ledger, as the scaffold
    hands them to a driver's phases."""

    plan: PhysicalPlan
    reader: PlanReader
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
        """Point the engine and its planner at the grown table meta."""
        self.table = meta
        self.planner.table = meta

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
        self, query: Query, snapshot: Optional[CatalogSnapshot]
    ) -> Tuple[ResultSet, ExecutionStats]:
        """The scaffold: where a vectorised query starts and ends."""
        if snapshot is None:
            with self.manager.pin_snapshot() as snapshot:
                return self._run(query, snapshot)
        started = time.perf_counter()
        stats = ExecutionStats()
        cpu_model = self.cpu_model
        # The tracer is resolved inside the scope: a root scope may install
        # the one that captures this request's spans for the slow-query log.
        with request_scope(self.name, query) as scope, (
            tracer := obs_tracer()
        ).phase("exec.query", stats, cpu_model=cpu_model, engine=self.name):
            plan = self.planner.plan(query, snapshot=snapshot)
            fctx = FaultContext()
            reader = PlanReader(
                self.manager, stats, fctx, chunk_size=plan.policy.chunk_size
            )
            run = QueryRun(plan, reader, stats)
            with tracer.phase("exec.selection", stats, cpu_model=cpu_model):
                select_op = self._select(run)
            with tracer.phase("exec.projection", stats, cpu_model=cpu_model):
                fill_op = ProjectFillOp(
                    plan.logical.projected, select_op, self.table.schema
                )
                self._project(run, fill_op)
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
        """Phase 2: fill the selected tuples' projected cells
        (``fill_op.select`` is what phase 1 returned)."""
        raise NotImplementedError


def count_prunes(
    plan: PhysicalPlan, pids: Sequence[int], stats: ExecutionStats
) -> None:
    """Count planner-pruned ``pids`` at once, attributing sketch-won skips.

    A prune replayed from the partition cache keeps its sketch attribution
    (so it is identical cache-on vs cache-off) and additionally counts in
    ``n_partitions_cache_pruned``.
    """
    verdict = plan.verdict
    stats.n_partitions_skipped += len(pids)
    stats.n_partitions_pruned += len(pids)
    stats.n_partitions_sketch_pruned += len(verdict.sketched.intersection(pids))
    stats.n_partitions_cache_pruned += len(verdict.cached.intersection(pids))


def run_selection(
    plan: PhysicalPlan,
    reader: PlanReader,
    select_op: SelectOp,
    stats: ExecutionStats,
    process: Callable[[int, PhysicalPartition], None],
) -> int:
    """Drive a selection phase: every surviving predicate partition in plan
    order, ``process`` on each one read, and a pruned one's verdict applied
    from the catalog alone.  Under the hit-only form no other selection
    segment reaches a pruned partition's tuples — nor a degraded substitute:
    every selection tuple has one home — so its pid never enters the loop
    and the prunes are counted at once.  Returns the VALID tuples the
    verdicts evicted."""
    logical = plan.logical
    loop = AccessLoop(reader, plan.snapshot.index, logical.predicate_attributes)
    pids = plan.selection_pids()
    pruned = plan.verdict.pruned
    if select_op.hit_only and pruned:
        count_prunes(plan, [pid for pid in pids if pid in pruned], stats)
        pids = tuple(pid for pid in pids if pid not in pruned)
    loop.pending.extend(pids)
    evictions = 0

    def skip(pid: int) -> bool:
        nonlocal evictions
        if pid not in pruned:
            return False
        # The partition policy refutes the predicate attributes stored here;
        # under the scan policy one refuted predicate excludes every tuple
        # with a predicate cell here, whatever its other cells say.
        info = plan.snapshot.info(pid)
        attributes = logical.predicate_attributes
        if logical.policy == POLICY_PARTITION:
            attributes = attributes & info.attributes
        evictions += select_op.invalidate(info, attributes)
        count_prunes(plan, (pid,), stats)
        return True

    loop.run(process, skip)
    return evictions
