"""The engine contract: one type under every ``layout.executor``.

:class:`QueryEngine` is what the three drivers extend and what every other
layer programs against, so no caller needs to know which driver it holds.
It owns **construction** (a driver declares its keyword options in
``defaults``; the base checks and records them and builds the
:class:`~repro.plan.physical.QueryPlanner`), the **contract** (``name``,
``planner``, ``pruning``, ``cpu_model``, ``clone(**overrides)``,
``rebind(meta)``, ``plan``/``explain``) and, for every driver, the
**execute scaffold**: pin a catalog view (unless the caller handed one) →
plan against it → read pipeline (a reader *configured from*
``plan.chunk_size``) → the driver's :meth:`_select` and :meth:`_project`
phases → complete result or error → price → publish → release the pin.
A partition that stays unreadable after the manager's retries fails the
query: its :class:`~repro.errors.PartitionUnreadableError` (``pid``,
``io_delta``) leaves ``execute`` as raised, with the pin released.  The
view is the request's whole catalog: nothing below the root asks the live
manager for metadata.  The chunk size is stated once, in the plan; a
driver never hands it to a collaborator itself.  The threaded drivers
schedule their phases' work on threads; the phases, the result and the
stats shape are this one.

Every engine reads a partition one way,
:meth:`PlanReader.load_run <repro.plan.operators.PlanReader.load_run>`:
in runs of plan order, a pool hit answered there and nowhere else.  Two
phase bodies are shared by drivers: :func:`run_selection`, the selection
loop over the predicate partitions, handing each stretch of plan order
between pruned pids to the reader and the driver's ``process`` one run at
a time, and :func:`projection_loop`, Algorithm 5's projection probe (the
partitions holding the selected tuples' missing cells, one tuple-level
probe per owner map).  The write path reads the stored table through the
same probe: :func:`rows` fills a tid list's cells from the partitions it
names, read without a charge.
"""

from __future__ import annotations

import time
from itertools import groupby
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..core.query import Query
from ..core.schema import TableMeta
from ..obs import request_scope
from ..obs import tracer as obs_tracer
from ..plan.explain import ExplainReport
from ..plan.logical import POLICY_PARTITION
from ..plan.operators import (
    STATUS_VALID, PlanReader, ProjectFillOp, SelectOp, finalize_stats,
)
from ..plan.predicates import Conjunction
from ..plan.physical import PhysicalPlan, QueryPlanner
from ..plan.result import ResultSet
from ..plan.stats import CpuModel, ExecutionStats
from ..storage.partition_manager import CatalogSnapshot, PartitionManager
from ..storage.physical import PhysicalPartition

__all__ = [
    "QueryEngine", "QueryRun", "count_prunes", "projection_loop", "rows",
    "run_selection",
]


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
            manager, policy=self.policy,
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
        """Point the engine at the grown table meta."""
        self.table = meta

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
            reader = PlanReader(self.manager, stats, plan.chunk_size)
            run = QueryRun(plan, reader, stats)
            with tracer.phase("exec.selection", stats, cpu_model=cpu_model):
                select_op = self._select(run)
            with tracer.phase("exec.projection", stats, cpu_model=cpu_model):
                fill_op = ProjectFillOp(
                    plan.logical.projected, select_op, self.table.schema
                )
                self._project(run, fill_op)
            result = fill_op.result(stats)
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
    process: Callable[[Sequence[int], List[PhysicalPartition]], None],
) -> int:
    """Drive a selection phase over the predicate partitions, in plan
    order: each stretch between pruned pids goes to
    :meth:`PlanReader.load_run`, and ``process(pids, partitions)`` runs once
    per run it loads; a pruned partition's verdict is applied from the
    catalog alone.  Under the hit-only form no other selection segment
    reaches a pruned partition's tuples, so its pid never enters the loop:
    those prunes are counted at once.  Returns the VALID tuples the
    verdicts evicted."""
    logical = plan.logical
    pruned = plan.verdict.pruned
    pids = plan.selection_pids()
    if select_op.hit_only and pruned:
        count_prunes(plan, [pid for pid in pids if pid in pruned], stats)
        pids = tuple(pid for pid in pids if pid not in pruned)
    evictions = 0
    for is_pruned, group in groupby(pids, pruned.__contains__):
        stretch = tuple(group)
        if not is_pruned:
            for run, partitions in reader.load_run(stretch):
                process(run, partitions)
            continue
        # The partition policy refutes the predicate attributes stored
        # here; under the scan policy one refuted predicate excludes every
        # tuple with a predicate cell here, whatever its other cells say.
        for pid in stretch:
            info = plan.snapshot.info(pid)
            attributes = logical.predicate_attributes
            if logical.policy == POLICY_PARTITION:
                attributes = attributes & info.attributes
            evictions += select_op.invalidate(info, attributes)
        count_prunes(plan, stretch, stats)
    return evictions


def projection_loop(view: CatalogSnapshot, fill_op: ProjectFillOp) -> List[int]:
    """The projection's reads, ascending: every partition of ``view``
    holding a projected cell the result still misses, found through the
    tuple-level index — one probe per owner map, over the union of its
    attributes' missing tids (a probe distributes over a union).  The
    caller loads them."""
    missing_by_attr: Dict[str, np.ndarray] = {}
    groups: Dict[Any, List[str]] = {}  # owner map -> its missing attributes
    for name in fill_op.projected:
        missing = fill_op.missing(name)
        if len(missing):
            missing_by_attr[name] = missing
            groups.setdefault(view.index.owners(name), []).append(name)
    groups.pop(None, None)  # stored primarily nowhere: no partition to read
    pids: Set[int] = set()
    for names in groups.values():
        tids = missing_by_attr[names[0]]
        if len(tids) < len(fill_op.valid) and len(names) > 1:
            filled = np.logical_and.reduce([fill_op.filled[n] for n in names])
            tids = fill_op.valid[~filled]
        pids.update(view.partitions_with_missing_cells(names[0], tids))
    return sorted(pids)


def rows(
    view: CatalogSnapshot, tids: np.ndarray, names: Sequence[str]
) -> Dict[str, np.ndarray]:
    """The ``names`` cells of the tuples ``tids`` (distinct, each stored at
    ``view``), in ascending tid order: the write path's read of the stored
    table.  The tids are the VALID set of a selection, the partitions
    :func:`projection_loop` names are read through
    :meth:`PartitionManager.read
    <repro.storage.partition_manager.PartitionManager.read>`, which charges
    nothing, and a cell no partition supplies raises
    :class:`~repro.errors.StorageError`."""
    names = tuple(names)
    select_op = SelectOp(Conjunction([]), names, view.index.tid_domain())
    select_op.status[tids] = STATUS_VALID
    fill_op = ProjectFillOp(names, select_op, view.manager.schema)
    for pid in projection_loop(view, fill_op):
        fill_op.fill(view.manager.read(view.info(pid)))
    return fill_op.result(ExecutionStats()).columns
