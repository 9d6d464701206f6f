"""The adaptive driver: monitor → advisor → repartitioner, on a budget.

:class:`AdaptiveDaemon` closes the loop around a materialized layout.  It
attaches a :class:`~repro.adaptive.monitor.WorkloadMonitor` to the layout's
planner, and each :meth:`run_cycle` —

1. scores drift between the fitted baseline and the observed window,
2. asks the :class:`~repro.adaptive.advisor.RepartitionAdvisor` whether a
   migration may even be considered (hysteresis + cooldown),
3. selects a migration **scope**: the hottest partitions of the window,
   greedily packed under the ``bytes_budget_per_cycle`` rewrite budget
   (at most :data:`MAX_SCOPE_PARTITIONS` of them),
4. re-tunes the scope with the
   :class:`~repro.adaptive.repartitioner.IncrementalRepartitioner`,
5. prices old vs. new layout on the window and, if the candidate clears the
   improvement floor, executes the migration through the manager's versioned
   catalog swap, then rebaselines the monitor on the window the new layout
   was fitted to.

A cycle that aborts mid-swap (e.g. storage faults during verification)
leaves the catalog untouched and is reported as ``aborted`` — the daemon
simply tries again on a later cycle.

Cycles can be driven explicitly (``run_cycle``), every N observed queries
(``cycle_every``), or from a background thread (``start``/``stop``).  The
thread is cooperative, not transactional: the versioned swap keeps retired
partitions readable for plans built before the commit, but the simulation is
single-process and callers remain responsible for not mutating the same
manager from multiple threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.cost import CostModel
from ..core.partition import Partition, PartitioningPlan
from ..core.partitioner import PartitionerConfig
from ..errors import AdaptationError, StorageError
from ..layouts.base import MaterializedLayout
from ..obs import publish
from ..obs import tracer as obs_tracer
from .advisor import AdvisorConfig, AdvisorVerdict, RepartitionAdvisor
from .monitor import WorkloadMonitor
from .repartitioner import IncrementalRepartitioner, MigrationPlan

__all__ = ["AdaptiveConfig", "AdaptationStats", "CycleReport", "AdaptiveDaemon"]

#: at most this many partitions enter one migration scope.
MAX_SCOPE_PARTITIONS = 8


@dataclass(frozen=True, slots=True)
class AdaptiveConfig:
    """Knobs for the whole adaptive loop (see README, "Adaptive knobs")."""

    #: sliding-window length the monitor keeps (queries).
    window_size: int = 64
    #: trigger/cost gates, passed to the advisor.
    advisor: AdvisorConfig = field(default_factory=AdvisorConfig)
    #: hard ceiling on bytes rewritten per migration cycle.
    bytes_budget_per_cycle: int = 64 * 1024 * 1024
    #: drop retired partitions after a successful migration.
    auto_prune: bool = True
    #: run a cycle automatically every N observed queries (0 = manual only).
    cycle_every: int = 0
    #: background-thread poll interval for :meth:`start`.
    poll_interval_s: float = 0.05

    def __post_init__(self) -> None:
        if self.window_size <= 0:
            raise ValueError("window_size must be positive")
        if self.bytes_budget_per_cycle <= 0:
            raise ValueError("bytes_budget_per_cycle must be positive")
        if self.cycle_every < 0:
            raise ValueError("cycle_every must be non-negative")


@dataclass(slots=True)
class AdaptationStats:
    """Cumulative counters across a daemon's lifetime."""

    n_cycles: int = 0
    n_migrations: int = 0
    n_skipped: int = 0
    n_aborted: int = 0
    bytes_rewritten: int = 0
    #: drift score measured by the most recent cycle.
    drift_score: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "n_cycles": self.n_cycles,
            "n_migrations": self.n_migrations,
            "n_skipped": self.n_skipped,
            "n_aborted": self.n_aborted,
            "bytes_rewritten": self.bytes_rewritten,
            "drift_score": self.drift_score,
        }


@dataclass(slots=True)
class CycleReport:
    """What one :meth:`AdaptiveDaemon.run_cycle` did and why."""

    fired: bool
    reason: str
    drift: float = 0.0
    scope_pids: Tuple[int, ...] = ()
    new_pids: Tuple[int, ...] = ()
    bytes_rewritten: int = 0
    aborted: bool = False
    catalog_version: int = 0
    verdict: Optional[AdvisorVerdict] = None


class AdaptiveDaemon:
    """Drives adaptive repartitioning for one materialized layout.

    Requires a layout with a logical partitioning plan and a planner-backed
    executor (the irregular and workload-driven layouts qualify; a
    columnar-fallback layout has no plan to migrate and raises
    :class:`~repro.errors.AdaptationError`).
    """

    def __init__(
        self,
        layout: MaterializedLayout,
        config: AdaptiveConfig | None = None,
        cost_model: CostModel | None = None,
        tuner_config: PartitionerConfig | None = None,
    ):
        if layout.plan is None or not layout.plan.partitions:
            raise AdaptationError(
                f"layout {layout.name!r} has no logical partitioning plan to adapt"
            )
        if layout.plan.kind != "irregular":
            raise AdaptationError(
                f"layout {layout.name!r} materialized a {layout.plan.kind!r} "
                "plan; only irregular plans are adaptable"
            )
        self.layout = layout
        self.config = config or AdaptiveConfig()
        self.planner = layout.executor.planner
        self.manager = layout.manager
        self.cost_model = cost_model or CostModel(
            layout.table, self.manager.device.profile.io_model
        )
        self.monitor = WorkloadMonitor(
            layout.table, window_size=self.config.window_size
        )
        self.advisor = RepartitionAdvisor(self.cost_model, self.config.advisor)
        self.repartitioner = IncrementalRepartitioner(
            self.cost_model, tuner_config
        )
        self.stats = AdaptationStats()
        #: live logical plan, pid -> partition, kept in sync with the catalog.
        self._current: Dict[int, Partition] = {
            partition.pid: partition for partition in layout.plan
        }
        self._observed_at_last_cycle = 0
        self._cycle_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self.attach()

    # ----------------------------------------------------------- plumbing

    def attach(self) -> None:
        """Hook the monitor into the planner and set the drift baseline."""
        self.planner.observer = self._on_query
        if self.layout.train is not None:
            self.monitor.rebaseline(self.layout.train, self.planner)

    def detach(self) -> None:
        if self.planner.observer is not None:
            self.planner.observer = None

    def _on_query(self, query, plan) -> None:
        self.monitor.observe(query, plan)
        every = self.config.cycle_every
        if every and self.monitor.n_observed - self._observed_at_last_cycle >= every:
            self.run_cycle()

    def current_plan(self) -> PartitioningPlan:
        """The live logical plan (reflects every committed migration)."""
        partitions = sorted(self._current.values(), key=lambda p: p.pid)
        return PartitioningPlan(self.layout.table, partitions, kind="irregular")

    # -------------------------------------------------------------- scope

    def _select_scope(self) -> Tuple[Tuple[int, ...], int]:
        """Hottest observed partitions of the plan that are live at the
        head, packed under the rewrite budget."""
        counts = self.monitor.observed_partition_counts()
        live = self.manager.catalog_index().pids
        ranked = sorted(
            (pid for pid in counts if pid in self._current and pid in live),
            key=lambda pid: (-counts[pid], pid),
        )
        scope: List[int] = []
        total = 0
        for pid in ranked:
            if len(scope) >= MAX_SCOPE_PARTITIONS:
                break
            n_bytes = self.manager.info(pid).n_bytes
            if total + n_bytes > self.config.bytes_budget_per_cycle:
                continue
            scope.append(pid)
            total += n_bytes
        return tuple(sorted(scope)), total

    def _why_no_scope(self) -> str:
        """Why :meth:`_select_scope` found nothing to migrate."""
        observed = self.monitor.observed_partition_counts()
        planned = self._current.keys() & observed.keys()
        if not planned:
            # E.g. a fold rewrote every partition of the plan under fresh pids.
            return (
                f"the window observed {len(observed)} partitions and none "
                "of them is in the daemon's plan"
            )
        if planned.isdisjoint(self.manager.catalog_index().pids):
            # A fold retired them after the window observed them.
            return (
                f"the window observed {len(planned)} partitions of the "
                f"daemon's plan and a later commit retired every one of them "
                f"(pids {sorted(planned)})"
            )
        return (
            "no observed partition fits the "
            f"{self.config.bytes_budget_per_cycle}-byte cycle budget"
        )

    # -------------------------------------------------------------- cycle

    def run_cycle(self) -> CycleReport:
        """One monitor → advisor → migrate decision; always returns a report."""
        with self._cycle_lock:
            with obs_tracer().span("adaptive.cycle") as span:
                report = self._run_cycle_locked()
                span.set(
                    fired=report.fired,
                    reason=report.reason,
                    drift=report.drift,
                    n_scope=len(report.scope_pids),
                    bytes_rewritten=report.bytes_rewritten,
                    aborted=report.aborted,
                    catalog_version=report.catalog_version,
                )
            outcome = (
                "migrated" if report.fired
                else ("aborted" if report.aborted else "skipped")
            )
            publish("adaptive", self.stats, outcome=outcome)
            return report

    def _run_cycle_locked(self) -> CycleReport:
        self.stats.n_cycles += 1
        self._observed_at_last_cycle = self.monitor.n_observed
        version = self.manager.catalog_version
        drift = self.monitor.drift_score()
        self.stats.drift_score = drift

        skip = self.advisor.should_consider(drift, self.monitor.n_observed)
        if skip is not None:
            self.stats.n_skipped += 1
            return CycleReport(
                fired=False, reason=skip, drift=drift, catalog_version=version
            )

        window = self.monitor.window_workload()
        scope, scope_bytes = self._select_scope()
        if not scope:
            self.stats.n_skipped += 1
            return CycleReport(
                fired=False, reason=self._why_no_scope(), drift=drift,
                catalog_version=version,
            )

        plan = self.repartitioner.propose(
            self._current, scope, window, self.manager.next_pid()
        )
        plan.scope_bytes = scope_bytes

        candidate = [
            partition
            for pid, partition in self._current.items()
            if pid not in plan.scope_pids
        ]
        candidate.extend(plan.new_partitions)
        verdict = self.advisor.appraise(
            self._current.values(), candidate, window,
            drift=drift, planner=self.planner,
        )
        if not verdict.fire:
            self.stats.n_skipped += 1
            return CycleReport(
                fired=False,
                reason=verdict.reason,
                drift=drift,
                scope_pids=plan.scope_pids,
                catalog_version=version,
                verdict=verdict,
            )

        try:
            self._execute(plan)
        except StorageError as error:
            self.stats.n_aborted += 1
            return CycleReport(
                fired=False,
                reason=f"migration aborted: {error}",
                drift=drift,
                scope_pids=plan.scope_pids,
                aborted=True,
                catalog_version=self.manager.catalog_version,
                verdict=verdict,
            )

        self.stats.n_migrations += 1
        self.stats.bytes_rewritten += plan.scope_bytes
        self.advisor.migrated(self.monitor.n_observed)
        # The new layout is fitted to the window snapshot: rebaseline on it
        # so drift measures future movement, not the shift just absorbed.
        self.monitor.rebaseline(window, self.planner)
        if self.config.auto_prune:
            self.manager.prune_retired()
        return CycleReport(
            fired=True,
            reason=verdict.reason,
            drift=drift,
            scope_pids=plan.scope_pids,
            new_pids=tuple(p.pid for p in plan.new_partitions),
            bytes_rewritten=plan.scope_bytes,
            catalog_version=self.manager.catalog_version,
            verdict=verdict,
        )

    def _execute(self, plan: MigrationPlan) -> None:
        # Staged partitions are read back and verified before the commit.
        self.repartitioner.execute(plan, self.manager)
        for pid in plan.scope_pids:
            del self._current[pid]
        for partition in plan.new_partitions:
            self._current[partition.pid] = partition
        self.layout.plan = self.current_plan()

    # ------------------------------------------------------------- thread

    def start(self) -> None:
        """Run cycles from a background thread until :meth:`stop`."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._loop, name="jigsaw-adaptive", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Signal the background thread and wait for it to exit."""
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _loop(self) -> None:
        while not self._stop_event.wait(self.config.poll_interval_s):
            self.run_cycle()
