"""Integration tests for the adaptive daemon's full loop."""

from __future__ import annotations

import time

import pytest

from repro.adaptive import AdaptiveConfig, AdaptiveDaemon, AdvisorConfig
from repro.errors import AdaptationError
from repro.layouts import BuildContext, ColumnLayout
from repro.storage import FaultConfig, FaultInjectingBlobStore
from repro.testing.oracle import oracle_check


def make_daemon(layout, **overrides):
    defaults = dict(
        window_size=32,
        advisor=AdvisorConfig(drift_threshold=0.2, drift_reset=0.1,
                              min_improvement=0.01, cooldown_queries=4),
        bytes_budget_per_cycle=1 << 30,
    )
    defaults.update(overrides)
    return AdaptiveDaemon(layout, AdaptiveConfig(**defaults))


def run_queries(layout, queries, repeat=1):
    for _ in range(repeat):
        for query in queries:
            layout.execute(query)


class TestConstruction:
    def test_rejects_layout_without_plan(self, drift_layout, drift_table):
        drift_layout.plan = None
        with pytest.raises(AdaptationError, match="no logical partitioning plan"):
            AdaptiveDaemon(drift_layout)

    def test_rejects_columnar_plan(self, drift_table, train_workload):
        layout = ColumnLayout().build(
            drift_table, train_workload, BuildContext(file_segment_bytes=8 * 1024)
        )
        with pytest.raises(AdaptationError):
            AdaptiveDaemon(layout)

    def test_attach_sets_observer_and_baseline(self, drift_layout, drift_table):
        daemon = make_daemon(drift_layout)
        planner = drift_layout.executor.planner
        assert planner.observer is not None
        assert daemon.monitor.fitted is drift_layout.train

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(window_size=0)
        with pytest.raises(ValueError):
            AdaptiveConfig(bytes_budget_per_cycle=0)


class TestCycle:
    def test_no_drift_no_migration(self, drift_layout, drift_table, train_workload):
        daemon = make_daemon(drift_layout)
        run_queries(drift_layout, train_workload, repeat=4)
        report = daemon.run_cycle()
        assert not report.fired
        assert "below threshold" in report.reason
        assert daemon.stats.n_migrations == 0

    def test_drift_triggers_migration_and_results_stay_exact(
        self, drift_layout, drift_table, train_workload, shifted_queries
    ):
        daemon = make_daemon(drift_layout)
        run_queries(drift_layout, train_workload)
        run_queries(drift_layout, shifted_queries, repeat=16)
        report = daemon.run_cycle()
        assert report.fired, report.reason
        assert report.bytes_rewritten > 0
        assert report.new_pids
        assert daemon.stats.n_migrations == 1
        assert daemon.stats.bytes_rewritten == report.bytes_rewritten
        # The layout's logical plan tracks the migration.
        assert {p.pid for p in drift_layout.plan} == set(daemon._current)
        # Drift is re-anchored on the window the new layout was fitted to.
        assert daemon.monitor.drift_score() == pytest.approx(0.0)
        # Every query — old mix and new — still matches the dense oracle.
        for query in list(train_workload) + shifted_queries:
            assert oracle_check(drift_layout, drift_table, query) is None

    def test_oscillating_workload_does_not_thrash(
        self, drift_layout, drift_table, train_workload, shifted_queries
    ):
        daemon = make_daemon(drift_layout)
        run_queries(drift_layout, shifted_queries, repeat=16)
        assert daemon.run_cycle().fired
        # Same shifted mix keeps flowing: drift stays ~0, nothing re-fires.
        for _ in range(3):
            run_queries(drift_layout, shifted_queries, repeat=8)
            assert not daemon.run_cycle().fired
        assert daemon.stats.n_migrations == 1

    def test_budget_too_small_skips_cycle(
        self, drift_layout, drift_table, shifted_queries
    ):
        daemon = make_daemon(drift_layout, bytes_budget_per_cycle=1)
        run_queries(drift_layout, shifted_queries, repeat=16)
        report = daemon.run_cycle()
        assert not report.fired
        assert "budget" in report.reason
        assert daemon.stats.n_skipped == 1

    def test_aborted_migration_keeps_old_layout_queryable(
        self, drift_layout, drift_table, train_workload, shifted_queries
    ):
        daemon = make_daemon(drift_layout)
        run_queries(drift_layout, shifted_queries, repeat=16)
        manager = drift_layout.manager
        pids_before = manager.pids()
        inner = manager.store
        manager.store = FaultInjectingBlobStore(
            inner, config=FaultConfig(transient_error_rate=1.0), seed=5
        )
        report = daemon.run_cycle()
        manager.store = inner
        assert report.aborted and not report.fired
        assert daemon.stats.n_aborted == 1
        assert manager.pids() == pids_before
        for query in list(train_workload) + shifted_queries:
            assert oracle_check(drift_layout, drift_table, query) is None
        # The daemon retries on a later cycle once the storage recovers.
        run_queries(drift_layout, shifted_queries, repeat=2)
        retry = daemon.run_cycle()
        assert retry.fired, retry.reason

    def test_migration_exact_under_persistent_fault_injection(
        self, drift_layout, drift_table, train_workload, shifted_queries
    ):
        # Faulty-but-recoverable storage for the whole scenario: queries
        # before, during and after the migration all stay oracle-exact.  The
        # layout has no overlapping copies to degrade onto, so give the
        # retry loop enough budget that every read eventually lands.
        from repro.storage import RetryPolicy

        manager = drift_layout.manager
        manager.retry_policy = RetryPolicy(max_attempts=8)
        manager.store = FaultInjectingBlobStore(
            manager.store,
            config=FaultConfig(transient_error_rate=0.3, corruption_rate=0.1),
            seed=11,
        )
        daemon = make_daemon(drift_layout)
        for query in train_workload:
            assert oracle_check(drift_layout, drift_table, query) is None
        run_queries(drift_layout, shifted_queries, repeat=16)
        report = daemon.run_cycle()
        assert report.fired, report.reason
        for query in list(train_workload) + shifted_queries:
            assert oracle_check(drift_layout, drift_table, query) is None

    def test_cycle_every_runs_cycles_from_observer(
        self, drift_layout, drift_table, shifted_queries
    ):
        daemon = make_daemon(drift_layout, cycle_every=10)
        run_queries(drift_layout, shifted_queries, repeat=16)
        assert daemon.stats.n_cycles >= 3
        assert daemon.stats.n_migrations >= 1
        for query in shifted_queries:
            assert oracle_check(drift_layout, drift_table, query) is None


class TestBackgroundThread:
    def test_start_stop(self, drift_layout, drift_table, shifted_queries):
        daemon = make_daemon(drift_layout, poll_interval_s=0.01)
        daemon.start()
        try:
            assert daemon.running
            daemon.start()  # idempotent
            run_queries(drift_layout, shifted_queries, repeat=16)
            deadline = time.monotonic() + 5.0
            while daemon.stats.n_migrations == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            daemon.stop()
        assert not daemon.running
        assert daemon.stats.n_migrations >= 1
        for query in shifted_queries:
            assert oracle_check(drift_layout, drift_table, query) is None
