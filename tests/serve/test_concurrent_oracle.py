"""Concurrent differential-oracle sweeps through the serving tier.

The serving tier's correctness claim is not "the engines are right" (the
oracle in :mod:`tests.testing` already pins that, serially) but "the
engines are *still* right when eight clients hammer them through the
scheduler with the partition cache on — while the store injects faults and
the adaptive daemon swaps the layout mid-replay."  Every replayed result is
diffed against the dense numpy reference in the client thread.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.adaptive import AdaptiveConfig, AdaptiveDaemon, AdvisorConfig
from repro.cli import _serve_engines
from repro.core import Query, TableSchema, Workload
from repro.engine import PartitionAtATimeExecutor
from repro.layouts import BuildContext, IrregularLayout
from repro.serve import (
    PartitionCache,
    QueryScheduler,
    build_client_mix,
    run_replay,
)
from repro.storage import ColumnTable, FaultConfig, RetryPolicy
from repro.testing.oracle import (
    ORACLE_LAYOUTS,
    inject_faults,
    random_table,
    random_workload,
    run_reference_query,
)

N_CLIENTS = 8


def _verifier(table):
    def verify(engine, query, result, _stats):
        if result.equals(run_reference_query(table, query)):
            return None
        return f"{engine}: {query.label!r} diverged from the reference"

    return verify


class TestConcurrentSweep:
    @pytest.mark.parametrize(
        "layout_name,make", ORACLE_LAYOUTS, ids=[n for n, _ in ORACLE_LAYOUTS]
    )
    def test_every_engine_oracle_exact_under_concurrency(
        self, layout_name, make, serve_table, serve_workload, serve_ctx
    ):
        layout = make().build(serve_table, serve_workload, serve_ctx)
        cache = PartitionCache(layout.manager)
        engines = _serve_engines(layout, cache)
        mix = build_client_mix(
            np.random.default_rng(41),
            tuple(engines),
            list(serve_workload.queries),
            n_clients=N_CLIENTS,
            requests_per_client=6,
        )
        with QueryScheduler(engines, workers=4, queue_depth=16) as scheduler:
            report = run_replay(
                scheduler, mix, verify=_verifier(serve_table)
            )
        assert report.ok, report.failures[:3]
        assert report.n_completed == N_CLIENTS * 6
        assert scheduler.n_errors == 0
        # The overlapping mix must actually have exercised the cache.
        assert cache.stats.n_hits > 0

    def test_oracle_exact_under_fault_injection(
        self, serve_table, serve_workload, serve_ctx
    ):
        layout = IrregularLayout(selection_enabled=False).build(
            serve_table, serve_workload, serve_ctx
        )
        layout.manager.retry_policy = RetryPolicy(max_attempts=8)
        store = inject_faults(
            layout,
            FaultConfig(transient_error_rate=0.10, corruption_rate=0.05),
            seed=3,
        )
        cache = PartitionCache(layout.manager)
        engines = _serve_engines(layout, cache)
        mix = build_client_mix(
            np.random.default_rng(42),
            tuple(engines),
            list(serve_workload.queries),
            n_clients=N_CLIENTS,
            requests_per_client=5,
        )
        with QueryScheduler(engines, workers=4, queue_depth=16) as scheduler:
            report = run_replay(
                scheduler, mix, verify=_verifier(serve_table)
            )
        assert report.ok, report.failures[:3]
        assert report.n_completed == N_CLIENTS * 5
        # The run is only meaningful if faults really fired.
        assert store.stats.n_transient_errors + store.stats.n_bit_flips > 0


class TestSwapMidReplay:
    """Cache-on serving stays oracle-exact across an adaptive migration."""

    @staticmethod
    def _drift_setup():
        rng = np.random.default_rng(7)
        schema = TableSchema.uniform([f"a{i}" for i in range(1, 9)])
        columns = {
            name: rng.integers(0, 10_000, 5_000).astype(np.int32)
            for name in schema.attribute_names
        }
        table = ColumnTable.build("T", schema, columns)
        meta = table.meta
        train = Workload(meta, [
            Query.build(meta, ["a2", "a3"], {"a1": (0, 1999)}, label="Q1"),
            Query.build(meta, ["a2", "a3"], {"a4": (5000, 9999)}, label="Q2"),
            Query.build(meta, ["a5"], {"a6": (4000, 4999)}, label="Q3"),
        ])
        shifted = [
            Query.build(meta, ["a7", "a8"], {"a7": (0, 2999)}, label="S1"),
            Query.build(meta, ["a7", "a8"], {"a8": (7000, 9999)}, label="S2"),
        ]
        layout = IrregularLayout().build(
            table, train, BuildContext(file_segment_bytes=8 * 1024)
        )
        assert layout.plan is not None and layout.plan.kind == "irregular"
        return table, train, shifted, layout

    def test_migration_mid_replay_stays_exact_and_invalidates(self):
        table, train, shifted, layout = self._drift_setup()
        manager = layout.manager
        daemon = AdaptiveDaemon(
            layout,
            table,
            AdaptiveConfig(
                window_size=32,
                advisor=AdvisorConfig(
                    drift_threshold=0.2, drift_reset=0.1,
                    min_improvement=0.01, cooldown_queries=4,
                ),
                bytes_budget_per_cycle=1 << 30,
                # Retired partitions must stay readable for plans that were
                # in flight when the swap committed.
                auto_prune=False,
            ),
        )
        cache = PartitionCache(manager)
        engine = PartitionAtATimeExecutor(
            table=table.meta, manager=manager,
            zone_maps=True, partition_cache=cache,
        )
        queries = list(train.queries) + shifted
        mix = build_client_mix(
            np.random.default_rng(43),
            ("partition-at-a-time",),
            queries,
            n_clients=N_CLIENTS,
            requests_per_client=20,
        )
        version_before = manager.catalog_version

        # Drive drift through the daemon-observed mainline path first, so
        # run_cycle deterministically fires once the replay is in flight.
        for _ in range(16):
            for query in shifted:
                layout.execute(query)

        report_box = {}
        verify = _verifier(table)

        def replay():
            with QueryScheduler(
                {"partition-at-a-time": engine}, workers=4, queue_depth=32
            ) as scheduler:
                report_box["report"] = run_replay(
                    scheduler, mix, verify=verify
                )

        replayer = threading.Thread(target=replay, name="replay-driver")
        replayer.start()
        # Let clients get in flight before the swap — and, on a loaded
        # machine, wait until one has planned, or the swap would find
        # nothing in the cache to invalidate.
        deadline = time.monotonic() + 30.0
        while len(cache) == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        time.sleep(0.05)
        cycle = daemon.run_cycle()
        replayer.join(120.0)
        assert not replayer.is_alive()

        report = report_box["report"]
        assert cycle.fired, cycle.reason
        assert daemon.stats.n_migrations == 1
        assert manager.catalog_version > version_before
        assert report.ok, report.failures[:3]
        assert report.n_completed == N_CLIENTS * 20
        # The swap's version bump reached the cache's invalidation hook.
        assert cache.stats.n_invalidated > 0
        # Post-swap serving still agrees with the reference and re-warms.
        hits_before = cache.stats.n_hits
        for query in queries:
            result, _ = engine.execute(query)
            assert result.equals(run_reference_query(table, query))
            result, _ = engine.execute(query)
            assert result.equals(run_reference_query(table, query))
        assert cache.stats.n_hits > hits_before
