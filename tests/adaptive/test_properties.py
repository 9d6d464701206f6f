"""Property-based tests (hypothesis) for adaptive repartitioning.

Two invariants carry the whole subsystem:

* **cell exactness** — whatever region the incremental repartitioner is
  scoped to, its proposal covers exactly that region's (attribute, tuple)
  cells: no gaps, no overlaps, for any random table, layout and window;
* **query transparency** — a stream of queries interleaved with migrations
  returns byte-identical results to the dense numpy reference at every
  point, including when every read goes through fault-injecting storage.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adaptive import (
    AdaptiveConfig,
    AdaptiveDaemon,
    AdvisorConfig,
    IncrementalRepartitioner,
)
from repro.core import CostModel, IOModel, Workload
from repro.layouts import BuildContext, IrregularLayout
from repro.storage import FaultConfig, FaultInjectingBlobStore, RetryPolicy
from repro.testing.oracle import (
    oracle_check,
    random_query,
    random_table,
    random_workload,
)

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def concrete_cells(segments, table):
    cells = set()
    total = 0
    for segment in segments:
        mask = table.mask_for_box(segment.ranges, segment.tight)
        tids = np.nonzero(mask)[0]
        total += len(segment.attributes) * len(tids)
        for attribute in segment.attributes:
            cells.update((attribute, int(tid)) for tid in tids)
    return cells, total


def build_irregular(seed, n_queries=4):
    rng = np.random.default_rng(seed)
    table = random_table(rng, n_attrs=5, n_tuples=400)
    train = random_workload(rng, table, n_queries=n_queries)
    ctx = BuildContext(file_segment_bytes=2048)
    layout = IrregularLayout(selection_enabled=False).build(table, train, ctx)
    return rng, table, train, layout


class TestCellExactness:
    @given(seed=st.integers(0, 2**31), scope_seed=st.integers(0, 2**31))
    @SLOW
    def test_refined_scope_covers_exactly_the_input_region(
        self, seed, scope_seed
    ):
        rng, table, train, layout = build_irregular(seed)
        current = {p.pid: p for p in layout.plan}
        scope_rng = np.random.default_rng(scope_seed)
        n_scope = int(scope_rng.integers(1, len(current) + 1))
        scope = sorted(
            int(pid) for pid in scope_rng.choice(
                sorted(current), size=n_scope, replace=False
            )
        )
        window = Workload(
            table.meta,
            [random_query(scope_rng, table, label=f"w{i}") for i in range(4)],
        )
        cost_model = CostModel(table.meta, IOModel.from_throughput(75.0, 0.001))
        plan = IncrementalRepartitioner(cost_model).propose(
            current, scope, window, next_pid=1000
        )
        scope_segments = [
            segment for pid in scope for segment in current[pid].segments
        ]
        new_segments = [
            segment
            for partition in plan.new_partitions
            for segment in partition.segments
        ]
        expected, _ = concrete_cells(scope_segments, table)
        got, multiplicity = concrete_cells(new_segments, table)
        assert got == expected            # no gaps, nothing leaks in
        assert multiplicity == len(got)   # no cell stored twice


class TestInterleavedMigrations:
    @given(seed=st.integers(0, 2**31))
    @SLOW
    def test_queries_oracle_exact_across_migrations(self, seed):
        rng, table, train, layout = build_irregular(seed)
        daemon = AdaptiveDaemon(
            layout,
            AdaptiveConfig(
                window_size=16,
                advisor=AdvisorConfig(drift_threshold=0.05, drift_reset=0.0,
                                      min_improvement=0.0, cooldown_queries=0),
                bytes_budget_per_cycle=1 << 30,
            ),
        )
        for round_index in range(4):
            queries = [
                random_query(rng, table, label=f"r{round_index}q{i}")
                for i in range(3)
            ]
            for query in queries:
                assert oracle_check(layout, table, query) is None
            daemon.run_cycle()
            for query in queries:
                assert oracle_check(layout, table, query) is None

    @given(seed=st.integers(0, 2**31))
    @SLOW
    def test_oracle_exact_across_migrations_under_faults(self, seed):
        rng, table, train, layout = build_irregular(seed)
        # No overlapping copies to degrade onto, so the retry budget must
        # outlast any plausible run of injected faults for every seed
        # hypothesis picks.
        layout.manager.retry_policy = RetryPolicy(max_attempts=10)
        layout.manager.store = FaultInjectingBlobStore(
            layout.manager.store,
            config=FaultConfig(transient_error_rate=0.15, corruption_rate=0.05),
            seed=seed,
        )
        daemon = AdaptiveDaemon(
            layout,
            AdaptiveConfig(
                window_size=16,
                advisor=AdvisorConfig(drift_threshold=0.05, drift_reset=0.0,
                                      min_improvement=0.0, cooldown_queries=0),
                bytes_budget_per_cycle=1 << 30,
            ),
        )
        for round_index in range(3):
            queries = [
                random_query(rng, table, label=f"r{round_index}q{i}")
                for i in range(2)
            ]
            for query in queries:
                assert oracle_check(layout, table, query) is None
            daemon.run_cycle()
            for query in queries:
                assert oracle_check(layout, table, query) is None
