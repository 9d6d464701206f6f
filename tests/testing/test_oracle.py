"""The cross-engine differential oracle, including its acceptance bar:
200+ seeded random cases across every engine x layout combination."""

import numpy as np
import pytest

from repro.plan.result import ResultSet
from repro.errors import PartitionUnreadableError
from repro.layouts import BuildContext
from repro.storage import FaultConfig, RetryPolicy
from repro.testing import (
    inject_faults,
    oracle_check,
    pruning_check,
    pruning_executors,
    random_query,
    random_table,
    random_workload,
    run_differential_oracle,
    run_reference_query,
)
from repro.testing.oracle import ORACLE_LAYOUTS


class TestReference:
    def test_reference_matches_manual_evaluation(self):
        rng = np.random.default_rng(5)
        table = random_table(rng, n_attrs=3, n_tuples=200)
        query = random_query(rng, table)
        result = run_reference_query(table, query)
        mask = np.ones(table.n_tuples, dtype=bool)
        for name, interval in query.where.items():
            column = table.column(name)
            mask &= (column >= interval.lo) & (column <= interval.hi)
        expected = np.nonzero(mask)[0]
        assert np.array_equal(result.tuple_ids, expected)
        for name in query.select:
            assert np.array_equal(
                result.column(name), table.column(name)[expected]
            )

    def test_generators_are_seed_deterministic(self):
        t1 = random_table(np.random.default_rng(3))
        t2 = random_table(np.random.default_rng(3))
        assert t1.schema.attribute_names == t2.schema.attribute_names
        for name in t1.schema.attribute_names:
            assert np.array_equal(t1.column(name), t2.column(name))


class TestOracleCheck:
    def test_detects_a_lying_engine(self):
        rng = np.random.default_rng(9)
        table = random_table(rng, n_attrs=3, n_tuples=150)
        workload = random_workload(rng, table, n_queries=1)
        ctx = BuildContext(file_segment_bytes=2048)
        name, make = ORACLE_LAYOUTS[0]
        layout = make().build(table, workload, ctx)
        query = workload[0]
        assert oracle_check(layout, table, query) is None

        empty = ResultSet(np.empty(0, np.int64), {n: np.empty(0) for n in query.select})

        class Liar:
            def execute(self, _query):
                return empty, None

        layout.executor = Liar()
        mismatch = oracle_check(layout, table, query)
        assert mismatch is not None and "expected" in mismatch


class TestDifferentialOracle:
    def test_acceptance_200_cases_all_engines_all_layouts(self):
        """>= 200 seeded random (table, workload, query) cases must agree
        with the reference on every engine x layout combination."""
        report = run_differential_oracle(n_cases=200, seed=0)
        assert report.n_cases >= 200
        # 4 layouts + 1 threaded check per case.
        assert report.n_checks >= report.n_cases * 5
        assert report.ok, report.failures[:5]

    def test_different_seed_also_passes(self):
        report = run_differential_oracle(n_cases=20, seed=20260807)
        assert report.ok, report.failures[:5]

    def test_summary_mentions_counts(self):
        report = run_differential_oracle(n_cases=5, seed=1, threaded=False)
        assert "5 cases" in report.summary()
        assert "OK" in report.summary()


class TestPruningSweep:
    def test_pruning_invariants_hold_under_every_layout(self):
        """Pruning on vs. off: identical results, never more partitions."""
        rng = np.random.default_rng(11)
        table = random_table(rng, n_attrs=4, n_tuples=300)
        workload = random_workload(rng, table, n_queries=3)
        ctx = BuildContext(file_segment_bytes=2048)
        checked = 0
        for name, make in ORACLE_LAYOUTS:
            layout = make().build(table, workload, ctx)
            assert pruning_executors(layout) is not None, name
            for query in workload:
                failure = pruning_check(layout, table, query)
                assert failure is None, f"{name}: {failure}"
                checked += 1
        assert checked == len(ORACLE_LAYOUTS) * len(list(workload))

    def test_twins_share_storage_and_differ_only_in_pruning(self):
        rng = np.random.default_rng(12)
        table = random_table(rng, n_attrs=3, n_tuples=200)
        workload = random_workload(rng, table, n_queries=2)
        layout = dict(ORACLE_LAYOUTS)["irregular"]().build(
            table, workload, BuildContext(file_segment_bytes=2048)
        )
        off, on = pruning_executors(layout)
        assert off.manager is layout.manager
        assert on.manager is layout.manager
        assert off.planner.pruning is False
        assert on.planner.pruning is True

    def test_oracle_sweep_adds_one_check_per_layout_and_query(self):
        with_sweep = run_differential_oracle(
            n_cases=4, seed=2, threaded=False, pruning_sweep=True
        )
        without = run_differential_oracle(
            n_cases=4, seed=2, threaded=False, pruning_sweep=False
        )
        assert with_sweep.failures == []
        assert without.failures == []
        assert (
            with_sweep.n_checks
            == without.n_checks + with_sweep.n_cases * len(ORACLE_LAYOUTS)
        )


class TestOracleUnderFaults:
    def test_correct_or_abort_under_transient_storms(self):
        """End to end self-healing: with faults injected under every layout,
        each query either returns the exact reference result (possibly via
        retries/degraded reads) or raises PartitionUnreadableError.  Silence
        and wrong answers are both failures."""
        rng = np.random.default_rng(123)
        table = random_table(rng, n_attrs=4, n_tuples=300)
        workload = random_workload(rng, table, n_queries=3)
        ctx = BuildContext(file_segment_bytes=2048)
        outcomes = set()
        for name, make in ORACLE_LAYOUTS:
            layout = make().build(table, workload, ctx)
            layout.manager.retry_policy = RetryPolicy(max_attempts=4)
            store = inject_faults(
                layout,
                FaultConfig(transient_error_rate=0.3, latency_spike_rate=0.2),
                seed=7,
            )
            for query in workload:
                expected = run_reference_query(table, query)
                try:
                    result, stats = layout.execute(query)
                except PartitionUnreadableError:
                    outcomes.add("aborted")
                    continue
                assert result.equals(expected), f"{name}: wrong result under faults"
                outcomes.add("recovered")
                if stats.n_retries:
                    outcomes.add("retried")
            assert store.stats.n_transient_errors > 0
        # The storm must have actually exercised the retry path somewhere.
        assert "recovered" in outcomes
        assert "retried" in outcomes
