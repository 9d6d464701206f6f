"""The declarative health-rule engine — and the acceptance scenario: a
deliberately stalled compaction drives the WAL-backlog rule to CRIT, and
``run_until_clean`` (which checkpoints the WAL) brings it back to OK.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.obs.health import (
    CRIT,
    OK,
    WARN,
    HealthMonitor,
    HealthRule,
    MetricValue,
    Ratio,
    default_rules,
)
from repro.obs.metrics import MetricsRegistry
from repro.layouts import BuildContext, IrregularLayout
from repro.testing import (
    ShadowTable,
    WriteWorkloadConfig,
    apply_random_batch,
    random_table,
    random_workload,
)
from repro.txn import DeltaCompactor, TransactionalTable


def build_txn_table(seed: int = 7, wal_enabled: bool = True):
    """A small seeded transactional layout (mirrors the txn suite's)."""
    rng = np.random.default_rng(seed)
    table = random_table(rng, n_attrs=3, n_tuples=300)
    train = random_workload(rng, table, 4)
    layout = IrregularLayout().build(
        table, train, BuildContext(file_segment_bytes=2048)
    )
    return table, layout, TransactionalTable(
        layout, table, wal_enabled=wal_enabled
    )


@pytest.fixture()
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestMetricValue:
    def test_absent_metric_reads_none(self, registry):
        assert MetricValue("nope").read(registry) is None

    def test_sum_max_min_over_series(self, registry):
        gauge = registry.gauge("g", "doc", ("shard",))
        gauge.set(3, shard="a")
        gauge.set(5, shard="b")
        assert MetricValue("g").read(registry) == 8.0
        assert MetricValue("g", agg="max").read(registry) == 5.0
        assert MetricValue("g", agg="min").read(registry) == 3.0

    def test_label_filter_matches_one_series(self, registry):
        gauge = registry.gauge("g", "doc", ("shard",))
        gauge.set(3, shard="a")
        gauge.set(5, shard="b")
        value = MetricValue("g", labels={"shard": "b"})
        assert value.read(registry) == 5.0

    def test_summary_percentile(self, registry):
        summary = registry.summary("s", "doc")
        for v in np.linspace(0.01, 1.0, 100):
            summary.observe(float(v))
        p99 = MetricValue("s", agg="p99").read(registry)
        assert p99 is not None
        assert p99 >= 0.99  # digest never under-reports


class TestRatio:
    def test_traffic_guard(self, registry):
        hits = registry.counter("hits", "doc")
        misses = registry.counter("misses", "doc")
        ratio = Ratio(
            MetricValue("hits"),
            (MetricValue("hits"), MetricValue("misses")),
            min_den=10,
        )
        hits.inc(3)
        misses.inc(1)
        assert ratio.read(registry) is None  # only 4 lookups: below min_den
        misses.inc(6)
        assert ratio.read(registry) == pytest.approx(0.3)

    def test_missing_denominator_is_none(self, registry):
        ratio = Ratio(MetricValue("a"), MetricValue("b"))
        assert ratio.read(registry) is None


class TestHealthRule:
    def test_threshold_directions(self, registry):
        registry.gauge("g", "doc").set(50)
        rule = HealthRule("r", MetricValue("g"), warn=10, crit=100)
        assert rule.evaluate(registry).status == WARN
        registry.gauge("g", "doc").set(100)
        assert rule.evaluate(registry).status == CRIT
        registry.gauge("g", "doc").set(9)
        assert rule.evaluate(registry).status == OK

    def test_lower_is_violation(self, registry):
        registry.gauge("rate", "doc").set(0.2)
        rule = HealthRule(
            "r", MetricValue("rate"), warn=0.5, crit=0.1, op="<="
        )
        assert rule.evaluate(registry).status == WARN
        registry.gauge("rate", "doc").set(0.05)
        assert rule.evaluate(registry).status == CRIT

    def test_unknown_value_is_ok(self, registry):
        rule = HealthRule("r", MetricValue("absent"), warn=1, crit=2)
        result = rule.evaluate(registry)
        assert result.status == OK and result.observed is None

    def test_inverted_thresholds_raise(self):
        with pytest.raises(ValueError):
            HealthRule("r", MetricValue("g"), warn=5, crit=1)
        with pytest.raises(ValueError):
            HealthRule("r", MetricValue("g"), warn=1, crit=5, op="<=")
        with pytest.raises(ValueError):
            HealthRule("r", MetricValue("g"), warn=1, crit=5, op="==")


class TestMonitor:
    def test_worst_of_and_exit_codes(self, registry):
        registry.gauge("a", "doc").set(5)
        registry.gauge("b", "doc").set(500)
        monitor = HealthMonitor(
            registry,
            rules=[
                HealthRule("a", MetricValue("a"), warn=10, crit=100),
                HealthRule("b", MetricValue("b"), warn=10, crit=100),
            ],
        )
        report = monitor.evaluate()
        assert report.status == CRIT
        assert report.exit_code == 2
        assert [r.name for r in report.failing()] == ["b"]
        assert "CRIT" in obs.format_health(report.as_dict())
        payload = report.as_dict()
        assert payload["status"] == CRIT
        assert len(payload["results"]) == 2

    def test_default_rules_overrides(self):
        rules = {r.name: r for r in default_rules()}
        assert "wal_backlog_bytes" in rules
        assert "admission_rejection_rate" in rules
        tightened = {
            r.name: r
            for r in default_rules(overrides={"delta_segments": (1, 2)})
        }
        assert tightened["delta_segments"].warn == 1
        assert tightened["delta_segments"].crit == 2
        # untouched rules keep their stock thresholds
        assert (
            tightened["wal_backlog_bytes"].warn
            == rules["wal_backlog_bytes"].warn
        )

    def test_empty_registry_is_ok(self, registry):
        report = HealthMonitor(registry).evaluate()
        assert report.status == OK and report.exit_code == 0


class TestStalledCompactionScenario:
    def test_wal_backlog_crit_then_ok_after_run_until_clean(self):
        """Commits without compaction grow the WAL backlog past a (tightened)
        CRIT threshold; ``run_until_clean`` folds the deltas, truncates the
        WAL at the checkpoint and republishes — health returns to OK."""
        obs.enable(trace=False, metrics=True)
        table, _layout, txn = build_txn_table(seed=23, wal_enabled=True)
        monitor = HealthMonitor(
            rules=default_rules(
                overrides={"wal_backlog_bytes": (1.0, 64.0)}
            )
        )

        shadow = ShadowTable(table)
        shadow.snapshot(txn.current_version)
        rng = np.random.default_rng(23)
        config = WriteWorkloadConfig()
        for _ in range(4):  # compaction deliberately stalled: no compactor
            apply_random_batch(txn, shadow, rng, config)
            shadow.snapshot(txn.commit())

        assert txn.wal.backlog_bytes > 64
        report = monitor.evaluate()
        assert report.status == CRIT
        failing = {r.name for r in report.failing()}
        assert "wal_backlog_bytes" in failing

        reports = DeltaCompactor(txn).run_until_clean()
        assert reports and reports[-1].wal_truncated
        assert txn.wal.backlog_bytes == 0
        # the compactor republished right after the fold: no extra commit
        # is needed for /healthz to see the checkpoint
        report = monitor.evaluate()
        assert report.status == OK
        assert report.exit_code == 0
