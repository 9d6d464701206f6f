"""The metric catalogue: stats objects -> metrics registry, gated; and the
catalogue as the one spelling of every family name."""

from __future__ import annotations

import re
from pathlib import Path

from repro import obs
from repro.adaptive.daemon import AdaptationStats
from repro.obs import catalog
from repro.obs.health import MetricValue, Ratio, default_rules
from repro.plan.stats import ExecutionStats
from repro.storage.buffer_pool import BufferPool
from repro.storage.faults import FaultStats


def run_request(engine: str, stats: ExecutionStats, plan=None) -> None:
    """One root request scope that states ``stats``/``plan`` and closes."""
    with obs.request_scope(engine) as scope:
        scope.complete(stats, plan)


class TestGate:
    def test_record_query_noop_when_disabled(self):
        assert not obs.metrics_enabled()
        run_request("scan", ExecutionStats(bytes_read=10))
        assert obs.get_registry().names() == ()

    def test_publishers_noop_when_disabled(self):
        obs.publish("pool", BufferPool(1024), pool="main")
        obs.publish("faults", FaultStats())
        obs.publish("adaptive", AdaptationStats(), outcome="skipped")
        assert obs.get_registry().names() == ()

    def test_none_source_is_skipped(self):
        obs.enable(trace=False, metrics=True)
        obs.publish("pool", None, pool="main")
        assert obs.get_registry().names() == ()


class TestRecordQuery:
    def test_publishes_per_engine_counters(self):
        obs.enable(trace=False, metrics=True)
        stats = ExecutionStats(
            bytes_read=100, io_time_s=0.5, n_partition_reads=2,
            cells_scanned=40, cpu_time_s=0.001,
        )
        run_request("scan", stats)
        run_request("scan", stats)
        registry = obs.get_registry()
        assert registry.get("jigsaw_queries_total").value(engine="scan") == 2
        assert (
            registry.get("jigsaw_query_bytes_read_total").value(engine="scan")
            == 200
        )
        assert (
            registry.get("jigsaw_query_cells_scanned_total").value(
                engine="scan"
            )
            == 80
        )
        assert (
            registry.get("jigsaw_query_sim_seconds").count(engine="scan") == 2
        )
        # A counter is exposed from the first request, at zero if idle; no
        # plan -> no cost-model series.
        assert registry.get("jigsaw_query_retries_total").value(engine="scan") == 0
        assert registry.get("jigsaw_cost_model_drift_ratio") is None

    def test_cost_model_drift_from_plan(self):
        obs.enable(trace=False, metrics=True)

        class FakePlan:
            estimated_bytes = 150

        run_request("scan", ExecutionStats(bytes_read=100), FakePlan())
        registry = obs.get_registry()
        assert (
            registry.get("jigsaw_cost_model_estimated_bytes").value(
                engine="scan"
            )
            == 150
        )
        assert (
            registry.get("jigsaw_cost_model_observed_bytes").value(
                engine="scan"
            )
            == 100
        )
        assert registry.get("jigsaw_cost_model_drift_ratio").value(
            engine="scan"
        ) == 1.5
        assert (
            registry.get("jigsaw_cost_model_abs_error_bytes_total").value(
                engine="scan"
            )
            == 50
        )

    def test_only_the_outermost_scope_publishes(self):
        obs.enable(trace=False, metrics=True)
        with obs.request_scope("dag") as outer:
            run_request("scan", ExecutionStats(bytes_read=10))
            run_request("scan", ExecutionStats(bytes_read=20))
            outer.complete(ExecutionStats(bytes_read=30))
        queries = obs.get_registry().get("jigsaw_queries_total")
        assert queries.series() == {("dag",): 1.0}


class TestSubsystemPublishers:
    def test_buffer_pool_gauges(self):
        obs.enable(trace=False, metrics=True)
        obs.publish("pool", BufferPool(1024), pool="p0")
        registry = obs.get_registry()
        assert registry.get("jigsaw_pool_n_hits").value(pool="p0") == 0
        assert registry.get("jigsaw_pool_current_bytes").value(pool="p0") == 0

    def test_fault_stats_gauges(self):
        obs.enable(trace=False, metrics=True)
        obs.publish(
            "faults",
            FaultStats(n_gets=9, n_transient_errors=2, latency_injected_s=0.25),
        )
        registry = obs.get_registry()
        assert registry.get("jigsaw_faults_n_gets").value() == 9
        assert registry.get("jigsaw_faults_n_transient_errors").value() == 2
        assert (
            registry.get("jigsaw_faults_latency_injected_seconds").value()
            == 0.25
        )

    def test_adaptation_gauges_and_outcomes(self):
        obs.enable(trace=False, metrics=True)
        stats = AdaptationStats(n_cycles=3, n_migrations=1, drift_score=0.7)
        obs.publish("adaptive", stats, outcome="migrated")
        obs.publish("adaptive", stats, outcome="skipped")
        registry = obs.get_registry()
        assert registry.get("jigsaw_adaptive_n_cycles").value() == 3
        outcomes = registry.get("jigsaw_adaptive_cycle_outcomes_total")
        assert outcomes.value(outcome="migrated") == 1
        assert outcomes.value(outcome="skipped") == 1

    def test_metric_objects_rebind_after_registry_clear(self):
        obs.enable(trace=False, metrics=True)
        obs.publish("faults", FaultStats(n_gets=1))
        obs.get_registry().clear()
        obs.publish("faults", FaultStats(n_gets=2))
        assert obs.get_registry().get("jigsaw_faults_n_gets").value() == 2


class TestEndToEnd:
    def test_engines_publish_during_execution(self, demo):
        table, workload, layouts = demo
        obs.enable(trace=False, metrics=True)
        for name, layout in layouts.items():
            layout.executor.execute(workload.queries[0])
        registry = obs.get_registry()
        queries = registry.get("jigsaw_queries_total")
        assert queries is not None
        # One request per layout.
        assert sum(queries.series().values()) == len(layouts)
        assert registry.get("jigsaw_query_sim_seconds") is not None


class TestCatalogueIsTheOneSpelling:
    def test_family_names_are_unique(self):
        names = catalog.family_names()
        assert len(names) == len(set(names))

    def test_default_rules_read_only_catalogue_families(self):
        declared = set(catalog.family_names())
        read = set()
        for rule in default_rules():
            parts = (rule.value,)
            if isinstance(rule.value, Ratio):
                parts = tuple(
                    p
                    for side in (rule.value.numerator, rule.value.denominator)
                    for p in (side if isinstance(side, tuple) else (side,))
                )
            assert all(isinstance(p, MetricValue) for p in parts)
            read.update(p.metric for p in parts)
        assert read and read <= declared

    def test_readme_metric_table_is_the_catalogue(self):
        readme = (Path(__file__).parents[2] / "README.md").read_text()
        assert catalog.markdown_table() in readme
        named = set(re.findall(r"jigsaw_[a-z0-9_]+", readme))
        suffixes = ("", "_sum", "_count", "_bucket")
        declared = {n + s for n in catalog.family_names() for s in suffixes}
        assert named - {"jigsaw_bench"} <= declared
