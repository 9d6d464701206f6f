"""Unit tests for the benchmark runner plumbing."""

import pytest

from repro.bench.runner import LAYOUT_BUILDERS, QueryRun, build_layouts, run_workload
from repro.plan.stats import ExecutionStats
from repro.layouts import BuildContext


class TestRegistry:
    def test_all_seven_strategies_registered(self):
        assert set(LAYOUT_BUILDERS) == {
            "Row", "Row-H", "Row-V", "Column", "Column-H", "Hierarchical", "Irregular",
        }


class TestQueryRun:
    def test_record_accumulates(self):
        run = QueryRun(layout="X")
        run.record(ExecutionStats(bytes_read=100, io_time_s=1.0))
        run.record(ExecutionStats(bytes_read=300, io_time_s=2.0))
        assert run.n_queries == 2
        assert run.total.bytes_read == 400
        assert run.mean_bytes == pytest.approx(200.0)
        assert run.mean_time_s == pytest.approx(1.5)
        assert len(run.per_query) == 2

    def test_empty_run_means(self):
        run = QueryRun(layout="X")
        assert run.mean_bytes == 0
        assert run.mean_time_s == 0


class TestBuildAndRun:
    def test_build_subset(self, small_table, small_workload, ctx):
        layouts = build_layouts(
            small_table, small_workload, ctx, names=("Row", "Column")
        )
        assert set(layouts) == {"Row", "Column"}

    def test_run_workload_cold_by_default(self, small_table, small_workload):
        ctx = BuildContext(file_segment_bytes=16 * 1024, cache_bytes=10**7)
        layouts = build_layouts(small_table, small_workload, ctx, names=("Column",))
        layout = layouts["Column"]
        cold = run_workload(layout, small_workload, drop_caches=True)
        assert cold.total.n_cache_hits == 0
        warm = run_workload(layout, small_workload, drop_caches=False)
        assert warm.total.n_cache_hits > 0
