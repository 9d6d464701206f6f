"""Smoke + shape tests for every experiment driver, at miniature scale.

Each test runs the driver with a tiny config and asserts the *structure* of
the result plus the key qualitative relationships the paper reports.
"""

import pytest

from repro.bench.experiments import (
    EXPERIMENTS,
    fig05_parallelization,
    fig06_selectivity,
    fig07_projectivity,
    fig08_templates,
    fig09_tpch,
    fig10_inmemory,
    fig11_dbsize,
    fig12_partitioning,
)


class TestRegistry:
    def test_all_experiments_registered(self):
        assert sorted(EXPERIMENTS) == [
            "ablations", "adapt",
            "fig05", "fig06", "fig07", "fig08",
            "fig09", "fig09-join", "fig10", "fig11", "fig12",
        ]

    def test_every_module_has_run(self):
        for module in EXPERIMENTS.values():
            assert callable(module.run)


class TestFig05:
    def test_shapes(self):
        cfg = fig05_parallelization.Fig05Config(
            n_tuples=20_000, n_attrs=32, n_train=16, thread_counts=(8, 36)
        )
        result = fig05_parallelization.run(cfg)
        rows = {(r["threads"], r["strategy"]): r for r in result.rows}
        # Paper: "Looking at the computation cycles, Irregular-L is faster
        # than Irregular-S when there are 8 threads"...
        assert (
            rows[(8, "Irregular-L")]["compute_s"] < rows[(8, "Irregular-S")]["compute_s"]
        )
        # ... and with many threads Irregular-S wins overall.
        assert rows[(36, "Irregular-S")]["total_s"] < rows[(36, "Irregular-L")]["total_s"]
        assert rows[(36, "Irregular-S")]["io_s"] > rows[(8, "Irregular-S")]["io_s"]
        assert rows[(36, "Irregular-L")]["compute_s"] >= rows[(8, "Irregular-L")]["compute_s"]
        assert rows[(36, "Irregular-S")]["compute_s"] <= rows[(8, "Irregular-S")]["compute_s"]


@pytest.fixture(scope="module")
def tiny_sweep_kwargs():
    return dict(
        n_tuples=6_000, n_attrs=32, n_train=24, n_eval=2, schism_sample=200,
        min_segment_bytes=4 * 1024,
    )


class TestFig06:
    def test_structure_and_selectivity_shape(self, tiny_sweep_kwargs):
        cfg = fig06_selectivity.Fig06Config(
            selectivities=(0.05, 1.0),
            projectivity=6,
            layouts=("Column", "Irregular"),
            **tiny_sweep_kwargs,
        )
        result = fig06_selectivity.run(cfg)
        assert len(result.rows) == 2 * 2  # 2 selectivities x 2 layouts
        low = {r["layout"]: r for r in result.filtered(selectivity=0.05)}
        # At low selectivity Irregular reads less than Column.
        assert low["Irregular"]["mb_read"] < low["Column"]["mb_read"]
        full = {r["layout"]: r for r in result.filtered(selectivity=1.0)}
        # At 100% Jigsaw's selection phase picks the columnar layout.
        assert full["Irregular"]["jigsaw_pick"] == "Column"


class TestFig07:
    def test_projectivity_shape(self, tiny_sweep_kwargs):
        kwargs = dict(tiny_sweep_kwargs, n_tuples=20_000)
        cfg = fig07_projectivity.Fig07Config(
            projectivities=(1, 8),
            layouts=("Column", "Irregular"),
            **kwargs,
        )
        result = fig07_projectivity.run(cfg)
        narrow = {r["layout"]: r for r in result.filtered(projectivity=1)}
        wide = {r["layout"]: r for r in result.filtered(projectivity=8)}
        # Column wins at projectivity 1 (the tuner falls back to it);
        # Irregular reads less once a quarter of the table is projected.
        assert narrow["Column"]["time_s"] <= narrow["Irregular"]["time_s"]
        assert wide["Irregular"]["mb_read"] < wide["Column"]["mb_read"]


class TestFig08:
    def test_template_count_shape(self, tiny_sweep_kwargs):
        cfg = fig08_templates.Fig08Config(
            template_counts=(2, 6),
            projectivity=6,
            layouts=("Column", "Irregular"),
            **tiny_sweep_kwargs,
        )
        result = fig08_templates.run(cfg)
        few = {r["layout"]: r for r in result.filtered(n_templates=2)}
        many = {r["layout"]: r for r in result.filtered(n_templates=6)}
        # Column's volume is template-independent.
        assert many["Column"]["mb_read"] == pytest.approx(
            few["Column"]["mb_read"], rel=0.05
        )
        # More templates fragment the table and erode Irregular's advantage:
        # its relative I/O never improves, and at miniature scale the tuner
        # eventually falls back to Column outright.
        few_ratio = few["Irregular"]["mb_read"] / few["Column"]["mb_read"]
        many_ratio = many["Irregular"]["mb_read"] / many["Column"]["mb_read"]
        assert many_ratio >= few_ratio * 0.9 or many["Irregular"]["jigsaw_pick"] == "Column"


class TestFig09:
    def test_tpch_shape(self):
        cfg = fig09_tpch.Fig09Config(
            scale_factor=0.002, n_train=40, n_eval=5, schism_sample=200
        )
        result = fig09_tpch.run(cfg)
        by_layout = {
            r["layout"]: r for r in result.rows if not r["layout"].startswith("bytes[")
        }
        assert set(by_layout) == {
            "Row", "Row-H", "Row-V", "Column", "Column-H", "Hierarchical", "Irregular",
        }
        # Nothing reads less than the strictly necessary volume.
        necessary = result.parameters["necessary_mb"]
        for name, row in by_layout.items():
            assert row["mb_read"] >= necessary * 0.99, name
        # Irregular beats the row-order baselines and carries tuple-ID overhead.
        assert by_layout["Irregular"]["mb_read"] < by_layout["Row"]["mb_read"]
        assert by_layout["Irregular"]["tid_overhead_mb"] > 0
        # Per-template byte rows exist for all five templates.
        template_rows = [r for r in result.rows if r["layout"].startswith("bytes[")]
        assert len(template_rows) == 5


class TestFig10:
    def test_inmemory_shape(self):
        cfg = fig10_inmemory.Fig10Config(
            n_tuples=30_000, n_attrs=8, n_summed=6, selectivities=(0.01, 1.0)
        )
        result = fig10_inmemory.run(cfg)
        full = {r["engine"]: r for r in result.filtered(selectivity=1.0)}
        assert full["MonetDB"]["time_s"] > full["Jigsaw-Mem"]["time_s"]
        assert full["Jigsaw-Disk"]["time_s"] > full["Jigsaw-Mem"]["time_s"]
        low = {r["engine"]: r for r in result.filtered(selectivity=0.01)}
        assert low["Jigsaw-Disk"]["time_s"] > low["Jigsaw-Mem"]["time_s"]
        # MonetDB's materialization grows with selectivity.
        assert (
            full["MonetDB"]["materialized_mb"] > low["MonetDB"]["materialized_mb"]
        )


class TestFig11:
    def test_warm_data_crossover(self):
        cfg = fig11_dbsize.Fig11Config(
            cardinalities=(1_000, 32_000),
            reference_tuples=4_000,
            n_attrs=32,
            n_train=16,
            n_eval=2,
        )
        result = fig11_dbsize.run(cfg)
        small = {r["layout"]: r for r in result.filtered(n_tuples=1_000)}
        big = {r["layout"]: r for r in result.filtered(n_tuples=32_000)}
        # Cached small table: Column wins. Oversized table: Irregular wins.
        assert small["Column"]["time_s"] < small["Irregular"]["time_s"]
        assert big["Irregular"]["time_s"] < big["Column"]["time_s"]
        assert small["Column"]["cache_hits"] > 0


class TestFig12:
    CFG = dict(
        cardinalities=(2_000, 8_000),
        query_counts=(10, 40),
        fixed_cardinality=2_000,
        fixed_queries=10,
        n_attrs=32,
    )

    def test_partitioning_time_shape(self):
        result = fig12_partitioning.run(fig12_partitioning.Fig12Config(**self.CFG))
        card = result.filtered(part="a:cardinality")
        queries = result.filtered(part="b:queries")
        assert [row["x"] for row in card] == [2_000, 8_000]
        assert [row["x"] for row in queries] == [10, 40]
        for row in (*card, *queries):
            assert min(row["jigsaw_s"], row["schism_s"], row["peloton_s"]) >= 0

    def test_partitioning_work_ordering(self):
        """Figure 12's claims, asserted on the partitioners' own work
        counters: the same inputs ``run`` times, but nothing here depends on
        the wall clock (millisecond timings flip under a loaded scheduler)."""
        from repro.bench.environments import BALOS, scaled_context
        from repro.bench.reporting import ExperimentResult
        from repro.workloads.hap import hap_workload, make_hap_table

        cfg = fig12_partitioning.Fig12Config(**self.CFG)

        def work(n_tuples, n_queries, workload_seed):
            table = make_hap_table(n_tuples, cfg.n_attrs, seed=cfg.seed)
            workload, _templates = hap_workload(
                table.meta, cfg.selectivity, cfg.projectivity,
                cfg.n_templates, n_queries, seed=workload_seed,
            )
            ctx, _scale = scaled_context(BALOS, table.sizeof(), seed=cfg.seed)
            jigsaw, schism, peloton = fig12_partitioning.time_all(
                table, workload, ctx, n_tuples // cfg.schism_sample_divisor,
                ExperimentResult(experiment="fig12", title="work"), "work", 0,
            )
            return (
                # candidate partitionings, each costed against every query
                jigsaw.stats.n_candidates_costed * n_queries,
                schism.stats.affinity_flops,
                # one pass over the attributes per distinct template
                peloton.stats.n_templates * cfg.n_attrs,
            )

        small, big = (work(n, 10, cfg.seed + 1) for n in cfg.cardinalities)
        # Peloton is orders of magnitude cheaper than Jigsaw.
        for jigsaw, _schism, peloton in (small, big):
            assert peloton * 10 < jigsaw
        # Schism grows superlinearly with cardinality (4x tuples).
        assert big[1] > small[1] * 4
        # Jigsaw grows superlinearly with query count (4x queries).
        few, many = (work(2_000, q, cfg.seed + 2) for q in cfg.query_counts)
        assert many[0] > few[0] * 4


class TestAdapt:
    def test_drift_scenario_shape(self):
        from repro.bench.experiments import adaptive

        cfg = adaptive.AdaptiveBenchConfig(
            n_tuples=4_000, n_attrs=8, n_queries=8, n_warmup=24,
            window_size=32, file_segment_kb=8,
        )
        result = adaptive.run(cfg)
        assert result.parameters["migrated"]
        adapted = {r["layout"]: r for r in result.filtered(phase="adapted")}
        shifted = {r["layout"]: r for r in result.filtered(phase="shifted")}
        # The stale static layout's cost is unchanged by the shift-side
        # measurements; the adaptive copy's simulated I/O drops strictly
        # below it after the migration.
        assert adapted["static"]["io_s"] == shifted["static"]["io_s"]
        assert adapted["adaptive"]["io_s"] < adapted["static"]["io_s"]
