"""explain(): every executor's plan is inspectable, estimates meet actuals."""

from repro.core import Query
from repro.engine import PartitionAtATimeExecutor, ScanExecutor
from repro.engine.parallel import ThreadedPartitionEngine


class TestReportContents:
    def test_render_names_the_decisions(self, zoned_manager, zoned_table, q_one_pred):
        executor = ScanExecutor(zoned_manager, zoned_table.meta, zone_maps=True)
        report = executor.explain(q_one_pred)
        text = report.render()
        assert report.engine == "scan"
        assert "pruning on" in text
        assert "REQUIRED" in text
        assert "PRUNED" in text
        assert "PROJECTION-ONLY" in text
        assert "disjoint" in text  # the pruning justification
        assert "0 <= a1 <= 20" in text  # normalized predicate
        assert "selection pushdown columns: a1" in text
        assert "estimate: <= 2 partition reads" in text
        assert report.n_pruned == 1

    def test_pruning_off_report(self, zoned_manager, zoned_table, q_one_pred):
        executor = ScanExecutor(zoned_manager, zoned_table.meta, zone_maps=False)
        report = executor.explain(q_one_pred)
        assert "pruning off" in report.render()
        assert report.n_pruned == 0

    def test_actuals_folded_in_after_execution(
        self, zoned_manager, zoned_table, q_one_pred
    ):
        executor = ScanExecutor(zoned_manager, zoned_table.meta, zone_maps=True)
        report = executor.explain(q_one_pred)
        assert report.actual is None
        assert "actual:" not in report.render()
        _result, stats = executor.execute(q_one_pred)
        report.record_actuals(stats)
        text = report.render()
        assert "actual:" in text
        assert f"{stats.n_partition_reads} partition reads" in text
        # The estimate is an upper bound for a healthy run.
        assert stats.n_partition_reads <= report.estimated_partition_reads
        assert stats.n_partitions_pruned == report.n_pruned


class TestEveryEngineExplains:
    def test_partition_at_a_time(self, zoned_manager, zoned_table, q_one_pred):
        executor = PartitionAtATimeExecutor(zoned_manager, zoned_table.meta)
        report = executor.explain(q_one_pred)
        assert report.engine == "partition-at-a-time"
        assert report.policy_name == "partition"
        # This family stashes co-located projected cells during selection.
        assert report.selection_columns == ("a1", "a3")

    def test_threaded_engines(self, zoned_manager, zoned_table, q_one_pred):
        for strategy, engine in (("locking", "jigsaw-l"), ("shared", "jigsaw-s")):
            executor = ThreadedPartitionEngine(
                zoned_manager, zoned_table.meta, strategy=strategy, n_threads=2
            )
            report = executor.explain(q_one_pred)
            assert report.engine == engine
            assert report.policy_name == "partition"

    def test_no_where_explain(self, zoned_manager, zoned_table):
        query = Query.build(zoned_table.meta, ["a3"], {})
        executor = ScanExecutor(zoned_manager, zoned_table.meta)
        text = executor.explain(query).render()
        assert "every tuple qualifies" in text
        assert "selection accesses: 0" in text
