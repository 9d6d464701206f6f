"""Sketch-based data skipping through the planner: strictly more skips than
zone maps alone, oracle-exact results (also under faults and prefetch), and
EXPLAIN surfacing the sketch-prune reasons."""

import numpy as np
import pytest

from repro.core import Query, TableSchema
from repro.engine.partition_at_a_time import PartitionAtATimeExecutor
from repro.engine.scan import ScanExecutor
from repro.layouts import BuildContext
from repro.storage import (
    BALOS_HDD,
    ColumnTable,
    MemoryBlobStore,
    PartitionManager,
    SegmentSpec,
    StorageDevice,
    TID_CATALOG,
    profile_workload,
    select_sketches,
)
from repro.testing.oracle import (
    ORACLE_LAYOUTS,
    inject_faults,
    run_differential_oracle,
    run_reference_query,
)
from repro.storage.faults import FaultConfig, FaultInjectingBlobStore

N_PARTITIONS = 4


def interleaved_table():
    """Every partition's ``a1`` spans [0, 98] but stores only even values,
    and ``a2`` tracks ``a1`` exactly — zone maps can prune neither an odd
    equality nor an off-diagonal rectangle, sketches can refute both."""
    schema = TableSchema.uniform(["a1", "a2", "a3"])
    n = 400
    a1 = (np.arange(n, dtype=np.int32) * 2) % 100
    columns = {
        "a1": a1,
        "a2": a1.copy(),
        "a3": np.arange(n, dtype=np.int32),
    }
    return ColumnTable.build("T", schema, columns)


def materialize(table, train=None):
    """Four equal row ranges; with ``train``, each partition is stored with
    the sketches a 4 KiB budget affords it for that workload."""
    manager = PartitionManager(
        table.schema, StorageDevice(BALOS_HDD), MemoryBlobStore()
    )
    n = table.n_tuples
    chunk = n // N_PARTITIONS
    specs = [
        [
            SegmentSpec(
                ("a1", "a2", "a3"),
                np.arange(i * chunk, (i + 1) * chunk, dtype=np.int64),
            )
        ]
        for i in range(N_PARTITIONS)
    ]
    sketcher = None
    if train is not None:
        profile = profile_workload(train)
        columns = {
            name: table.column(name) for name in table.schema.attribute_names
        }
        sketcher = lambda info: select_sketches(  # noqa: E731
            info, columns, profile, 0.010, 4096
        )
    manager.materialize_specs(
        specs, table, tid_storage=TID_CATALOG, sketcher=sketcher
    )
    return manager


@pytest.fixture()
def sketch_setup():
    table = interleaved_table()
    train = [
        Query.build(table.meta, ["a3"], {"a1": (50, 50)}, label="train-eq"),
        Query.build(
            table.meta, ["a3"], {"a1": (0, 30), "a2": (60, 98)},
            label="train-conj",
        ),
    ]
    zone_only = materialize(table)
    sketched = materialize(table, train)
    assert all(sketched.info(pid).sketches is not None for pid in sketched.pids())
    return table, zone_only, sketched


class TestSketchPruning:
    @pytest.mark.parametrize("engine_cls", [ScanExecutor, PartitionAtATimeExecutor])
    def test_equality_skips_strictly_more_than_zones(
        self, sketch_setup, engine_cls
    ):
        table, zone_only, sketched = sketch_setup
        # 51 is odd: inside every partition's [0, 98] zone, in no partition.
        query = Query.build(table.meta, ["a3"], {"a1": (51, 51)})
        expected = run_reference_query(table, query)
        assert expected.n_tuples == 0

        base = engine_cls(zone_only, table.meta, zone_maps=True)
        plus = engine_cls(sketched, table.meta, zone_maps=True)
        result_base, stats_base = base.execute(query)
        result_plus, stats_plus = plus.execute(query)
        assert result_base.equals(expected) and result_plus.equals(expected)
        assert stats_base.n_partitions_sketch_pruned == 0
        assert stats_base.n_partitions_skipped == 0  # zones cannot help
        # The scan engine's two phases each count a pruned pid once, so the
        # counter is >= the partition count there and == for single-phase.
        assert stats_plus.n_partitions_sketch_pruned >= N_PARTITIONS
        assert stats_plus.n_partitions_skipped > stats_base.n_partitions_skipped
        assert stats_plus.n_partition_reads < stats_base.n_partition_reads

    @pytest.mark.parametrize("engine_cls", [ScanExecutor, PartitionAtATimeExecutor])
    def test_conjunction_grid_skips_strictly_more_than_zones(
        self, sketch_setup, engine_cls
    ):
        table, zone_only, sketched = sketch_setup
        # Off-diagonal rectangle: each 1-D zone overlaps, no (a1, a2) pair
        # can (a2 == a1 everywhere).
        query = Query.build(
            table.meta, ["a3"], {"a1": (0, 30), "a2": (60, 98)}
        )
        expected = run_reference_query(table, query)
        assert expected.n_tuples == 0

        base = engine_cls(zone_only, table.meta, zone_maps=True)
        plus = engine_cls(sketched, table.meta, zone_maps=True)
        result_base, stats_base = base.execute(query)
        result_plus, stats_plus = plus.execute(query)
        assert result_base.equals(expected) and result_plus.equals(expected)
        assert stats_base.n_partitions_skipped == 0
        assert stats_plus.n_partitions_sketch_pruned >= N_PARTITIONS
        assert stats_plus.n_partition_reads < stats_base.n_partition_reads

    def test_sketches_never_prune_matching_tuples(self, sketch_setup):
        table, _zone_only, sketched = sketch_setup
        executor = ScanExecutor(sketched, table.meta, zone_maps=True)
        for lo, hi in [(50, 50), (0, 98), (20, 21), (98, 98)]:
            query = Query.build(table.meta, ["a1", "a3"], {"a1": (lo, hi)})
            expected = run_reference_query(table, query)
            result, _stats = executor.execute(query)
            assert result.equals(expected)
            if lo == hi and lo % 2 == 0:
                assert expected.n_tuples > 0  # the sweep is not vacuous

    def test_explain_reports_sketch_prune_reasons(self, sketch_setup):
        table, _zone_only, sketched = sketch_setup
        executor = ScanExecutor(sketched, table.meta, zone_maps=True)
        eq_report = executor.plan(
            Query.build(table.meta, ["a3"], {"a1": (51, 51)})
        ).explain(engine="scan")
        assert "sketch" in eq_report.render()
        conj_report = executor.plan(
            Query.build(table.meta, ["a3"], {"a1": (0, 30), "a2": (60, 98)})
        ).explain(engine="scan")
        assert "grid sketch" in conj_report.render()

    def test_sketch_pruning_exact_under_fault_injection(self, sketch_setup):
        table, _zone_only, sketched = sketch_setup
        executor = PartitionAtATimeExecutor(
            sketched, table.meta, zone_maps=True, prefetch_depth=2
        )
        sketched.store = FaultInjectingBlobStore(
            sketched.store,
            config=FaultConfig(
                transient_error_rate=0.3, latency_spike_rate=0.3
            ),
            seed=5,
        )
        for lo, hi in [(51, 51), (50, 50), (0, 98)]:
            query = Query.build(table.meta, ["a1", "a3"], {"a1": (lo, hi)})
            expected = run_reference_query(table, query)
            result, stats = executor.execute(query)
            assert result.equals(expected)
            if lo == 51:
                assert stats.n_partitions_sketch_pruned >= N_PARTITIONS


@pytest.mark.slow
class TestSketchOracleSweep:
    def test_differential_oracle_with_sketches_and_prefetch(self):
        ctx = BuildContext(
            file_segment_bytes=2048,
            schism_sample_size=100,
            prefetch_depth=2,
            sketch_budget_bytes=2048,
        )
        report = run_differential_oracle(n_cases=30, ctx=ctx, seed=3)
        assert report.ok, report.summary()

    def test_oracle_exact_under_faults_with_sketches(self, rng):
        from repro.testing.oracle import random_table, random_workload

        table = random_table(rng, n_tuples=250)
        workload = random_workload(rng, table, n_queries=4)
        ctx = BuildContext(
            file_segment_bytes=2048,
            schism_sample_size=100,
            prefetch_depth=2,
            sketch_budget_bytes=2048,
        )
        for name, make in ORACLE_LAYOUTS:
            layout = make().build(table, workload, ctx)
            inject_faults(
                layout,
                config=FaultConfig(
                    transient_error_rate=0.2, latency_spike_rate=0.2
                ),
                seed=9,
            )
            for query in workload:
                expected = run_reference_query(table, query)
                result, _ = layout.executor.execute(query)
                assert result.equals(expected), f"{name}: {query.label}"
