"""Tests for the limited-replication extension (paper future work)."""

import numpy as np
import pytest

from repro.core import (
    CostModel,
    IOModel,
    ReplicationAdvisor,
    ReplicationConfig,
)
from repro.bench.environments import BALOS, scaled_context
from repro.bench.runner import run_workload
from repro.errors import InvalidPartitioningError
from repro.layouts import IrregularLayout, ReplicatedIrregularLayout, RowLayout
from repro.workloads.hap import hap_workload, make_hap_table


@pytest.fixture(scope="module")
def favorable_setup():
    """Single template, predicate attribute NOT projected: the regime
    replication targets (filter columns are pure I/O overhead)."""
    table = make_hap_table(16_000, 48, seed=21)
    train, templates = hap_workload(
        table.meta, 0.05, 6, 1, 40, seed=22, predicate_projected=False
    )
    eval_wl, _t = hap_workload(
        table.meta, 0.05, 6, 1, 3, seed=23, templates=templates
    )
    ctx, _scale = scaled_context(BALOS, table.sizeof(), seed=24)
    return table, train, eval_wl, ctx


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidPartitioningError):
            ReplicationConfig(budget_fraction=1.5)
        with pytest.raises(InvalidPartitioningError):
            ReplicationConfig(local_cost_safety=0.5)


class TestAdvisor:
    def test_localizes_favorable_workload(self, favorable_setup):
        table, train, _eval_wl, ctx = favorable_setup
        layout = ReplicatedIrregularLayout().build(table, train, ctx)
        report = layout.build_info["replication"]
        assert len(report.localized_queries) > 0
        assert report.replica_bytes > 0
        assert report.replica_bytes <= report.budget_bytes

    def test_refuses_when_predicates_are_projected(self, favorable_setup):
        """HAP's paper construction (predicate among the projected attrs)
        leaves nothing to localize profitably: the predicate partitions must
        be read anyway for their projected cells."""
        table, _train, _eval_wl, ctx = favorable_setup
        train, _t = hap_workload(
            table.meta, 0.05, 6, 2, 40, seed=31, predicate_projected=True
        )
        layout = ReplicatedIrregularLayout().build(table, train, ctx)
        report = layout.build_info["replication"]
        assert report.replica_bytes < table.sizeof() * 0.05

    def test_budget_is_respected(self, favorable_setup):
        table, train, _eval_wl, ctx = favorable_setup
        tight = ReplicationConfig(budget_fraction=0.001)
        layout = ReplicatedIrregularLayout(replication=tight).build(table, train, ctx)
        report = layout.build_info["replication"]
        assert report.replica_bytes <= int(0.001 * table.sizeof())


class TestExecution:
    def test_results_match_row_store(self, favorable_setup):
        table, train, eval_wl, ctx = favorable_setup
        row = RowLayout().build(table, train, ctx)
        replicated = ReplicatedIrregularLayout().build(table, train, ctx)
        for query in eval_wl:
            expected, _s = row.execute(query)
            actual, _s = replicated.execute(query)
            assert actual.equals(expected), query.label

    def test_local_path_beats_standard(self, favorable_setup):
        table, train, eval_wl, ctx = favorable_setup
        irregular = IrregularLayout().build(table, train, ctx)
        replicated = ReplicatedIrregularLayout().build(table, train, ctx)
        base = run_workload(irregular, eval_wl)
        local = run_workload(replicated, eval_wl)
        assert local.total.bytes_read < base.total.bytes_read
        assert local.total.simulated_time_s < base.total.simulated_time_s

    def test_local_path_skips_reconstruction(self, favorable_setup):
        table, train, eval_wl, ctx = favorable_setup
        replicated = ReplicatedIrregularLayout().build(table, train, ctx)
        run = run_workload(replicated, eval_wl)
        assert run.total.hash_inserts == 0

    def test_unlocalized_query_falls_back(self, favorable_setup):
        """A query without predicates cannot be localized; the executor must
        transparently fall back to the standard engine."""
        from repro.core import Query

        table, train, _eval_wl, ctx = favorable_setup
        replicated = ReplicatedIrregularLayout().build(table, train, ctx)
        query = Query.build(table.meta, ["a001"])
        assert replicated.executor.local_plan(query) is None
        result, _stats = replicated.execute(query)
        assert result.n_tuples == table.n_tuples

    def test_replicas_survive_serialization(self, favorable_setup):
        """Replica segments roundtrip through the partition file format."""
        table, train, _eval_wl, ctx = favorable_setup
        replicated = ReplicatedIrregularLayout().build(table, train, ctx)
        report = replicated.build_info["replication"]
        assert report.replicas, "setup should have replicated something"
        pid = next(iter(report.replicas))
        partition, _io = replicated.manager.load(pid)
        replica_segments = [s for s in partition.segments if s.replica]
        assert replica_segments
        for segment in replica_segments:
            for name in segment.attributes:
                expected = table.column(name)[segment.tuple_ids]
                assert np.array_equal(segment.columns[name], expected)

    def test_primary_indexes_exclude_replicas(self, favorable_setup):
        table, train, _eval_wl, ctx = favorable_setup
        replicated = ReplicatedIrregularLayout().build(table, train, ctx)
        report = replicated.build_info["replication"]
        pid = next(iter(report.replicas))
        index = replicated.manager.catalog_index()
        for attribute in report.replicas[pid]:
            assert pid not in index.attribute_pids.get(attribute, ())
            assert pid in index.replica_pids[attribute]

    def test_cells_stored_once_excluding_replicas(self, favorable_setup):
        table, train, _eval_wl, ctx = favorable_setup
        replicated = ReplicatedIrregularLayout().build(table, train, ctx)
        cells = 0
        for pid in replicated.manager.pids():
            info = replicated.manager.info(pid)
            cells += sum(
                len(attrs) * len(tids)
                for attrs, tids, is_replica in zip(
                    info.segment_attrs, info.segment_tids, info.segment_replicas
                )
                if not is_replica
            )
        assert cells == table.n_tuples * len(table.schema)
