"""Multi-table plans in the serving tier: per-table verdict caching (one
plain :class:`PartitionCache` per catalog binding) and a join served
through :class:`QueryScheduler`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.layouts import BuildContext, IrregularLayout
from repro.obs import (
    FlightRecorder,
    install_flight_recorder,
    uninstall_flight_recorder,
)
from repro.plan.dag import DagExecutor
from repro.serve import PartitionCache, QueryScheduler
from repro.sql import parse_relational_query
from repro.storage import PhysicalPartition
from repro.testing.join_oracle import (
    build_join_catalog,
    join_oracle_check,
    random_join_query,
    random_join_tables,
    run_reference_join,
)

CTX = BuildContext(file_segment_bytes=2048, schism_sample_size=100)


@pytest.fixture()
def setup():
    rng = np.random.default_rng(21)
    fact, dim, fwl, dwl = random_join_tables(rng, co_partitioned=True)
    catalog = build_join_catalog(
        lambda: IrregularLayout(zone_maps=True, selection_enabled=False),
        fact, dim, fwl, dwl, CTX,
    )
    # Every DAG leaf plans through its binding's QueryPlanner, whose
    # ``partition_cache`` attribute is the serving tier's hook.
    caches = {}
    for name in catalog.tables():
        caches[name] = PartitionCache(catalog[name].manager)
        catalog[name].executor.planner.partition_cache = caches[name]
    query = random_join_query(rng, fact, dim, label="cached-join")
    return catalog, caches, {"fact": fact, "dim": dim}, query


class TestCatalogPartitionCache:
    def test_replay_hits_per_table(self, setup):
        catalog, caches, tables, query = setup
        executor = DagExecutor(catalog)
        assert join_oracle_check(executor, tables, query) is None
        misses = {name: cache.stats.n_misses for name, cache in caches.items()}
        for cache in caches.values():
            assert cache.stats.n_misses >= 1 and cache.stats.n_hits == 0
        # The same DAG again: every leaf's verdicts replay from its cache.
        assert join_oracle_check(executor, tables, query) is None
        for name, cache in caches.items():
            assert cache.stats.n_hits >= 1
            assert cache.stats.n_misses == misses[name]

    def test_swap_invalidates_only_that_table(self, setup):
        catalog, caches, tables, query = setup
        executor = DagExecutor(catalog)
        assert join_oracle_check(executor, tables, query) is None
        fact_len = len(caches["fact"])
        dim_len = len(caches["dim"])
        assert fact_len >= 1 and dim_len >= 1

        manager = catalog["fact"].manager
        pid = manager.pids()[0]
        partition, _ = manager.load(pid)
        manager.swap_partitions(
            [PhysicalPartition(manager.next_pid(), partition.segments)],
            remove=[pid],
        )

        # fact's entries died with its catalog version; dim's survive.
        assert len(caches["fact"]) == 0
        assert len(caches["dim"]) == dim_len
        assert caches["fact"].stats.n_invalidated >= fact_len
        assert caches["dim"].stats.n_invalidated == 0
        # Still exact after the swap, via a fresh fact classification.
        assert join_oracle_check(executor, tables, query) is None

    def test_clear_drops_everything(self, setup):
        catalog, caches, tables, query = setup
        executor = DagExecutor(catalog)
        assert join_oracle_check(executor, tables, query) is None
        for cache in caches.values():
            assert len(cache) >= 1
            cache.clear()
            assert len(cache) == 0


class TestSchedulerServesJoins:
    """A ``DagExecutor`` is an engine like any other: same ``execute``
    contract, so the scheduler serves joins with no special casing."""

    SQL = (
        "SELECT dim.d_a, SUM(fact.f_a), COUNT(*) "
        "FROM fact JOIN dim ON fact.f_key = dim.d_key "
        "WHERE fact.f_a BETWEEN 10 AND 300 GROUP BY dim.d_a"
    )

    @pytest.mark.parametrize("recorder_on", [False, True])
    def test_join_group_by_is_oracle_exact(self, setup, recorder_on):
        catalog, _caches, tables, _ = setup
        query = parse_relational_query(catalog.metas(), self.SQL)
        expected = run_reference_join(tables, query)
        assert expected.n_rows > 0
        recorder = None
        if recorder_on:
            recorder = install_flight_recorder(FlightRecorder())
        try:
            engines = {"dag": DagExecutor(catalog)}
            with QueryScheduler(engines, workers=2) as scheduler:
                tickets = [scheduler.submit("dag", query) for _ in range(3)]
                outcomes = [ticket.wait(timeout=30.0) for ticket in tickets]
        finally:
            uninstall_flight_recorder()
        for result, stats in outcomes:
            assert result.equals(expected)
            assert stats.n_result_tuples == expected.n_rows
        if recorder is not None:
            # Exactly one record per request: the DAG is its one leaf and
            # the DAG's table scans are that leaf's leaves.
            served = recorder.records()
            assert len(served) == len(tickets)
            for record in served:
                assert record.outcome == "ok" and record.priority == "normal"
                assert record.n_result_tuples == expected.n_rows
                (dag,) = record.leaves
                assert dag["engine"] == "dag" and len(dag["leaves"]) >= 2
