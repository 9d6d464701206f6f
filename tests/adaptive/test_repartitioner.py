"""Unit tests for migration proposal and execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive import IncrementalRepartitioner
from repro.core import CostModel, IOModel, Workload
from repro.errors import AdaptationError, StorageError
from repro.storage import FaultConfig, FaultInjectingBlobStore


def cell_set(segments, table):
    """Concrete (attribute, tuple) cells a list of logical segments covers."""
    cells = set()
    for segment in segments:
        mask = table.mask_for_box(segment.ranges, segment.tight)
        tids = np.nonzero(mask)[0]
        for attribute in segment.attributes:
            cells.update((attribute, int(tid)) for tid in tids)
    return cells


def cell_count(segments, table):
    """Cells with multiplicity — equals ``len(cell_set)`` iff no overlap."""
    total = 0
    for segment in segments:
        mask = table.mask_for_box(segment.ranges, segment.tight)
        total += len(segment.attributes) * int(mask.sum())
    return total


@pytest.fixture()
def repartitioner(drift_table):
    cost_model = CostModel(drift_table.meta, IOModel.from_throughput(75.0, 0.001))
    return IncrementalRepartitioner(cost_model)


def current_mapping(layout):
    return {partition.pid: partition for partition in layout.plan}


class TestPropose:
    def test_unknown_scope_pid_rejected(
        self, repartitioner, drift_layout, train_workload
    ):
        with pytest.raises(AdaptationError, match="not in the current plan"):
            repartitioner.propose(
                current_mapping(drift_layout), [999], train_workload, 100
            )

    def test_empty_scope_yields_empty_plan(
        self, repartitioner, drift_layout, train_workload
    ):
        plan = repartitioner.propose(
            current_mapping(drift_layout), [], train_workload, 100
        )
        assert plan.is_empty
        assert plan.new_partitions == ()

    def test_fresh_pids_start_at_next_pid(
        self, repartitioner, drift_layout, drift_table, shifted_queries
    ):
        current = current_mapping(drift_layout)
        window = Workload(drift_table.meta, shifted_queries * 4)
        plan = repartitioner.propose(current, list(current), window, next_pid=41)
        assert plan.new_partitions
        pids = [partition.pid for partition in plan.new_partitions]
        assert pids == list(range(41, 41 + len(pids)))
        assert plan.tuner_stats["elapsed_s"] >= 0.0

    def test_proposal_covers_exactly_the_scope_cells(
        self, repartitioner, drift_layout, drift_table, shifted_queries
    ):
        current = current_mapping(drift_layout)
        window = Workload(drift_table.meta, shifted_queries * 4)
        scope = sorted(current)[:2]
        plan = repartitioner.propose(current, scope, window, next_pid=50)
        scope_segments = [
            segment for pid in scope for segment in current[pid].segments
        ]
        new_segments = [
            segment
            for partition in plan.new_partitions
            for segment in partition.segments
        ]
        assert cell_set(new_segments, drift_table) == cell_set(
            scope_segments, drift_table
        )
        # And the new partitions never store the same cell twice.
        assert cell_count(new_segments, drift_table) == len(
            cell_set(new_segments, drift_table)
        )


class TestExecute:
    def test_empty_plan_is_a_noop(self, repartitioner, drift_layout, drift_table):
        from repro.adaptive import MigrationPlan

        version = drift_layout.manager.catalog_version
        infos = repartitioner.execute(
            MigrationPlan(scope_pids=(), new_partitions=()),
            drift_layout.manager,
        )
        assert infos == []
        assert drift_layout.manager.catalog_version == version

    def test_execute_swaps_scope_for_new_partitions(
        self, repartitioner, drift_layout, drift_table, shifted_queries
    ):
        manager = drift_layout.manager
        current = current_mapping(drift_layout)
        window = Workload(drift_table.meta, shifted_queries * 4)
        plan = repartitioner.propose(
            current, list(current), window, manager.next_pid()
        )
        infos = repartitioner.execute(plan, manager)
        assert {info.pid for info in infos} == set(
            partition.pid for partition in plan.new_partitions
        )
        assert set(manager.pids()) == {p.pid for p in plan.new_partitions}
        assert set(manager.retired_pids()) == set(plan.scope_pids)

    def test_aborted_execute_leaves_catalog_intact(
        self, repartitioner, drift_layout, drift_table, shifted_queries
    ):
        manager = drift_layout.manager
        pids_before = manager.pids()
        version_before = manager.catalog_version
        current = current_mapping(drift_layout)
        window = Workload(drift_table.meta, shifted_queries * 4)
        plan = repartitioner.propose(
            current, list(current), window, manager.next_pid()
        )
        # Every read faults: staging verification cannot succeed.
        inner = manager.store
        manager.store = FaultInjectingBlobStore(
            inner, config=FaultConfig(transient_error_rate=1.0), seed=2
        )
        with pytest.raises(StorageError):
            repartitioner.execute(plan, manager)
        manager.store = inner
        assert manager.pids() == pids_before
        assert manager.retired_pids() == ()
        assert manager.catalog_version == version_before
        # The old partitions are still readable — nothing was destroyed.
        for pid in pids_before:
            partition, _delta = manager.load(pid)
            assert partition.pid == pid
        # No staged orphan blobs survive the rollback.
        live_keys = {manager.info(pid).key for pid in pids_before}
        assert set(inner.keys()) == live_keys
