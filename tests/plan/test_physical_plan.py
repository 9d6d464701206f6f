"""Physical-plan layer: access order, estimates, no pinning, replica-local."""

import pytest

from repro.core import Query
from repro.core.cost import estimate_access_io
from repro.engine import PartitionAtATimeExecutor
from repro.plan import POLICY_PARTITION, POLICY_SCAN, PROJECTION_ONLY, QueryPlanner
from repro.storage import BufferPool


class TestAccessList:
    def test_accesses_ordered_by_pid(self, zoned_manager, zoned_table, q_two_pred):
        planner = QueryPlanner(zoned_manager, zoned_table.meta)
        plan = planner.plan(q_two_pred)
        assert plan.selection_pids() == (0, 1)
        assert plan.projection_pids() == (2,)

    def test_no_where_plans_projection_only(self, zoned_manager, zoned_table):
        query = Query.build(zoned_table.meta, ["a3"], {})
        plan = QueryPlanner(zoned_manager, zoned_table.meta).plan(query)
        assert plan.selection_pids() == ()
        assert plan.projection_pids() == (2,)

    def test_pushdown_columns_attached_to_accesses(
        self, zoned_manager, zoned_table, q_one_pred
    ):
        planner = QueryPlanner(
            zoned_manager, zoned_table.meta, policy=POLICY_SCAN
        )
        plan = planner.plan(q_one_pred)
        assert all(a.columns == frozenset({"a1"}) for a in plan.selection)
        assert all(a.columns == frozenset({"a3"}) for a in plan.projection)

    def test_decision_for_covers_off_list_pids(
        self, zoned_manager, zoned_table, q_one_pred
    ):
        # Substitute partitions enlisted at runtime are not on the access
        # lists; the plan must still classify them.
        plan = QueryPlanner(zoned_manager, zoned_table.meta).plan(q_one_pred)
        assert plan.decision_for(2).decision == PROJECTION_ONLY


class TestEstimates:
    def test_healthy_execution_matches_the_bound(
        self, zoned_manager, zoned_table, q_one_pred
    ):
        planner = QueryPlanner(
            zoned_manager, zoned_table.meta, policy=POLICY_PARTITION
        )
        plan = planner.plan(q_one_pred)
        # No pruning: both predicate partitions plus the projection-only one.
        assert plan.estimated_partition_reads == 3
        expected_bytes = sum(zoned_manager.info(pid).n_bytes for pid in (0, 1, 2))
        assert plan.estimated_bytes == expected_bytes
        assert plan.estimated_io_time_s == pytest.approx(
            estimate_access_io(
                zoned_manager.device.profile.io_model,
                (zoned_manager.info(pid).n_bytes for pid in (0, 1, 2)),
            )
        )

    def test_pruned_accesses_drop_out_of_the_estimate(
        self, zoned_manager, zoned_table, q_one_pred
    ):
        planner = QueryPlanner(
            zoned_manager, zoned_table.meta, policy=POLICY_SCAN, pruning=True
        )
        plan = planner.plan(q_one_pred)
        # p1 is pruned; p0 (selection) and p2 (projection) remain.
        assert plan.estimated_partition_reads == 2
        assert plan.estimated_bytes == (
            zoned_manager.info(0).n_bytes + zoned_manager.info(2).n_bytes
        )

    def test_projection_reads_not_double_counted(
        self, zoned_manager, zoned_table
    ):
        # Projection of a predicate attribute: p0/p1 appear on both lists
        # but the bound counts each partition once.
        query = Query.build(zoned_table.meta, ["a2"], {"a1": (0, 99)})
        plan = QueryPlanner(zoned_manager, zoned_table.meta).plan(query)
        assert plan.selection_pids() == (0, 1)
        assert plan.projection_pids() == (0, 1)
        assert plan.estimated_partition_reads == 2


class TestPinHints:
    def test_default_plan_pins_nothing(self, zoned_manager, zoned_table):
        # Plan-driven pool pinning is gone: a plan carries no pin hints and
        # running it leaves no pool entry pinned.
        pool = zoned_manager.buffer_pool = BufferPool(1 << 20)
        query = Query.build(zoned_table.meta, ["a2"], {"a1": (0, 99)})
        engine = PartitionAtATimeExecutor(zoned_manager, zoned_table.meta)
        assert not hasattr(engine.plan(query), "pin_hints")
        engine.execute(query)
        assert len(pool._entries) > 0
        assert all(entry.pins == 0 for entry in pool._entries.values())


class TestReplicaLocal:
    def test_non_covering_layout_is_not_localizable(
        self, zoned_manager, zoned_table, q_one_pred
    ):
        planner = QueryPlanner(zoned_manager, zoned_table.meta)
        with zoned_manager.pin_snapshot() as view:
            assert planner.plan_local(q_one_pred, view) is None
            assert planner.plan_replica_local(q_one_pred, view) is None

    def test_covering_layout_plans_locally(
        self, covering_manager, zoned_table, q_one_pred
    ):
        planner = QueryPlanner(
            covering_manager, zoned_table.meta, replica_fallback=True
        )
        with covering_manager.pin_snapshot() as view:
            assert planner.plan_local(q_one_pred, view) == (0,)
            plan = planner.plan_replica_local(q_one_pred, view)
        assert plan is not None
        assert plan.selection_pids() == (0,)
        assert plan.projection_pids() == ()
        # Local evaluation reads predicate and projected cells in one pass,
        # under the (locally sound) scan pruning policy.
        assert plan.logical.policy == POLICY_SCAN
        assert plan.logical.pruning is True
        assert plan.selection[0].columns == frozenset({"a1", "a3"})
        assert plan.policy.replica_fallback is True

    def test_no_where_is_not_localizable(self, covering_manager, zoned_table):
        query = Query.build(zoned_table.meta, ["a3"], {})
        planner = QueryPlanner(covering_manager, zoned_table.meta)
        with covering_manager.pin_snapshot() as view:
            assert planner.plan_local(query, view) is None
