"""Physical-plan layer: access order, estimates, no pinning."""

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
        # A plan carries no pin hints and the pool has no pin API: eviction
        # only drops the pool's reference, so nothing needs a pin.
        pool = zoned_manager.buffer_pool = BufferPool(1 << 20)
        query = Query.build(zoned_table.meta, ["a2"], {"a1": (0, 99)})
        engine = PartitionAtATimeExecutor(zoned_manager, zoned_table.meta)
        assert not hasattr(engine.plan(query), "pin_hints")
        assert not any(hasattr(pool, name) for name in ("pin", "unpin", "pinned"))
        engine.execute(query)
        assert len(pool) > 0
