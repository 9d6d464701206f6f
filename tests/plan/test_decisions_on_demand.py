"""Planning proportional to what is read: a plan is its pid lists, and a
partition's verdict is made only where something consumes it.

The layout has the shape of the layer benchmark's ``irregular_warm``: 24
uniform attributes, the quickstart's three training templates, the
irregular layout with pruning off.  A point query there plans 8 selection
and 21 projection candidates and reads about 10 of them.
"""

import numpy as np
import pytest

from repro.core import Query, TableSchema, Workload
from repro.layouts import BuildContext, IrregularLayout
from repro.storage import ColumnTable, DeviceProfile
from repro.testing.oracle import run_reference_query

NAMES = [f"a{i}" for i in range(1, 25)]
WIDE = ["a2", "a3", "a4", "a5", "a6", "a7", "a9", "a10"]
TEMPLATES = (
    (WIDE, {"a1": (0, 9_999)}),
    (WIDE, {"a8": (90_000, 99_999)}),
    (["a15", "a16", "a17", "a18"], {"a20": (40_000, 44_999)}),
)


@pytest.fixture(scope="module")
def warm():
    rng = np.random.default_rng(0)
    columns = {
        name: rng.integers(0, 100_000, 6_000).astype(np.int32) for name in NAMES
    }
    table = ColumnTable.build("T", TableSchema.uniform(NAMES), columns)
    workload = Workload(table.meta, [
        Query.build(table.meta, select, where, label=f"t{index}")
        for index, (select, where) in enumerate(TEMPLATES)
    ])
    layout = IrregularLayout().build(
        table, workload,
        BuildContext(
            device_profile=DeviceProfile.from_throughput("hdd", 75.0, 0.000001),
            file_segment_bytes=2_048,
            buffer_pool_bytes=64 << 20,
        ),
    )
    query = Query.build(table.meta, ["a2", "a3"], {"a1": (50_000, 50_029)})
    return table, layout, query


def test_planning_classifies_no_candidate(warm):
    _table, layout, query = warm
    plan = layout.executor.planner.plan(query)
    assert not plan.logical.pruning
    assert len(plan.selection_pids()) == 8
    assert len(plan.projection_pids()) == 21
    assert len(plan.logical.decision_map()) == 0
    # explain() is a consumer: afterwards the plan names every candidate.
    report = plan.explain()
    candidates = set(plan.selection_pids()) | set(plan.projection_pids())
    assert set(plan.logical.decision_map()) == candidates
    assert {a.pid for a in (*report.selection, *report.projection)} == candidates


def test_execution_without_pruning_classifies_nothing(warm):
    table, layout, query = warm
    executor = layout.executor
    plans = []
    executor.planner.observer = lambda _query, plan: plans.append(plan)
    try:
        result, stats = executor.execute(query)
    finally:
        executor.planner.observer = None
    assert result.equals(run_reference_query(table, query))
    (plan,) = plans
    assert len(plan.logical.decision_map()) == 0
    # The a1 selection partitions are range-split: all but the one holding
    # the range are zone-refuted, and each is still read.
    assert plan.visits_once
    assert 0 < len(plan.zone_refuted) < len(plan.selection_pids())
    assert stats.n_partition_reads >= len(plan.selection_pids())
