"""The hit list: under the visit-once verdict a hit-only selection keeps its
hit tids, and their sorted concatenation is the VALID set — no table-sized
status pass.  The list is dropped, and the status pass comes back, at a
flush (a degraded substitute may reach a tuple again), at a full scan, and
once the kept hits pass 1/16 of the table; each way gives the status pass's
result.
"""

from unittest import mock

import numpy as np
import pytest

from repro.core import Query, TableSchema, Workload
from repro.engine import PartitionAtATimeExecutor, ScanExecutor
from repro.layouts import BuildContext, IrregularLayout
from repro.plan.operators import STATUS_VALID, ProjectFillOp, SelectOp
from repro.plan.predicates import Conjunction
from repro.storage import TID_EXPLICIT, ColumnTable, PhysicalSegment
from repro.storage.catalog import CatalogIndex
from repro.storage.physical import PhysicalPartition
from repro.testing.oracle import run_reference_query

N = 1_600
NAMES = ("a1", "a2", "a3")


@pytest.fixture(scope="module")
def table() -> ColumnTable:
    rng = np.random.default_rng(17)
    columns = {name: rng.integers(0, 1_000, N).astype(np.int32) for name in NAMES}
    return ColumnTable.build("T", TableSchema.uniform(list(NAMES)), columns)


def partitions(table):
    """``a1`` in three primary homes, visited out of tid order."""
    order = np.random.default_rng(3).permutation(N)
    homes = (np.sort(order[:500]), np.sort(order[500:1100]), np.sort(order[1100:]))
    return [
        PhysicalPartition(pid=pid, segments=[PhysicalSegment(
            attributes=("a1", "a2"), tuple_ids=own,
            columns=table.gather(("a1", "a2"), own), tid_storage=TID_EXPLICIT,
        )])
        for pid, own in enumerate(homes)
    ]


def select(table, hi, flush_after=None):
    query = Query.build(table.meta, ["a2"], {"a1": (0, hi)})
    op = SelectOp(Conjunction.from_query(query), ("a2",), N, hit_only=True)
    for index, partition in enumerate(partitions(table)):
        op.select(partition)
        if index == flush_after:
            op.flush()
    return op, ProjectFillOp(("a2",), op, table.schema)


def assert_status_pass(table, op, fill, hi):
    valid = np.flatnonzero(op.status == STATUS_VALID)
    assert fill.valid.dtype == np.intp
    assert np.array_equal(fill.valid, valid)
    assert np.array_equal(valid, np.flatnonzero(table.column("a1") <= hi))


def test_kept_hits_are_the_valid_set(table):
    op, fill = select(table, 40)
    assert op.hits is not None and 0 < len(fill.valid) <= N // 16
    assert_status_pass(table, op, fill, 40)


def test_a_mid_selection_flush_drops_the_hits(table):
    op, fill = select(table, 40, flush_after=1)
    assert op.hits is None and not op.hit_only
    assert_status_pass(table, op, fill, 40)


def test_a_result_above_one_sixteenth_drops_the_hits(table):
    op, fill = select(table, 300)
    assert op.hits is None and len(fill.valid) > N // 16
    assert_status_pass(table, op, fill, 300)


def test_a_full_scan_drops_the_hits(table):
    op = SelectOp(Conjunction([]), ("a2",), N, hit_only=True)
    op.select_all()
    assert op.hits is None
    assert len(ProjectFillOp(("a2",), op, table.schema).valid) == N


@pytest.mark.parametrize("engine", [PartitionAtATimeExecutor, ScanExecutor])
@pytest.mark.parametrize("hi", [20, 400], ids=["kept", "above-the-bound"])
def test_executions_equal_the_status_pass(table, engine, hi):
    """End to end, on each side of the bound: the oracle's rows, and the
    full form's (the verdict withheld)."""
    train = Workload(table.meta, [Query.build(table.meta, ["a2", "a3"], {"a1": (0, 99)})])
    layout = IrregularLayout(selection_enabled=False).build(
        table, train, BuildContext(file_segment_bytes=1024, schism_sample_size=100)
    )
    executor = engine(layout.manager, table.meta)
    query = Query.build(table.meta, ["a2", "a3"], {"a1": (0, hi)})
    assert executor.plan(query).visits_once
    result, _stats = executor.execute(query)
    assert result.equals(run_reference_query(table, query))
    with mock.patch.object(CatalogIndex, "visits_once", lambda self, attributes: False):
        assert not executor.plan(query).visits_once
        full, _stats = executor.execute(query)
    assert result.equals(full) and result.tuple_ids.dtype == full.tuple_ids.dtype
