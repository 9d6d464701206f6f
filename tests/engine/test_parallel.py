"""Tests for the parallel engines: threaded correctness + simulator shapes."""

import numpy as np
import pytest

from repro.core import Query, Workload
from repro.engine import PartitionAtATimeExecutor
from repro.engine.parallel import (
    ParallelSimParams,
    ThreadedPartitionEngine,
    simulate_lock_based,
    simulate_shared_scan,
)
from repro.layouts import BuildContext, IrregularLayout
from repro.storage import BALOS_HDD, EBS_IO1, ColumnTable


@pytest.fixture()
def tiny_layout():
    """A small irregular layout the threaded engines can afford to chew
    through tuple by tuple."""
    rng = np.random.default_rng(5)
    from repro.core import TableSchema

    schema = TableSchema.uniform([f"a{i}" for i in range(1, 7)])
    columns = {
        name: rng.integers(0, 1000, 800).astype(np.int32)
        for name in schema.attribute_names
    }
    table = ColumnTable.build("T", schema, columns)
    q1 = Query.build(table.meta, ["a2", "a3"], {"a1": (0, 399)}, label="Q1")
    q2 = Query.build(table.meta, ["a5"], {"a4": (500, 999)}, label="Q2")
    train = Workload(table.meta, [q1, q2])
    ctx = BuildContext(file_segment_bytes=2 * 1024)
    layout = IrregularLayout(selection_enabled=False).build(table, train, ctx)
    return table, layout, [q1, q2]


class TestThreadedEngines:
    @pytest.mark.parametrize("strategy", ["locking", "shared"])
    @pytest.mark.parametrize("n_threads", [1, 2, 4])
    def test_matches_serial_engine(self, tiny_layout, strategy, n_threads):
        table, layout, queries = tiny_layout
        serial = PartitionAtATimeExecutor(layout.manager, table.meta)
        threaded = ThreadedPartitionEngine(
            layout.manager, table.meta, n_threads=n_threads, strategy=strategy
        )
        for query in queries:
            expected, _stats = serial.execute(query)
            actual, _ = threaded.execute(query)
            assert actual.equals(expected), (strategy, n_threads, query.label)

    def test_no_predicate_query(self, tiny_layout):
        table, layout, _queries = tiny_layout
        query = Query.build(table.meta, ["a6"])
        serial = PartitionAtATimeExecutor(layout.manager, table.meta)
        threaded = ThreadedPartitionEngine(layout.manager, table.meta, n_threads=3)
        expected, _stats = serial.execute(query)
        assert threaded.execute(query)[0].equals(expected)

    def test_unknown_strategy_rejected(self, tiny_layout):
        table, layout, _queries = tiny_layout
        with pytest.raises(ValueError):
            ThreadedPartitionEngine(layout.manager, table.meta, strategy="magic")


class TestSimulator:
    SIZES = [8 << 20] * 64
    TUPLES = [100_000] * 64

    def test_lock_based_beats_shared_at_few_threads(self):
        lock = simulate_lock_based(self.SIZES, self.TUPLES, 8, EBS_IO1)
        shared = simulate_shared_scan(self.SIZES, self.TUPLES, 8, EBS_IO1)
        assert lock.total_s < shared.total_s

    def test_shared_beats_lock_at_many_threads(self):
        lock = simulate_lock_based(self.SIZES, self.TUPLES, 36, EBS_IO1)
        shared = simulate_shared_scan(self.SIZES, self.TUPLES, 36, EBS_IO1)
        assert shared.total_s < lock.total_s

    def test_lock_compute_grows_with_threads(self):
        few = simulate_lock_based(self.SIZES, self.TUPLES, 8, EBS_IO1)
        many = simulate_lock_based(self.SIZES, self.TUPLES, 36, EBS_IO1)
        assert many.compute_s >= few.compute_s

    def test_shared_compute_shrinks_with_threads(self):
        few = simulate_shared_scan(self.SIZES, self.TUPLES, 8, EBS_IO1)
        many = simulate_shared_scan(self.SIZES, self.TUPLES, 36, EBS_IO1)
        assert many.compute_s < few.compute_s

    def test_shared_io_grows_with_threads(self):
        few = simulate_shared_scan(self.SIZES, self.TUPLES, 8, EBS_IO1)
        many = simulate_shared_scan(self.SIZES, self.TUPLES, 36, EBS_IO1)
        assert many.io_s > few.io_s

    def test_single_thread_has_no_waiting(self):
        lock = simulate_lock_based(self.SIZES, self.TUPLES, 1, BALOS_HDD)
        assert lock.waiting_s == pytest.approx(0.0)

    def test_breakdown_total(self):
        breakdown = simulate_shared_scan(self.SIZES, self.TUPLES, 4, BALOS_HDD)
        assert breakdown.total_s == pytest.approx(
            breakdown.io_s + breakdown.compute_s + breakdown.waiting_s
        )

    def test_custom_params(self):
        params = ParallelSimParams(process_tuple_s=1e-6)
        slow = simulate_lock_based(self.SIZES, self.TUPLES, 4, BALOS_HDD, params)
        fast = simulate_lock_based(self.SIZES, self.TUPLES, 4, BALOS_HDD)
        assert slow.compute_s > fast.compute_s
