"""Unit tests for execution statistics and the CPU model."""

import pytest

from repro.plan.stats import CpuModel, ExecutionStats


class TestCpuModel:
    def test_cpu_time_is_linear_in_events(self):
        model = CpuModel()
        single = model.cpu_time(cells_scanned=1000)
        double = model.cpu_time(cells_scanned=2000)
        assert double == pytest.approx(2 * single)

    def test_scaled_divides_by_cores(self):
        model = CpuModel().scaled(4)
        base = CpuModel()
        assert model.cpu_time(cells_scanned=1000) == pytest.approx(
            base.cpu_time(cells_scanned=1000) / 4
        )

    def test_scaled_clamps_to_one_core(self):
        assert CpuModel().scaled(0).cores == 1

    def test_all_event_kinds_contribute(self):
        model = CpuModel()
        t = model.cpu_time(
            cells_scanned=1,
            cells_gathered=1,
            hash_inserts=1,
            hash_updates=1,
            materialized_bytes=1,
            tuples_iterated=1,
        )
        assert t == pytest.approx(
            model.cell_scan_s
            + model.cell_gather_s
            + model.hash_insert_s
            + model.hash_update_s
            + model.materialize_byte_s
            + model.tuple_overhead_s
        )


class TestExecutionStats:
    def test_simulated_time_is_io_plus_cpu(self):
        stats = ExecutionStats(io_time_s=1.5, cpu_time_s=0.5)
        assert stats.simulated_time_s == pytest.approx(2.0)

    def test_charge_cpu_uses_counters(self):
        stats = ExecutionStats(cells_scanned=10, hash_inserts=2)
        model = CpuModel()
        stats.charge_cpu(model)
        assert stats.cpu_time_s == pytest.approx(
            10 * model.cell_scan_s + 2 * model.hash_insert_s
        )

    def test_add_accumulates_every_field(self):
        left = ExecutionStats(bytes_read=10, io_time_s=1.0, hash_inserts=3)
        right = ExecutionStats(bytes_read=5, io_time_s=0.5, hash_inserts=4)
        left.add(right)
        assert left.bytes_read == 15
        assert left.io_time_s == pytest.approx(1.5)
        assert left.hash_inserts == 7
        # the right-hand side is untouched
        assert right.bytes_read == 5
