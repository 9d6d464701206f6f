"""Edge cases across modules: empty results, degenerate tables, stats
plumbing, cache/overwrite interplay, and prefix-keyed managers."""

import numpy as np
import pytest

from repro.core import Query, TableSchema, Workload
from repro.engine import PartitionAtATimeExecutor, ScanExecutor
from repro.layouts import BuildContext, ColumnLayout, IrregularLayout, RowLayout
from repro.storage import (
    BALOS_HDD,
    ColumnTable,
    IOStats,
    PartitionManager,
    SegmentSpec,
    StorageDevice,
    TID_EXPLICIT,
)


class TestIOStats:
    def test_diff(self):
        later = IOStats(n_reads=5, bytes_read=100, io_time_s=2.0, n_cache_hits=1)
        earlier = IOStats(n_reads=2, bytes_read=40, io_time_s=0.5)
        delta = later.diff(earlier)
        assert delta.n_reads == 3
        assert delta.bytes_read == 60
        assert delta.io_time_s == pytest.approx(1.5)
        assert delta.n_cache_hits == 1

    def test_copy_is_independent(self):
        original = IOStats(n_reads=1)
        copy = original.copy()
        copy.n_reads = 99
        assert original.n_reads == 1

    def test_add(self):
        total = IOStats()
        total.add(IOStats(bytes_read=10, n_writes=2))
        total.add(IOStats(bytes_read=5, bytes_written=7))
        assert total.bytes_read == 15
        assert total.n_writes == 2
        assert total.bytes_written == 7


class TestDegenerateTables:
    def test_single_tuple_table_all_layouts(self):
        schema = TableSchema.uniform(["x", "y"])
        table = ColumnTable.build(
            "t", schema, {"x": np.array([7], np.int32), "y": np.array([3], np.int32)}
        )
        query = Query.build(table.meta, ["y"], {"x": (7, 7)})
        train = Workload(table.meta, [query])
        ctx = BuildContext(file_segment_bytes=1024)
        for builder in (RowLayout(), ColumnLayout(), IrregularLayout(selection_enabled=False)):
            layout = builder.build(table, train, ctx)
            result, _stats = layout.execute(query)
            assert result.n_tuples == 1
            assert result.column("y")[0] == 3

    def test_single_attribute_table(self):
        schema = TableSchema.uniform(["only"])
        table = ColumnTable.build(
            "t", schema, {"only": np.arange(100, dtype=np.int32)}
        )
        query = Query.build(table.meta, ["only"], {"only": (10, 19)})
        train = Workload(table.meta, [query])
        layout = IrregularLayout(selection_enabled=False).build(
            table, train, BuildContext(file_segment_bytes=512)
        )
        result, _stats = layout.execute(query)
        assert np.array_equal(result.column("only"), np.arange(10, 20))

    def test_constant_column(self):
        """A column with a single distinct value cannot be split on."""
        schema = TableSchema.uniform(["c", "v"])
        table = ColumnTable.build(
            "t",
            schema,
            {
                "c": np.full(500, 42, np.int32),
                "v": np.arange(500, dtype=np.int32),
            },
        )
        query = Query.build(table.meta, ["v"], {"c": (42, 42)})
        layout = IrregularLayout(selection_enabled=False).build(
            table, Workload(table.meta, [query]), BuildContext(file_segment_bytes=1024)
        )
        result, _stats = layout.execute(query)
        assert result.n_tuples == 500


class TestManagerPrefix:
    def test_key_prefix_namespaces_blobs(self, small_table):
        device = StorageDevice(BALOS_HDD)
        manager = PartitionManager(
            small_table.schema, device, key_prefix="tables/hap/"
        )
        everyone = np.arange(small_table.n_tuples, dtype=np.int64)
        manager.materialize_specs(
            [[SegmentSpec(("a1",), everyone)]], small_table, TID_EXPLICIT
        )
        assert manager.info(0).key.startswith("tables/hap/")
        assert "tables/hap/p000000.jig" in manager.store


class TestEngineEmptiness:
    def test_scan_with_no_selected_tuples(self, small_table, small_workload, ctx):
        layout = ColumnLayout().build(small_table, small_workload, ctx)
        # Two narrow windows: their conjunction is (almost surely) empty.
        query = Query.build(
            small_table.meta, ["a2"], {"a1": (0, 50), "a4": (9_900, 9_999)}
        )
        result, stats = layout.execute(query)
        expected = int(
            ((small_table.column("a1") == 1) & (small_table.column("a4") == 2)).sum()
        )
        assert result.n_tuples == expected

    def test_jigsaw_projection_only_of_predicate_attribute(self, small_table, small_workload):
        """SELECT a1 WHERE a1 ...: everything resolves in the selection phase."""
        ctx = BuildContext(file_segment_bytes=8 * 1024)
        layout = IrregularLayout(selection_enabled=False).build(
            small_table, small_workload, ctx
        )
        query = Query.build(small_table.meta, ["a1"], {"a1": (0, 4999)})
        result, _stats = layout.execute(query)
        expected = np.sort(
            small_table.column("a1")[small_table.column("a1") <= 4999]
        )
        assert np.array_equal(np.sort(result.column("a1")), expected)


class TestWorkloadSharing:
    def test_same_manager_two_executors(self, small_table, small_workload):
        """Serial and zone-map executors share a manager without clashing."""
        ctx = BuildContext(file_segment_bytes=8 * 1024)
        layout = IrregularLayout(selection_enabled=False).build(
            small_table, small_workload, ctx
        )
        plain = PartitionAtATimeExecutor(layout.manager, small_table.meta)
        mapped = PartitionAtATimeExecutor(
            layout.manager, small_table.meta, zone_maps=True
        )
        query = small_workload[0]
        a, _s = plain.execute(query)
        b, _s = mapped.execute(query)
        assert a.equals(b)
