"""Unit tests for the in-memory column table."""

import numpy as np
import pytest

from repro.core import TableSchema
from repro.core.ranges import RangeMap
from repro.errors import SchemaError
from repro.storage import ColumnTable


class TestBuild:
    def test_derives_ranges_from_data(self):
        schema = TableSchema.uniform(["a", "b"])
        table = ColumnTable.build(
            "t",
            schema,
            {"a": np.array([3, 1, 2], np.int32), "b": np.array([9, 9, 9], np.int32)},
        )
        assert table.meta.interval("a").lo == 1 and table.meta.interval("a").hi == 3
        assert table.meta.interval("b").lo == 9 and table.meta.interval("b").hi == 9

    def test_rejects_missing_column(self):
        schema = TableSchema.uniform(["a", "b"])
        with pytest.raises(SchemaError):
            ColumnTable.build("t", schema, {"a": np.zeros(3, np.int32)})

    def test_rejects_mismatched_lengths(self):
        schema = TableSchema.uniform(["a", "b"])
        with pytest.raises(SchemaError):
            ColumnTable.build(
                "t", schema, {"a": np.zeros(3, np.int32), "b": np.zeros(4, np.int32)}
            )

    def test_rejects_two_dimensional_column(self):
        schema = TableSchema.uniform(["a"])
        from repro.core import TableMeta

        meta = TableMeta.from_bounds("t", schema, 2, {"a": (0, 1)})
        with pytest.raises(SchemaError):
            ColumnTable(meta, {"a": np.zeros((2, 2), np.int32)})

    def test_empty_table(self):
        schema = TableSchema.uniform(["a"])
        table = ColumnTable.build("t", schema, {"a": np.zeros(0, np.int32)})
        assert table.n_tuples == 0


class TestAccess:
    def test_gather(self, small_table):
        tids = np.array([0, 10, 20])
        gathered = small_table.gather(["a1", "a2"], tids)
        assert np.array_equal(gathered["a1"], small_table.column("a1")[tids])

    def test_unknown_column_raises(self, small_table):
        with pytest.raises(SchemaError):
            small_table.column("zzz")

    def test_mask_for_box_only_uses_tight_attributes(self, small_table):
        box = RangeMap.from_bounds(
            {name: (0, 9_999) for name in small_table.schema.attribute_names}
        ).replace("a1", __import__("repro.core.ranges", fromlist=["Interval"]).Interval(0, 4_999))
        mask = small_table.mask_for_box(box, tight=["a1"])
        expected = small_table.column("a1") <= 4_999
        assert np.array_equal(mask, expected)

    def test_mask_for_box_conjunction(self, small_table):
        from repro.core.ranges import Interval

        box = RangeMap.from_bounds(
            {name: (0, 9_999) for name in small_table.schema.attribute_names}
        )
        box = box.replace("a1", Interval(0, 4_999)).replace("a2", Interval(5_000, 9_999))
        mask = small_table.mask_for_box(box, tight=["a1", "a2"])
        expected = (small_table.column("a1") <= 4_999) & (small_table.column("a2") >= 5_000)
        assert np.array_equal(mask, expected)

    def test_sizeof_uses_schema_widths(self, small_table):
        assert small_table.sizeof() == 5_000 * 6 * 4


class TestAppendRows:
    """Appends write into a spare tail: O(batch), never visible to a column
    handed out before them, and bounded in spare capacity."""

    @staticmethod
    def batches(table, rng, sizes):
        for n in sizes:
            yield {
                name: rng.integers(-500, 12_000, n).astype(np.int32)
                for name in table.schema.attribute_names
            }

    def test_appends_equal_the_concatenate_form(self, small_table, rng):
        names = small_table.schema.attribute_names
        expected = {name: small_table.column(name).copy() for name in names}
        for batch in self.batches(small_table, rng, [1, 7, 300, 2, 900, 40]):
            first = small_table.append_rows(batch)
            assert first == len(expected[names[0]])
            expected = {
                name: np.concatenate([expected[name], batch[name]])
                for name in names
            }
            assert small_table.n_tuples == len(expected[names[0]])
            for name in names:
                column = small_table.column(name)
                assert column.dtype == np.int32
                assert np.array_equal(column, expected[name])
                bounds = small_table.meta.ranges[name]
                assert (bounds.lo, bounds.hi) == (
                    float(expected[name].min()), float(expected[name].max())
                )

    def test_a_column_handed_out_before_appends_never_changes(
        self, small_table, rng
    ):
        before = small_table.column("a1")
        pristine = before.copy()
        for batch in self.batches(small_table, rng, [3, 5, 1_000, 4]):
            small_table.append_rows(batch)
            middle = small_table.column("a1")
            frozen = middle.copy()
        assert len(before) == len(pristine)
        assert np.array_equal(before, pristine)
        assert np.array_equal(middle, frozen)

    def test_zero_row_append_is_a_no_op(self, small_table):
        meta = small_table.meta
        column = small_table.column("a1")
        first = small_table.append_rows({
            name: np.empty(0, np.int32)
            for name in small_table.schema.attribute_names
        })
        assert first == small_table.n_tuples == 5_000
        assert small_table.meta is meta
        assert small_table.column("a1") is column

    def test_spare_capacity_stays_within_an_eighth_plus_the_batch(
        self, small_table, rng
    ):
        sizes = [1] * 50 + [700, 3, 2_500, 1, 1, 10_000, 5]
        for batch, n in zip(self.batches(small_table, rng, sizes), sizes):
            small_table.append_rows(batch)
            for buffer in small_table._buffers.values():
                spare = len(buffer) - small_table.n_tuples
                assert 0 <= spare <= small_table.n_tuples // 8 + n

    def test_append_to_an_empty_table(self, rng):
        schema = TableSchema.uniform(["a"])
        table = ColumnTable.build("t", schema, {"a": np.zeros(0, np.int32)})
        table.append_rows({"a": np.array([5, -2, 9], np.int64)})
        assert table.column("a").dtype == np.int32
        assert table.column("a").tolist() == [5, -2, 9]
        bounds = table.meta.ranges["a"]
        assert (bounds.lo, bounds.hi) == (-2.0, 9.0)
