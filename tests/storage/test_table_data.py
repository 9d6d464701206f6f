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
