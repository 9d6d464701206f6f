"""Unit tests for schemas and table metadata."""

import pytest

from repro.core import AttributeSpec, TableMeta, TableSchema
from repro.errors import SchemaError


class TestAttributeSpec:
    def test_defaults(self):
        spec = AttributeSpec("a")
        assert spec.byte_width == 4 and spec.np_dtype == "int32" and spec.integer

    def test_rejects_empty_name_and_bad_width(self):
        with pytest.raises(SchemaError):
            AttributeSpec("")
        with pytest.raises(SchemaError):
            AttributeSpec("a", byte_width=0)

    def test_rejects_width_smaller_than_dtype(self):
        with pytest.raises(SchemaError):
            AttributeSpec("a", byte_width=2, np_dtype="int64")

    def test_padded_width_is_allowed(self):
        spec = AttributeSpec("comment", byte_width=117, np_dtype="int32")
        assert spec.byte_width == 117

    def test_unit_reflects_integrality(self):
        assert AttributeSpec("a").unit == 1.0
        assert AttributeSpec("x", 8, "float64", integer=False).unit == 0.0


class TestTableSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema([AttributeSpec("a"), AttributeSpec("a")])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema([])

    def test_positions_follow_declaration_order(self):
        schema = TableSchema.uniform(["x", "y", "z"])
        assert [schema.position(n) for n in ("x", "y", "z")] == [0, 1, 2]

    def test_row_width_full_and_subset(self):
        schema = TableSchema(
            [AttributeSpec("a", 4), AttributeSpec("b", 8, "int64"), AttributeSpec("c", 117, "int32")]
        )
        assert schema.row_width() == 129
        assert schema.row_width(["a", "c"]) == 121

    def test_unknown_attribute_raises(self):
        schema = TableSchema.uniform(["a"])
        with pytest.raises(SchemaError):
            schema["nope"]
        with pytest.raises(SchemaError):
            schema.position("nope")
        with pytest.raises(SchemaError):
            schema.validate_attributes(["a", "nope"])

    def test_units_map(self):
        schema = TableSchema(
            [AttributeSpec("i", 4), AttributeSpec("f", 8, "float64", integer=False)]
        )
        assert schema.units() == {"i": 1.0, "f": 0.0}

    def test_names_and_hash_are_computed_once(self):
        schema = TableSchema.uniform(["x", "y", "z"])
        assert schema.attribute_names == ("x", "y", "z")
        assert schema.attribute_names is schema.attribute_names
        twin = TableSchema.uniform(["x", "y", "z"])
        assert schema == twin and hash(schema) == hash(twin)
        assert hash(schema) != hash(TableSchema.uniform(["x", "y"]))


class TestTableMeta:
    def test_requires_range_for_every_attribute(self):
        schema = TableSchema.uniform(["a", "b"])
        with pytest.raises(SchemaError):
            TableMeta.from_bounds("t", schema, 10, {"a": (0, 1)})

    def test_sizeof_uses_logical_widths(self):
        schema = TableSchema(
            [AttributeSpec("a", 4), AttributeSpec("c", 117, "int32")]
        )
        meta = TableMeta.from_bounds("t", schema, 100, {"a": (0, 1), "c": (0, 1)})
        assert meta.sizeof() == 100 * 121

    def test_negative_tuple_count_rejected(self):
        schema = TableSchema.uniform(["a"])
        with pytest.raises(SchemaError):
            TableMeta.from_bounds("t", schema, -1, {"a": (0, 1)})
