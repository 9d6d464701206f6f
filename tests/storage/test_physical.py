"""Unit tests for physical materialization (Figure 3's logical -> physical)."""

import numpy as np
import pytest

from repro.core import Partition, Segment
from repro.errors import InvalidPartitioningError
from repro.storage import (
    PhysicalSegment,
    SegmentSpec,
    TID_CATALOG,
    TID_EXPLICIT,
    TID_IMPLICIT,
    build_physical_partition,
    physical_from_logical,
)


class TestPhysicalSegment:
    def test_validates_column_lengths(self, small_table):
        with pytest.raises(InvalidPartitioningError):
            PhysicalSegment(
                attributes=("a1",),
                tuple_ids=np.array([0, 1], np.int64),
                columns={"a1": np.zeros(3, np.int32)},
            )

    def test_implicit_requires_contiguous_run(self):
        with pytest.raises(InvalidPartitioningError):
            PhysicalSegment(
                attributes=("a1",),
                tuple_ids=np.array([0, 2], np.int64),
                columns={"a1": np.zeros(2, np.int32)},
                tid_storage=TID_IMPLICIT,
            )

    def test_disk_bytes_counts_tids_only_when_explicit(self, small_table):
        tids = np.arange(10, dtype=np.int64)
        columns = {"a1": small_table.column("a1")[:10]}
        explicit = PhysicalSegment(("a1",), tids, columns, TID_EXPLICIT)
        implicit = PhysicalSegment(("a1",), tids, columns, TID_IMPLICIT)
        schema = small_table.schema
        assert explicit.disk_bytes(schema) == 10 * (4 + 8)
        assert implicit.disk_bytes(schema) == 10 * 4


class TestBuildFromSpecs:
    def test_same_schema_specs_coalesce(self, small_table):
        """Figure 3: tuples with the same attributes share a physical segment."""
        specs = [
            SegmentSpec(("a1", "a2"), np.array([0, 1], np.int64)),
            SegmentSpec(("a2", "a1"), np.array([5, 6], np.int64)),
            SegmentSpec(("a3",), np.array([2], np.int64)),
        ]
        partition = build_physical_partition(0, specs, small_table)
        assert len(partition.segments) == 2
        merged = partition.segments[0]
        assert merged.attributes == ("a1", "a2")
        assert np.array_equal(merged.tuple_ids, [0, 1, 5, 6])

    def test_attribute_order_follows_schema(self, small_table):
        specs = [SegmentSpec(("a3", "a1"), np.array([0], np.int64))]
        partition = build_physical_partition(0, specs, small_table)
        assert partition.segments[0].attributes == ("a1", "a3")

    def test_values_match_source_table(self, small_table):
        tids = np.array([3, 7, 11], np.int64)
        partition = build_physical_partition(
            0, [SegmentSpec(("a2",), tids)], small_table
        )
        assert np.array_equal(
            partition.segments[0].columns["a2"], small_table.column("a2")[tids]
        )

    def test_implicit_demoted_to_catalog_for_permuted_tids(self, small_table):
        specs = [SegmentSpec(("a1",), np.array([5, 2, 9], np.int64))]
        partition = build_physical_partition(0, specs, small_table, TID_IMPLICIT)
        # unique() sorts, but [2, 5, 9] is not contiguous -> catalog
        assert partition.segments[0].tid_storage == TID_CATALOG

    def test_zone_map(self, small_table):
        tids = np.arange(100, dtype=np.int64)
        partition = build_physical_partition(
            0, [SegmentSpec(("a1",), tids)], small_table
        )
        lo, hi = partition.zone_map()["a1"]
        column = small_table.column("a1")[:100]
        assert lo == column.min() and hi == column.max()

    def test_empty_partition_rejected(self, small_table):
        with pytest.raises(InvalidPartitioningError):
            build_physical_partition(0, [], small_table)


def resolve(partition, table):
    """``partition``'s boxes resolved over every row of ``table``."""
    return physical_from_logical(
        partition,
        np.arange(table.n_tuples, dtype=np.int64),
        table.columns(table.schema.attribute_names),
        table.schema,
    )


class TestPhysicalFromLogical:
    def test_box_membership(self, small_table):
        """Tuples are assigned by the tight range box, matching the data."""
        from repro.core.ranges import Interval

        box = small_table.meta.full_range().replace("a1", Interval(0, 4_999))
        segment = Segment(("a2",), 1.0, box, tight=frozenset({"a1"}))
        partition = Partition(0, (segment,))
        physical = resolve(partition, small_table)
        expected = np.nonzero(small_table.column("a1") <= 4_999)[0]
        assert np.array_equal(physical.segments[0].tuple_ids, expected)

    def test_sibling_boxes_partition_the_table(self, small_table):
        from repro.core import horizontal_split

        root = Segment(
            ("a2",), float(small_table.n_tuples), small_table.meta.full_range()
        )
        units = small_table.schema.units()
        lower, upper = horizontal_split(root, "a1", 4_999, units)
        p_low = resolve(Partition(0, (lower,)), small_table)
        p_high = resolve(Partition(1, (upper,)), small_table)
        combined = np.concatenate(
            [p_low.segments[0].tuple_ids, p_high.segments[0].tuple_ids]
        )
        assert len(np.unique(combined)) == small_table.n_tuples

    def test_empty_match_produces_placeholder(self, small_table):
        from repro.core.ranges import Interval

        # a1 values are < 10_000; an impossible box matches nothing.
        box = small_table.meta.full_range().replace("a1", Interval(50_000, 60_000))
        segment = Segment(("a2",), 1.0, box, tight=frozenset({"a1"}))
        physical = resolve(Partition(0, (segment,)), small_table)
        assert physical.n_tuples == 0
        assert len(physical.segments) == 1
