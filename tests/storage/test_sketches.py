"""Sketch soundness (no false refutations), serialization round-trips, the
format-v2 trailer, and cost-based selection."""

import numpy as np
import pytest

from repro.storage import (
    BALOS_HDD,
    BloomSketch,
    DictSketch,
    GridSketch,
    MemoryBlobStore,
    PartitionManager,
    SegmentSpec,
    SketchSet,
    StorageDevice,
    TID_CATALOG,
    deserialize_partition,
    profile_workload,
    select_sketches,
)
from repro.storage.format import append_trailer, read_trailer


class TestDictSketch:
    def test_refutes_only_empty_ranges(self):
        sketch = DictSketch("a1", np.array([2.0, 5.0, 9.0]))
        assert sketch.disjoint(3, 4)  # gap between stored values
        assert sketch.disjoint(10, 99)  # beyond the maximum
        assert sketch.disjoint(-5, 1)  # below the minimum
        assert not sketch.disjoint(5, 5)  # exact stored value
        assert not sketch.disjoint(1, 3)  # range covering a stored value
        assert not sketch.disjoint(0, 100)  # range covering everything

    def test_never_refutes_a_stored_value(self, rng):
        values = np.unique(rng.integers(0, 1000, 200)).astype(np.float64)
        sketch = DictSketch("x", values)
        for value in values:
            assert not sketch.disjoint(value, value)
            assert not sketch.disjoint(value - 0.5, value + 0.5)

    def test_round_trip(self):
        sketch = DictSketch("a1", np.array([1.0, 4.0, 7.5]))
        restored = DictSketch.from_bytes("a1", sketch.to_bytes())
        assert np.array_equal(restored.values, sketch.values)
        assert restored.disjoint(2, 3) and not restored.disjoint(7.5, 7.5)


class TestBloomSketch:
    def test_no_false_negatives(self, rng):
        distinct = np.unique(rng.integers(0, 10**6, 500)).astype(np.float64)
        sketch = BloomSketch.build("x", distinct)
        assert sketch is not None
        for value in distinct:
            assert sketch.disjoint(value, value) is None  # maybe-present

    def test_refutes_most_absent_values(self, rng):
        distinct = np.arange(0, 1000, 2).astype(np.float64)  # evens only
        sketch = BloomSketch.build("x", distinct)
        refuted = sum(bool(sketch.disjoint(v, v)) for v in range(1, 1000, 2))
        assert refuted > 400  # ~10 bits/value: false-positive rate is small

    def test_equality_only_and_integral_only(self):
        sketch = BloomSketch.build("x", np.array([1.0, 2.0, 3.0]))
        assert sketch.disjoint(10, 20) is None  # range probe: cannot judge
        assert sketch.disjoint(10.5, 10.5) is None  # non-integral probe
        assert BloomSketch.build("x", np.array([1.5, 2.0])) is None

    def test_round_trip(self):
        sketch = BloomSketch.build("x", np.arange(100).astype(np.float64))
        restored = BloomSketch.from_bytes("x", sketch.to_bytes())
        assert restored.n_bits == sketch.n_bits
        assert np.array_equal(restored.bits, sketch.bits)


class TestGridSketch:
    def test_no_false_refutation_on_random_rectangles(self, rng):
        a = rng.integers(0, 100, 400).astype(np.float64)
        b = (a * 3 + rng.integers(0, 10, 400)).astype(np.float64)  # correlated
        grid = GridSketch.build(("a", "b"), a, b)
        for _ in range(300):
            a_lo, a_hi = sorted(rng.uniform(-10, 110, 2))
            b_lo, b_hi = sorted(rng.uniform(-10, 330, 2))
            inside = (a >= a_lo) & (a <= a_hi) & (b >= b_lo) & (b <= b_hi)
            if inside.any():
                assert not grid.disjoint_rect((a_lo, a_hi), (b_lo, b_hi))

    def test_refutes_anticorrelated_rectangle(self):
        # Occupancy lives only on the diagonal; the off-diagonal corner
        # rectangle overlaps both 1-D ranges but no joint cell.
        a = np.arange(100, dtype=np.float64)
        grid = GridSketch.build(("a", "b"), a, a.copy())
        assert grid.disjoint_rect((0, 10), (80, 99))
        assert not grid.disjoint_rect((0, 10), (0, 10))

    def test_rectangle_outside_bounds_is_disjoint(self):
        grid = GridSketch.build(
            ("a", "b"),
            np.array([0.0, 10.0]),
            np.array([0.0, 10.0]),
        )
        assert grid.disjoint_rect((20, 30), (0, 10))

    def test_round_trip(self, rng):
        a = rng.uniform(0, 50, 64)
        b = rng.uniform(-5, 5, 64)
        grid = GridSketch.build(("a", "b"), a, b)
        restored = GridSketch.from_bytes(("a", "b"), grid.to_bytes())
        assert restored.bounds == pytest.approx(grid.bounds)
        assert np.array_equal(restored.occupancy, grid.occupancy)


class TestSketchSet:
    def test_round_trip_mixed_kinds(self, rng):
        sketch_set = SketchSet(
            by_attr={
                "a1": DictSketch("a1", np.array([1.0, 3.0])),
                "a2": BloomSketch.build("a2", np.arange(200).astype(np.float64)),
            },
            grids=[
                GridSketch.build(
                    ("a1", "a2"),
                    rng.uniform(0, 10, 50),
                    rng.uniform(0, 10, 50),
                )
            ],
        )
        restored = SketchSet.from_bytes(sketch_set.to_bytes())
        assert set(restored.by_attr) == {"a1", "a2"}
        assert restored.by_attr["a1"].kind == "dict"
        assert restored.by_attr["a2"].kind == "bloom"
        assert len(restored.grids) == 1
        assert restored.grids[0].attributes == ("a1", "a2")
        assert restored.size_bytes() == sketch_set.size_bytes()
        assert restored.refuting_sketch("a1", 2, 2) == "dict"
        assert restored.refuting_sketch("a1", 3, 3) is None

    def test_refuting_grid_requires_both_attributes(self):
        grid = GridSketch.build(
            ("a", "b"), np.arange(10.0), np.arange(10.0)
        )
        sketch_set = SketchSet(grids=[grid])
        assert sketch_set.refuting_grid({"a": (0, 2), "b": (7, 9)}) is grid
        assert sketch_set.refuting_grid({"a": (0, 2)}) is None
        assert sketch_set.refuting_grid({"a": (0, 2), "c": (7, 9)}) is None


class TestTrailer:
    def test_append_read_strip_round_trip(self):
        data = b"\x00" * 64  # stand-in for a serialized partition body
        payload = b"sketch-bytes"
        with_trailer = append_trailer(data, payload)
        assert read_trailer(with_trailer) == payload
        # The body is untouched: the trailer only ever rides behind it.
        assert with_trailer.startswith(data)
        assert with_trailer[len(data):len(data) + len(payload)] == payload

    def test_corrupt_trailer_reads_as_absent(self):
        data = append_trailer(b"\x01" * 128, b"payload")
        corrupted = bytearray(data)
        corrupted[len(b"\x01" * 128) + 2] ^= 0xFF  # flip a payload byte
        assert read_trailer(bytes(corrupted)) is None
        assert read_trailer(b"\x01" * 128) is None  # no trailer at all
        assert read_trailer(b"") is None


class TestManagerSketchPersistence:
    """Sketches are part of a partition at its one put: chosen from the
    just-built catalog entry, stored in the file's trailer."""

    def make_manager(self, table, sketches=None):
        """Two row halves; ``sketches`` maps pid -> the set it is stored with."""
        manager = PartitionManager(
            table.schema, StorageDevice(BALOS_HDD), MemoryBlobStore()
        )
        n = table.n_tuples
        manager.materialize_specs(
            [
                [SegmentSpec(("a1", "a2"), np.arange(n // 2, dtype=np.int64))],
                [SegmentSpec(("a1", "a2"), np.arange(n // 2, n, dtype=np.int64))],
            ],
            table,
            tid_storage=TID_CATALOG,
            sketcher=(lambda info: sketches.get(info.pid)) if sketches else None,
        )
        return manager

    def test_attach_persist_and_reload(self, small_table):
        sketches = SketchSet(by_attr={"a1": DictSketch("a1", np.array([1.0, 2.0]))})
        bare = self.make_manager(small_table)
        manager = self.make_manager(small_table, {0: sketches})
        assert manager.info(0).sketches is sketches
        # Accounting invariant: the trailer never inflates the charged size.
        assert manager.info(0).n_bytes == bare.info(0).n_bytes
        # One put per partition, trailer included, and one commit per build.
        assert manager.catalog_version == bare.catalog_version == 1

        # What a rebuilt catalog would recover from the blob alone.
        payload = read_trailer(manager.store.get(manager.info(0).key))
        restored = SketchSet.from_bytes(payload)
        assert restored.to_bytes() == sketches.to_bytes()
        # The sibling partition never got a trailer.
        assert manager.info(1).sketches is None
        assert read_trailer(manager.store.get(manager.info(1).key)) is None

    def test_trailer_invisible_to_partition_reads(self, small_table):
        bare = self.make_manager(small_table)
        manager = self.make_manager(
            small_table,
            {0: SketchSet(by_attr={"a2": DictSketch("a2", np.array([5.0]))})},
        )
        partition, _delta = manager.load(0)
        segment = partition.segments[0]
        tids = segment.tuple_ids
        assert np.array_equal(segment.columns["a1"], small_table.column("a1")[tids])
        data = manager.store.get(manager.info(0).key)
        body = bare.store.get(bare.info(0).key)
        assert data.startswith(body) and len(data) > len(body)
        trailerless = deserialize_partition(body, small_table.schema, bare.info(0))
        assert np.array_equal(
            trailerless.segments[0].columns["a1"], segment.columns["a1"]
        )

    @pytest.mark.overwrites_blobs
    def test_corrupt_trailer_degrades_to_no_sketches(self, small_table):
        manager = self.make_manager(
            small_table,
            {0: SketchSet(by_attr={"a1": DictSketch("a1", np.array([3.0]))})},
        )
        info = manager.info(0)
        data = bytearray(manager.store.get(info.key))
        data[-1] ^= 0xFF  # wreck the trailer magic
        manager.store.put(info.key, bytes(data))
        assert read_trailer(manager.store.get(info.key)) is None
        # The partition body itself still reads fine.
        partition, _delta = manager.load(0)
        assert partition.pid == 0


class TestSelection:
    def make_info(self, table):
        manager = PartitionManager(
            table.schema, StorageDevice(BALOS_HDD), MemoryBlobStore()
        )
        n = table.n_tuples
        manager.materialize_specs(
            [[SegmentSpec(("a1", "a2", "a3"), np.arange(n, dtype=np.int64))]],
            table,
            tid_storage=TID_CATALOG,
        )
        return manager.info(0)

    def test_profile_counts_shapes(self, small_meta):
        from repro.core import Query

        queries = [
            Query.build(small_meta, ["a2"], {"a1": (5000, 5000)}),
            Query.build(
                small_meta, ["a2"], {"a1": (4000, 6000), "a3": (1000, 2000)}
            ),
        ]
        profile = profile_workload(queries)
        assert profile.n_queries == 2
        assert profile.attr_any == {"a1": 2, "a3": 1}
        assert profile.attr_eq == {"a1": 1}
        assert profile.pairs == {("a1", "a3"): 1}

    def test_budget_respected_and_zero_budget_selects_nothing(
        self, small_table, small_workload
    ):
        info = self.make_info(small_table)
        profile = profile_workload(small_workload)
        columns = {
            name: small_table.column(name)
            for name in small_table.schema.attribute_names
        }
        assert select_sketches(info, columns, profile, 0.010, 0) is None
        chosen = select_sketches(info, columns, profile, 0.010, 4096)
        if chosen is not None:
            assert chosen.size_bytes() <= 4096
            # Only attributes the workload constrains (and the partition
            # stores) are worth sketching.
            assert set(chosen.by_attr) <= {"a1", "a2", "a3"}

    def test_unprofiled_attributes_never_sketched(self, small_table):
        from repro.core import Query

        info = self.make_info(small_table)
        profile = profile_workload(
            [Query.build(small_table.meta, ["a2"], {"a1": (7, 7)})]
        )
        columns = {
            name: small_table.column(name)
            for name in small_table.schema.attribute_names
        }
        chosen = select_sketches(info, columns, profile, 0.010, 1 << 20)
        assert chosen is not None
        assert set(chosen.by_attr) == {"a1"}
        assert not chosen.grids  # single-attribute workload: no pairs
