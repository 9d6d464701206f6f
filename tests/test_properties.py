"""Property-based tests (hypothesis) for the core invariants.

Covers: interval algebra, range-map intersection, segment splitting, the
partitioner's validity constraints, the binary format roundtrip, and
engine-vs-reference query equivalence on random tables and queries.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    CostModel,
    IOModel,
    JigsawPartitioner,
    PartitionerConfig,
    Query,
    Segment,
    TableSchema,
    Workload,
    horizontal_split,
)
from repro.core.ranges import Interval
from repro.engine import ScanExecutor
from repro.layouts import BuildContext, IrregularLayout
from repro.storage import (
    BALOS_HDD,
    ColumnTable,
    DeviceProfile,
    PhysicalPartition,
    PhysicalSegment,
    StorageDevice,
    TID_CATALOG,
    TID_EXPLICIT,
    TID_IMPLICIT,
    checksum_overhead,
    deserialize_partition,
    serialize_partition,
)

# ---------------------------------------------------------------- intervals

interval_bounds = st.tuples(
    st.integers(-10_000, 10_000), st.integers(0, 10_000)
).map(lambda pair: Interval(float(pair[0]), float(pair[0] + pair[1])))


class TestIntervalProperties:
    @given(interval_bounds, interval_bounds)
    def test_intersects_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(interval_bounds, interval_bounds)
    def test_intersect_consistent_with_intersects(self, a, b):
        overlap = a.intersect(b)
        assert (overlap is not None) == a.intersects(b)
        if overlap is not None:
            assert a.covers(overlap) and b.covers(overlap)

    @given(interval_bounds, interval_bounds)
    def test_overlap_fraction_bounded(self, a, b):
        fraction = a.overlap_fraction(b, unit=1.0)
        assert 0.0 <= fraction <= 1.0

    @given(interval_bounds)
    def test_self_overlap_is_one(self, a):
        assert a.overlap_fraction(a, unit=1.0) == pytest.approx(1.0)

    @given(
        st.integers(-1000, 1000),
        st.integers(2, 2000),
        st.data(),
    )
    def test_integer_split_partitions_exactly(self, lo, width, data):
        interval = Interval(float(lo), float(lo + width))
        cut = data.draw(st.integers(lo, lo + width - 1))
        lower, upper = interval.split(cut, unit=1.0)
        # no gap, no overlap
        assert lower.hi + 1.0 == upper.lo
        assert lower.lo == interval.lo and upper.hi == interval.hi
        # widths add up
        assert lower.width(1.0) + upper.width(1.0) == pytest.approx(interval.width(1.0))


# ----------------------------------------------------------------- segments


class TestSplitProperties:
    @given(
        st.integers(10, 10_000),
        st.integers(0, 999),
        st.integers(1, 6),
    )
    @settings(max_examples=50)
    def test_horizontal_split_conserves_tuples(self, n_tuples, cut, n_attrs):
        names = [f"a{i}" for i in range(n_attrs)]
        schema = TableSchema.uniform(names)
        from repro.core import TableMeta

        table = TableMeta.from_bounds(
            "t", schema, n_tuples, {name: (0, 1000) for name in names}
        )
        segment = Segment(tuple(names), float(n_tuples), table.full_range())
        lower, upper = horizontal_split(segment, names[0], cut, schema.units())
        assert lower.n_tuples + upper.n_tuples == pytest.approx(float(n_tuples))
        assert lower.n_tuples >= 0 and upper.n_tuples >= 0


# --------------------------------------------------------------- partitioner


def _random_table(draw):
    n_attrs = draw(st.integers(2, 8))
    n_tuples = draw(st.integers(200, 3_000))
    seed = draw(st.integers(0, 2**16))
    names = [f"a{i}" for i in range(n_attrs)]
    schema = TableSchema.uniform(names)
    rng = np.random.default_rng(seed)
    columns = {
        name: rng.integers(0, 10_000, n_tuples).astype(np.int32) for name in names
    }
    return ColumnTable.build("t", schema, columns)


def _random_query(draw, table, label):
    names = list(table.schema.attribute_names)
    k = draw(st.integers(1, len(names)))
    indices = draw(
        st.lists(st.integers(0, len(names) - 1), min_size=k, max_size=k, unique=True)
    )
    select = [names[i] for i in indices]
    pred_attr = names[draw(st.integers(0, len(names) - 1))]
    lo = draw(st.integers(0, 9_000))
    hi = lo + draw(st.integers(0, 9_999 - lo))
    interval = table.meta.interval(pred_attr)
    lo = max(lo, int(interval.lo))
    hi = min(max(hi, lo), int(interval.hi))
    if hi < lo:
        lo = hi = int(interval.lo)
    return Query.build(table.meta, select, {pred_attr: (lo, hi)}, label=label)


@st.composite
def table_and_workload(draw):
    table = _random_table(draw)
    n_queries = draw(st.integers(1, 6))
    queries = [_random_query(draw, table, f"q{i}") for i in range(n_queries)]
    return table, Workload(table.meta, queries)


class TestPartitionerProperties:
    @given(table_and_workload())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_plan_valid_and_queries_correct(self, setup):
        """For random tables and workloads: the plan satisfies Formula 4's
        constraints, every cell is materialized exactly once, and the
        partition-at-a-time engine answers a training query exactly like a
        direct numpy evaluation."""
        table, workload = setup
        ctx = BuildContext(
            device_profile=DeviceProfile("flat", IOModel(alpha=1e-8, beta=1e-7)),
            file_segment_bytes=4 * 1024,
        )
        layout = IrregularLayout(selection_enabled=False).build(table, workload, ctx)
        layout.plan.validate_disjoint()
        layout.plan.validate_attribute_cover()

        cells = 0
        for pid in layout.manager.pids():
            info = layout.manager.info(pid)
            cells += sum(
                len(attrs) * len(tids)
                for attrs, tids in zip(info.segment_attrs, info.segment_tids)
            )
        assert cells == table.n_tuples * len(table.schema)

        query = workload[0]
        result, _stats = layout.execute(query)
        mask = np.ones(table.n_tuples, dtype=bool)
        for name, interval in query.where.items():
            column = table.column(name)
            mask &= (column >= interval.lo) & (column <= interval.hi)
        expected_tids = np.nonzero(mask)[0]
        assert np.array_equal(result.tuple_ids, expected_tids)
        for name in query.select:
            assert np.array_equal(
                result.column(name), table.column(name)[expected_tids]
            )


# -------------------------------------------------------------- file format


@st.composite
def physical_partitions(draw):
    n_attrs = draw(st.integers(1, 6))
    names = [f"a{i}" for i in range(n_attrs)]
    schema = TableSchema.uniform(names, byte_width=draw(st.sampled_from([4, 8, 12])))
    n_segments = draw(st.integers(1, 3))
    segments = []
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    for _ in range(n_segments):
        k = draw(st.integers(1, n_attrs))
        attrs = tuple(names[:k])
        n = draw(st.integers(0, 50))
        mode = draw(st.sampled_from([TID_EXPLICIT, TID_IMPLICIT, TID_CATALOG]))
        if mode == TID_IMPLICIT:
            start = draw(st.integers(0, 10_000))
            tids = np.arange(start, start + n, dtype=np.int64)
        else:
            tids = np.sort(rng.choice(10_000, size=n, replace=False)).astype(np.int64)
        columns = {a: rng.integers(0, 1000, n).astype(np.int32) for a in attrs}
        segments.append(
            PhysicalSegment(
                attributes=attrs,
                tuple_ids=tids,
                columns=columns,
                tid_storage=mode,
                replica=draw(st.booleans()),
            )
        )
    return schema, PhysicalPartition(pid=draw(st.integers(0, 1000)), segments=segments)


class TestFormatProperties:
    @given(physical_partitions())
    @settings(max_examples=50, deadline=None)
    def test_serialize_roundtrip(self, frame_of, setup):
        schema, partition = setup
        data = serialize_partition(partition, schema)
        restored = deserialize_partition(data, schema, frame_of(partition))
        assert restored.pid == partition.pid
        assert len(restored.segments) == len(partition.segments)
        for original, copy in zip(partition.segments, restored.segments):
            assert copy.attributes == original.attributes
            assert (copy.tid_storage, copy.replica) == (
                original.tid_storage, original.replica
            )
            assert np.array_equal(copy.tuple_ids, original.tuple_ids)
            for name in original.attributes:
                assert np.array_equal(copy.columns[name], original.columns[name])

    @given(physical_partitions())
    @settings(max_examples=30, deadline=None)
    def test_file_size_matches_disk_bytes_plus_headers(self, setup):
        schema, partition = setup
        data = serialize_partition(partition, schema)
        payload = partition.disk_bytes(schema)
        # v2: a 4-byte CRC follows the file header and each segment header.
        header_budget = 16 + len(partition.segments) * (17 + (len(schema) + 7) // 8)
        crc_budget = checksum_overhead(len(partition.segments))
        assert len(data) == payload + header_budget + crc_budget


# ------------------------------------------------------------ devices/cache


class TestDeviceProperties:
    @given(
        st.lists(st.tuples(st.text("ab", min_size=1, max_size=3),
                           st.integers(1, 10_000)), min_size=1, max_size=60),
        st.integers(0, 20_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_cache_never_exceeds_capacity(self, reads, capacity):
        device = StorageDevice(BALOS_HDD, cache_bytes=capacity)
        for key, size in reads:
            device.read(key, size)
            assert device.cached_bytes <= max(capacity, 0)

    @given(
        st.lists(st.integers(1, 10_000_000), min_size=1, max_size=30),
    )
    @settings(max_examples=50)
    def test_io_time_monotone_in_bytes(self, sizes):
        model = BALOS_HDD.io_model
        ordered = sorted(sizes)
        times = [model.io_time(size) for size in ordered]
        assert all(a <= b for a, b in zip(times, times[1:]))


# ---------------------------------------------------- differential oracle


class TestDifferentialOracleProperties:
    """Hypothesis drives random tables and workloads through the
    cross-engine differential oracle: every engine, over every layout
    family, must agree bit-for-bit with a direct numpy evaluation."""

    @given(table_and_workload())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_all_layouts_match_reference(self, setup):
        from repro.testing import oracle_check
        from repro.testing.oracle import ORACLE_LAYOUTS

        table, workload = setup
        ctx = BuildContext(file_segment_bytes=4096, schism_sample_size=200)
        for name, make in ORACLE_LAYOUTS:
            layout = make().build(table, workload, ctx)
            for query in workload:
                mismatch = oracle_check(layout, table, query)
                assert mismatch is None, f"[{name}] {mismatch}"

    @given(table_and_workload(), st.sampled_from(["locking", "shared"]))
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_threaded_engine_matches_reference(self, setup, strategy):
        from repro.engine.parallel import ThreadedPartitionEngine
        from repro.layouts import IrregularLayout
        from repro.testing import run_reference_query

        table, workload = setup
        ctx = BuildContext(file_segment_bytes=4096)
        layout = IrregularLayout(selection_enabled=False).build(
            table, workload, ctx
        )
        engine = ThreadedPartitionEngine(
            layout.manager, table.meta, n_threads=3, strategy=strategy
        )
        query = workload[0]
        result, _stats = engine.execute(query)
        assert result.equals(run_reference_query(table, query))
