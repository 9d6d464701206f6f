"""Unit tests for the binary partition file format (Figure 4)."""

import pickle
import struct

import numpy as np
import pytest

from repro.core import AttributeSpec, TableSchema
from repro.errors import ChecksumError, StorageError
from repro.storage import (
    FORMAT_VERSION,
    PhysicalPartition,
    PhysicalSegment,
    StoredBlob,
    TID_CATALOG,
    TID_EXPLICIT,
    TID_IMPLICIT,
    deserialize_partition,
    segment_row_dtype,
    serialize_partition,
)


@pytest.fixture()
def schema():
    return TableSchema(
        [
            AttributeSpec("k", 8, "int64"),
            AttributeSpec("v", 4, "int32"),
            AttributeSpec("comment", 20, "int32"),  # padded width
            AttributeSpec("x", 8, "float64", integer=False),
        ]
    )


def make_segment(schema, attrs, tids, tid_storage=TID_EXPLICIT, seed=0):
    rng = np.random.default_rng(seed)
    columns = {}
    for name in attrs:
        dtype = schema[name].np_dtype
        if dtype == "float64":
            columns[name] = rng.random(len(tids))
        else:
            columns[name] = rng.integers(0, 1000, len(tids)).astype(dtype)
    return PhysicalSegment(
        attributes=tuple(attrs),
        tuple_ids=np.asarray(tids, dtype=np.int64),
        columns=columns,
        tid_storage=tid_storage,
    )


class TestRowDtype:
    def test_itemsize_uses_logical_widths(self, schema):
        dtype = segment_row_dtype(schema, ("k", "comment"))
        assert dtype.itemsize == 28

    def test_field_offsets_are_cumulative(self, schema):
        dtype = segment_row_dtype(schema, ("v", "comment", "x"))
        assert dtype.fields["v"][1] == 0
        assert dtype.fields["comment"][1] == 4
        assert dtype.fields["x"][1] == 24


class TestRoundtrip:
    def test_explicit_tids(self, schema, frame_of):
        segment = make_segment(schema, ["k", "x"], [5, 9, 17])
        partition = PhysicalPartition(3, [segment])
        data = serialize_partition(partition, schema)
        restored = deserialize_partition(data, schema, frame_of(partition))
        assert restored.pid == 3
        out = restored.segments[0]
        assert out.attributes == ("k", "x")
        assert np.array_equal(out.tuple_ids, [5, 9, 17])
        assert np.array_equal(out.columns["k"], segment.columns["k"])
        assert np.allclose(out.columns["x"], segment.columns["x"])

    def test_implicit_tids(self, schema, frame_of):
        segment = make_segment(schema, ["v"], [100, 101, 102], TID_IMPLICIT)
        partition = PhysicalPartition(0, [segment])
        data = serialize_partition(partition, schema)
        restored = deserialize_partition(data, schema, frame_of(partition))
        assert np.array_equal(restored.segments[0].tuple_ids, [100, 101, 102])

    def test_catalog_tids_come_from_caller(self, schema, frame_of):
        segment = make_segment(schema, ["v"], [7, 3, 99], TID_CATALOG)
        partition = PhysicalPartition(0, [segment])
        data = serialize_partition(partition, schema)
        restored = deserialize_partition(data, schema, frame_of(partition))
        assert np.array_equal(restored.segments[0].tuple_ids, [7, 3, 99])

    def test_catalog_tids_missing_raises(self, schema, frame_of):
        segment = make_segment(schema, ["v"], [7, 3], TID_CATALOG)
        data = serialize_partition(PhysicalPartition(0, [segment]), schema)
        with pytest.raises(StorageError):
            deserialize_partition(data, schema, frame_of(PhysicalPartition(0, [])))

    def test_multiple_segments(self, schema, frame_of):
        segments = [
            make_segment(schema, ["k", "v", "comment", "x"], [0, 1]),
            make_segment(schema, ["v"], [2, 3, 4], seed=1),
        ]
        partition = PhysicalPartition(1, segments)
        data = serialize_partition(partition, schema)
        restored = deserialize_partition(data, schema, frame_of(partition))
        assert len(restored.segments) == 2
        assert restored.segments[1].attributes == ("v",)

    def test_empty_segment(self, schema, frame_of):
        segment = make_segment(schema, ["v"], [])
        partition = PhysicalPartition(0, [segment])
        data = serialize_partition(partition, schema)
        restored = deserialize_partition(data, schema, frame_of(partition))
        assert restored.segments[0].n_tuples == 0

    def test_file_size_includes_padding(self, schema):
        """A 'comment' cell must really occupy 20 bytes on disk."""
        narrow = make_segment(schema, ["v"], [0, 1, 2])
        wide = make_segment(schema, ["comment"], [0, 1, 2])
        narrow_size = len(serialize_partition(PhysicalPartition(0, [narrow]), schema))
        wide_size = len(serialize_partition(PhysicalPartition(0, [wide]), schema))
        assert wide_size - narrow_size == 3 * (20 - 4)


@pytest.fixture()
def one_segment(schema):
    return PhysicalPartition(0, [make_segment(schema, ["comment"], [0, 1, 2])])


class TestCorruption:
    def test_bad_magic(self, schema, one_segment, frame_of):
        data = serialize_partition(one_segment, schema)
        with pytest.raises(StorageError):
            deserialize_partition(b"XXXX" + data[4:], schema, frame_of(one_segment))

    def test_truncated_header(self, schema, one_segment, frame_of):
        with pytest.raises(StorageError):
            deserialize_partition(b"JG", schema, frame_of(one_segment))

    def test_truncated_cells(self, schema, one_segment, frame_of):
        data = serialize_partition(one_segment, schema)
        with pytest.raises(StorageError):
            deserialize_partition(data[:-8], schema, frame_of(one_segment))

    def test_schema_mismatch(self, schema, one_segment, frame_of):
        data = serialize_partition(one_segment, schema)
        other = TableSchema.uniform(["a", "b"])
        with pytest.raises(StorageError):
            deserialize_partition(data, other, frame_of(one_segment))

    @pytest.mark.parametrize("version", [1, 3])
    def test_other_format_versions_are_refused(
        self, schema, one_segment, frame_of, version
    ):
        assert FORMAT_VERSION == 2
        data = bytearray(serialize_partition(one_segment, schema))
        struct.pack_into("<H", data, 4, version)  # the header's version field
        with pytest.raises(StorageError, match=f"format version {version}"):
            deserialize_partition(bytes(data), schema, frame_of(one_segment))


@pytest.fixture()
def mixed_partition(schema):
    """One segment of each tuple-ID mode."""
    return PhysicalPartition(
        4,
        [
            make_segment(schema, ["k", "x"], [5, 9, 17], TID_EXPLICIT),
            make_segment(schema, ["v"], [100, 101, 102, 103], TID_IMPLICIT, seed=1),
            make_segment(schema, ["v", "comment"], [2, 3, 8], TID_CATALOG, seed=2),
        ],
    )


class TestFramedDecode:
    def test_tuple_ids_are_the_frame_arrays(self, schema, mixed_partition, frame_of):
        frame = frame_of(mixed_partition)
        data = serialize_partition(mixed_partition, schema)
        restored = deserialize_partition(data, schema, frame)
        for original, decoded, tids in zip(
            mixed_partition.segments, restored.segments, frame.segment_tids
        ):
            assert decoded.tuple_ids is tids
            assert not decoded.tuple_ids.flags.writeable
            assert decoded.attributes == original.attributes
            assert decoded.tid_storage == original.tid_storage
            for name in original.attributes:
                assert np.array_equal(decoded.columns[name], original.columns[name])

    @pytest.mark.parametrize(
        "field,ordinal,value",
        [
            ("segment_tid_modes", 0, TID_CATALOG),  # mode
            ("segment_tid_modes", 1, TID_EXPLICIT),
            ("segment_replicas", 2, True),  # replica flag of the mode byte
            ("segment_attrs", 0, ("k",)),  # bitmap
            ("segment_attrs", 2, ("comment", "v")),
            ("segment_tids", 0, np.array([5, 9], np.int64)),  # n_tuples
            ("segment_tids", 1, np.arange(100, 105)),
            ("segment_tids", 1, np.arange(101, 105)),  # first_tid
            ("segment_tids", 2, np.array([1, 3, 8], np.int64)),
        ],
    )
    def test_header_disagreeing_with_frame_raises(
        self, schema, mixed_partition, frame_of, field, ordinal, value
    ):
        frame = frame_of(mixed_partition)
        data = serialize_partition(mixed_partition, schema)
        getattr(frame, field)[ordinal] = value
        with pytest.raises(StorageError, match="disagrees with the catalog"):
            deserialize_partition(data, schema, frame)

    def test_segment_count_disagreeing_with_frame_raises(
        self, schema, mixed_partition, frame_of
    ):
        frame = frame_of(mixed_partition)
        for values in vars(frame).values():
            values.pop()
        data = serialize_partition(mixed_partition, schema)
        with pytest.raises(StorageError, match="segments"):
            deserialize_partition(data, schema, frame)

    def test_framed_decode_still_detects_truncation(
        self, schema, mixed_partition, frame_of
    ):
        frame = frame_of(mixed_partition)
        data = serialize_partition(mixed_partition, schema)
        for cut in (3, 20, 40, len(data) // 2, len(data) - 1):
            with pytest.raises(StorageError):
                deserialize_partition(data[:cut], schema, frame)


class TestChecksumVerdict:
    """A CRC verdict belongs to one immutable bytes object, nothing else."""

    def test_stored_blob_is_verified_once(
        self, schema, mixed_partition, crc_calls, frame_of
    ):
        blob = StoredBlob(serialize_partition(mixed_partition, schema))
        assert not blob.crc_verified
        crc_calls.clear()  # the writer hashes too
        deserialize_partition(blob, schema, frame_of(mixed_partition))
        assert blob.crc_verified
        # header + (segment header, segment body) per segment
        assert len(crc_calls) == 1 + 2 * len(mixed_partition.segments)
        assert sum(crc_calls) == len(blob) - 4 * (1 + len(mixed_partition.segments))
        crc_calls.clear()
        restored = deserialize_partition(blob, schema, frame_of(mixed_partition))
        assert crc_calls == []
        assert np.array_equal(
            restored.segments[0].columns["k"], mixed_partition.segments[0].columns["k"]
        )

    def test_plain_bytes_are_verified_every_time(
        self, schema, mixed_partition, crc_calls, frame_of
    ):
        data = serialize_partition(mixed_partition, schema)
        crc_calls.clear()
        deserialize_partition(data, schema, frame_of(mixed_partition))
        first = len(crc_calls)
        deserialize_partition(data, schema, frame_of(mixed_partition))
        assert first > 0 and len(crc_calls) == 2 * first

    def test_verdict_does_not_travel_to_another_object(self, schema, mixed_partition, frame_of):
        blob = StoredBlob(serialize_partition(mixed_partition, schema))
        deserialize_partition(blob, schema, frame_of(mixed_partition))
        assert blob.crc_verified
        assert not StoredBlob(blob).crc_verified
        assert type(blob[:]) is bytes and type(blob[: len(blob) - 1]) is bytes
        assert type(bytes(bytearray(blob))) is bytes
        assert not pickle.loads(pickle.dumps(blob)).crc_verified
        assert pickle.loads(pickle.dumps(blob)) == blob

    def test_failed_decode_records_no_verdict(self, schema, mixed_partition, frame_of):
        corrupted = bytearray(serialize_partition(mixed_partition, schema))
        corrupted[-1] ^= 0x01
        blob = StoredBlob(bytes(corrupted))
        for _ in range(2):
            with pytest.raises(ChecksumError):
                deserialize_partition(blob, schema, frame_of(mixed_partition))
            assert not blob.crc_verified

    def test_verified_blob_still_checks_framing(self, schema, mixed_partition, frame_of):
        blob = StoredBlob(serialize_partition(mixed_partition, schema))
        deserialize_partition(blob, schema, frame_of(mixed_partition))
        other = TableSchema.uniform(["a", "b"])
        with pytest.raises(StorageError):
            deserialize_partition(blob, other, frame_of(mixed_partition))
