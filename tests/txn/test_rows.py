"""The write path's read of the stored table equals the dense shadow.

:func:`repro.engine.base.rows` gathers the cells of a tid list from the
partitions the owner maps name, segment by segment.  Over a row layout and
a column layout (implicit tids) and an irregular layout (explicit tids,
each segment's tids with gaps in its span), each with unfolded commit
partitions beside the build's, every drawn tid list — empty, one tid, a
handful, the whole table — and every drawn attribute list reads back what
the shadow holds, and a cell no partition stores raises.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Query, TableSchema, Workload
from repro.engine.base import rows
from repro.errors import StorageError
from repro.layouts import BuildContext, ColumnLayout, IrregularLayout, RowLayout
from repro.storage import BALOS_HDD, ColumnTable, PartitionManager, StorageDevice
from repro.storage.physical import PhysicalPartition, PhysicalSegment
from repro.testing import ShadowTable, WriteWorkloadConfig, apply_random_batch
from repro.txn import TransactionalTable

BUILDERS = {"row": RowLayout, "column": ColumnLayout, "irregular": IrregularLayout}


@lru_cache(maxsize=None)
def committed(kind):
    """A 1 500 x 8 table laid out as ``kind`` (2 KiB segments; the
    irregular layout trained on three templates) under a transactional
    table with four random batches committed and not folded, and its
    shadow."""
    rng = np.random.default_rng(17)
    schema = TableSchema.uniform([f"a{i}" for i in range(1, 9)])
    table = ColumnTable.build("T", schema, {
        name: rng.integers(0, 1_000, 1_500).astype(np.int32)
        for name in schema.attribute_names
    })
    meta = table.meta
    train = Workload(meta, [
        Query.build(meta, ["a2", "a3"], {"a1": (0, 199)}, label="Q1"),
        Query.build(meta, ["a2", "a3"], {"a4": (500, 999)}, label="Q2"),
        Query.build(meta, ["a5"], {"a6": (400, 499)}, label="Q3"),
    ])
    layout = BUILDERS[kind]().build(table, train, BuildContext(file_segment_bytes=2 * 1024))
    txn = TransactionalTable(layout, table)
    shadow = ShadowTable(table)
    for _ in range(4):
        apply_random_batch(txn, shadow, rng, WriteWorkloadConfig())
        shadow.snapshot(txn.commit())
    assert len(txn.delta_state().segments) >= 2  # commit partitions, unfolded
    return txn, shadow


def tid_lists(n):
    """Ascending distinct tids below ``n``: none, one, a handful, all."""
    return st.one_of(
        st.just([]),
        st.integers(0, n - 1).map(lambda tid: [tid]),
        st.sets(st.integers(0, n - 1), min_size=2, max_size=12).map(sorted),
        st.just(list(range(n))),
    )


@pytest.mark.parametrize("kind", sorted(BUILDERS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_rows_equal_the_shadow(kind, data):
    txn, shadow = committed(kind)
    names = data.draw(st.lists(
        st.sampled_from(txn.schema.attribute_names), min_size=1, unique=True
    ))
    tids = np.array(data.draw(tid_lists(txn.n_tuples)), dtype=np.int64)
    with txn.manager.pin_snapshot() as view:
        cells = rows(view, tids, names)
    assert list(cells) == names
    for name in names:
        assert cells[name].dtype == shadow.columns[name].dtype
        assert np.array_equal(cells[name], shadow.columns[name][tids])


def test_a_cell_no_partition_stores_raises():
    """a1 is stored for tids 0..9, a2 for 0..4 only, a3 nowhere."""
    schema = TableSchema.uniform(["a1", "a2", "a3"])
    manager = PartitionManager(schema, StorageDevice(BALOS_HDD))
    tids = np.arange(10, dtype=np.int64)
    manager.add_partition(PhysicalPartition(pid=0, segments=[
        PhysicalSegment(("a1",), tids, {"a1": np.arange(10, dtype=np.int32)}),
        PhysicalSegment(("a2",), tids[:5], {"a2": np.arange(5, dtype=np.int32)}),
    ]))
    with manager.pin_snapshot() as view:
        assert rows(view, tids, ["a1"])["a1"].tolist() == list(range(10))
        assert rows(view, tids[:5], ["a2", "a1"])["a2"].tolist() == list(range(5))
        with pytest.raises(StorageError, match="'a2' of tuple 5 "):
            rows(view, tids, ["a1", "a2"])
        with pytest.raises(StorageError, match="'a1' of tuple 12 "):
            rows(view, np.array([3, 12], dtype=np.int64), ["a1"])
        with pytest.raises(StorageError, match="'a3' of tuple 0 "):
            rows(view, tids, ["a3"])
        assert rows(view, tids[:0], ["a3"])["a3"].tolist() == []
