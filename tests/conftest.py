"""Shared fixtures: small tables, workloads, build contexts and catalog
frames — plus the suite-wide thread-leak check and the write-once guard on
partition files."""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import (
    CostModel,
    IOModel,
    Query,
    TableMeta,
    TableSchema,
    Workload,
)
from repro.layouts import BuildContext
from repro.storage import ColumnTable, DirectoryBlobStore, MemoryBlobStore


@pytest.fixture(autouse=True)
def no_thread_leaks():
    """Fail any test that leaves a thread running, daemon or not.

    The serving tier, the threaded engines and the adaptive daemon all
    spawn threads; a test that forgets to stop them would hang the
    interpreter at exit (non-daemon) or keep working behind later tests
    and poison their timing (daemon).  A short grace period lets threads
    that were already joining finish.
    """
    before = set(threading.enumerate())
    yield
    def leaked():
        return [
            thread
            for thread in threading.enumerate()
            if thread not in before and thread.is_alive()
        ]
    deadline = time.monotonic() + 2.0
    remaining = leaked()
    while remaining and time.monotonic() < deadline:
        time.sleep(0.01)
        remaining = leaked()
    assert not remaining, (
        "test leaked threads: " + ", ".join(thread.name for thread in remaining)
    )


@pytest.fixture(autouse=True)
def write_once_partition_files(request, monkeypatch):
    """Fail any test in which a ``*.jig`` key that already holds a blob is
    put again.

    A pid names one immutable partition file: every change to the catalog
    is a swap of fresh pids, so nothing in ``src/`` may overwrite a
    partition blob — a reader holding the old catalog entry, or a crash
    between the put and the catalog commit, would be left with a file that
    no entry describes.  The offending put raises, and the test fails at
    teardown even if something swallowed that.  Tests that damage a stored
    blob on purpose opt out with ``@pytest.mark.overwrites_blobs``.
    """
    if request.node.get_closest_marker("overwrites_blobs"):
        yield
        return
    rewritten = []
    for store_cls in (MemoryBlobStore, DirectoryBlobStore):
        def guarded_put(self, key, data, _put=store_cls.put):
            if key.endswith(".jig") and key in self:
                rewritten.append(key)
                raise AssertionError(f"partition file {key!r} was put twice")
            _put(self, key, data)

        monkeypatch.setattr(store_cls, "put", guarded_put)
    yield
    assert not rewritten, f"partition files put twice: {rewritten}"


def _frame_of(partition) -> SimpleNamespace:
    """The catalog frame of a partition, as ``PartitionManager`` builds it:
    per segment its attributes, read-only tuple IDs and tid mode — what
    ``deserialize_partition`` reads a file under."""
    tids = [np.array(s.tuple_ids, dtype=np.int64) for s in partition.segments]
    for array in tids:
        array.flags.writeable = False
    return SimpleNamespace(
        segment_attrs=[tuple(s.attributes) for s in partition.segments],
        segment_tids=tids,
        segment_tid_modes=[s.tid_storage for s in partition.segments],
    )


@pytest.fixture(scope="session")
def frame_of():
    """``frame_of(partition)``: a fresh catalog frame for a physical
    partition, for decoding its file outside a partition manager."""
    return _frame_of


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture()
def small_schema() -> TableSchema:
    return TableSchema.uniform([f"a{i}" for i in range(1, 7)])


@pytest.fixture()
def small_table(small_schema, rng) -> ColumnTable:
    """6 attributes x 5000 tuples of uniform ints in [0, 9999]."""
    columns = {
        name: rng.integers(0, 10_000, 5_000).astype(np.int32)
        for name in small_schema.attribute_names
    }
    return ColumnTable.build("T", small_schema, columns)


@pytest.fixture()
def small_meta(small_table) -> TableMeta:
    return small_table.meta


@pytest.fixture()
def small_workload(small_meta) -> Workload:
    q1 = Query.build(small_meta, ["a2", "a3"], {"a1": (0, 1999)}, label="Q1")
    q2 = Query.build(small_meta, ["a2", "a3"], {"a4": (5000, 9999)}, label="Q2")
    q3 = Query.build(small_meta, ["a5"], {"a6": (4000, 4999)}, label="Q3")
    return Workload(small_meta, [q1, q2, q3])


@pytest.fixture()
def cost_model(small_meta) -> CostModel:
    return CostModel(small_meta, IOModel.from_throughput(75.0, 0.001))


@pytest.fixture()
def ctx() -> BuildContext:
    """A build context sized for the tiny test tables."""
    return BuildContext(file_segment_bytes=16 * 1024, schism_sample_size=200)


@pytest.fixture()
def paper_table() -> TableMeta:
    """The 6x6 example table of Figure 1 / Table 2."""
    schema = TableSchema.uniform([f"a{i}" for i in range(1, 7)])
    bounds = {f"a{i}": (i * 10 + 1, i * 10 + 6) for i in range(1, 7)}
    return TableMeta.from_bounds("T", schema, 6, bounds)


@pytest.fixture()
def paper_queries(paper_table):
    """Table 2's three example queries."""
    q1 = Query.build(paper_table, ["a2", "a3"], {"a1": (11, 13)}, label="Q1")
    q2 = Query.build(paper_table, ["a2", "a3"], {"a4": (44, 46)}, label="Q2")
    q3 = Query.build(paper_table, ["a5"], {"a6": (64, 65)}, label="Q3")
    return [q1, q2, q3]
