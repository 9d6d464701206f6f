"""Regression: building a sketched layout over a store whose *reads* fault
never damages what is stored.

The fault store's contract is that faults touch only the returned copies.
A builder that patched sketches into already-stored files (get the blob,
append the trailer, put it back under the same key) wrote those damaged
copies back — blobs corrupt for good, long after the fault layer was gone.
Sketches are now chosen from the just-built catalog entry and stored with
the partition's one put, so a build reads nothing back.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Query, TableSchema, Workload
from repro.layouts import BuildContext, IrregularLayout
from repro.storage import (
    ColumnTable,
    FaultConfig,
    FaultInjectingBlobStore,
    MemoryBlobStore,
    SketchSet,
    deserialize_partition,
)
from repro.storage.format import read_trailer

FAULTS = FaultConfig(corruption_rate=0.3, truncation_rate=0.1)


def interleaved():
    """Every partition's ``a1`` spans [0, 98] but holds only even values and
    ``a2`` tracks it: zone maps prune neither training query, sketches both."""
    n = 6000
    a1 = (np.arange(n, dtype=np.int32) * 2) % 100
    table = ColumnTable.build(
        "T",
        TableSchema.uniform(["a1", "a2", "a3", "a4"]),
        {
            "a1": a1,
            "a2": a1.copy(),
            "a3": np.arange(n, dtype=np.int32),
            "a4": np.random.default_rng(5).integers(0, 1000, n).astype(np.int32),
        },
    )
    train = Workload(table.meta, [
        Query.build(table.meta, ["a3"], {"a1": (51, 51)}, label="eq"),
        Query.build(table.meta, ["a3"], {"a1": (0, 30), "a2": (60, 98)}, label="conj"),
        Query.build(table.meta, ["a4"], {"a3": (100, 900)}, label="range"),
    ])
    ctx = BuildContext(
        file_segment_bytes=4096, schism_sample_size=100, sketch_budget_bytes=4096
    )
    return IrregularLayout(selection_enabled=False, zone_maps=True), table, train, ctx


@pytest.mark.parametrize("scenario", [interleaved])
def test_build_over_faulting_reads_leaves_every_blob_whole(scenario, monkeypatch):
    builder, table, train, ctx = scenario()
    clean = builder.build(table, train, ctx)

    # Same build, but every manager it makes sits on a store whose reads
    # hand out corrupted / truncated copies.
    make_manager = BuildContext.make_manager
    stores = []

    def make_faulty_manager(self, meta, store=None):
        assert store is None
        stores.append(FaultInjectingBlobStore(MemoryBlobStore(), FAULTS, seed=3))
        return make_manager(self, meta, stores[-1])

    monkeypatch.setattr(BuildContext, "make_manager", make_faulty_manager)
    layout = builder.build(table, train, ctx)
    monkeypatch.undo()

    manager = layout.manager
    faulty = manager.store
    assert faulty is stores[0]
    inner = faulty.inner
    n_sketched = 0
    for pid in manager.pids():
        info = manager.info(pid)
        data = inner.get(info.key)  # the stored bytes, no fault layer
        partition = deserialize_partition(data, table.schema, frame=info)
        assert partition.pid == pid
        assert data == clean.manager.store.get(clean.manager.info(pid).key)
        payload = read_trailer(data)
        if info.sketches is None:
            assert payload is None
        else:
            n_sketched += 1
            assert SketchSet.from_bytes(payload).to_bytes() == info.sketches.to_bytes()
    assert n_sketched > 0
    assert faulty.stats.n_gets == 0  # nothing was read back to be rewritten

    # With the fault layer gone the layout answers — and prunes — exactly
    # like the clean-store build.
    manager.store = inner
    pruned = 0
    for query in train:
        result, stats = layout.execute(query)
        expected, expected_stats = clean.execute(query)
        assert result.equals(expected)
        assert stats.n_partitions_sketch_pruned == expected_stats.n_partitions_sketch_pruned
        pruned += stats.n_partitions_sketch_pruned
    assert pruned > 0
