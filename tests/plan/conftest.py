"""Fixtures for the planner tests: a tiny table with *deterministic* zones.

Three attributes live in disjoint value bands (a1 in [0, 99], a2 in
[1000, 1099], a3 in [2000, 2099]) and the explicit partitioning splits the
tuples in half, so every partition's zone map is known by construction:

    p0 stores (a1, a2) for tuples  0..49   — a1 zone [0, 49],  a2 [1000, 1049]
    p1 stores (a1, a2) for tuples 50..99   — a1 zone [50, 99], a2 [1050, 1099]
    p2 stores (a3,)    for all tuples      — a3 zone [2000, 2099]
"""

import numpy as np
import pytest

from repro.core import Query, TableSchema
from repro.storage import (
    BALOS_HDD,
    ColumnTable,
    MemoryBlobStore,
    PartitionManager,
    SegmentSpec,
    StorageDevice,
    TID_CATALOG,
)

N = 100


@pytest.fixture()
def zoned_table() -> ColumnTable:
    schema = TableSchema.uniform(["a1", "a2", "a3"])
    base = np.arange(N, dtype=np.int32)
    columns = {"a1": base, "a2": base + 1000, "a3": base + 2000}
    return ColumnTable.build("Z", schema, columns)


@pytest.fixture()
def zoned_manager(zoned_table) -> PartitionManager:
    lower = np.arange(N // 2, dtype=np.int64)
    upper = np.arange(N // 2, N, dtype=np.int64)
    specs = [
        [SegmentSpec(("a1", "a2"), lower)],
        [SegmentSpec(("a1", "a2"), upper)],
        [SegmentSpec(("a3",), np.arange(N, dtype=np.int64))],
    ]
    manager = PartitionManager(
        zoned_table.schema, StorageDevice(BALOS_HDD), MemoryBlobStore()
    )
    manager.materialize_specs(specs, zoned_table, tid_storage=TID_CATALOG)
    return manager


@pytest.fixture()
def q_one_pred(zoned_table) -> Query:
    """SELECT a3 WHERE a1 IN [0, 20] — p1's a1 zone is disjoint."""
    return Query.build(zoned_table.meta, ["a3"], {"a1": (0, 20)})


@pytest.fixture()
def q_two_pred(zoned_table) -> Query:
    """a1 IN [0, 20] AND a2 IN [1050, 1099] — the policies diverge on p0:
    its a2 zone is disjoint (scan prunes) but its a1 zone overlaps
    (partition policy must read it)."""
    return Query.build(
        zoned_table.meta, ["a3"], {"a1": (0, 20), "a2": (1050, 1099)}
    )
