"""Dirty reads take the hit-only form.

Under a version that hides tids (deleted ones, and those a later commit
added) the selection still runs hit-only wherever the catalog grants the
visit-once verdict.  Each scenario below runs twice on identical builds —
as is, and with the verdict withheld, which forces the full status write —
and every read must give the byte-equal result with identical accounting,
and the shadow oracle's rows.  The scenarios: reads after commits that
leave tombstones, ``AS OF`` reads of versions whose visibility ends below
the grown tid domain, reads after a budgeted fold that dropped part of a
deleted tuple's cells, and a degraded projection read under a hiding view.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.core import Query, TableSchema, Workload
from repro.engine import PartitionAtATimeExecutor, ScanExecutor
from repro.layouts import BuildContext, ColumnLayout, IrregularLayout
from repro.layouts.base import MaterializedLayout
from repro.storage import (
    BALOS_HDD,
    ColumnTable,
    FaultConfig,
    FaultInjectingBlobStore,
    MemoryBlobStore,
    PartitionManager,
    PhysicalSegment,
    StorageDevice,
)
from repro.storage.catalog import CatalogIndex
from repro.storage.physical import PhysicalPartition
from repro.testing import (
    ShadowTable,
    WriteWorkloadConfig,
    apply_random_batch,
    random_table,
    random_workload,
)
from repro.testing.snapshot import stats_signature
from repro.txn import DeltaCompactor, TransactionalTable

ENGINES = {"pat": PartitionAtATimeExecutor, "scan": ScanExecutor}
LAYOUTS = {"irregular": IrregularLayout, "column": ColumnLayout}


def full_form():
    """The full status write, forced with no option: the catalog never
    grants the visit-once verdict while this is entered."""
    return mock.patch.object(CatalogIndex, "visits_once", lambda self, attributes: False)


def same_result(a, b) -> bool:
    return a.equals(b) and all(
        a.columns[name].dtype == b.columns[name].dtype for name in a.columns
    )


class Reads:
    """Every read of one scenario run, checked against the shadow:
    ``(label, result, stats, dirty)``, ``dirty`` when the read took the
    verdict under a view that hides tids."""

    def __init__(self):
        self.entries = []

    def __call__(self, txn, shadow, query, version):
        with txn.pin(version) as view:
            plan = txn.layout.executor.planner.plan(query, notify=False, snapshot=view)
            dirty = plan.visits_once and view.hidden is not None
        result, stats = txn.execute(query, as_of=version)
        assert same_result(result, shadow.query(query, version)), query.label
        self.entries.append((query.label, result, stats, dirty))


def differential(scenario):
    """Run ``scenario(read)`` as is and with the verdict withheld; every
    read pair must agree.  Returns the first run's reads."""
    hit_only, full = Reads(), Reads()
    scenario(hit_only)
    with full_form():
        scenario(full)
    assert len(hit_only.entries) == len(full.entries)
    for (label, result, stats, _), (_, other, other_stats, dirty) in zip(
        hit_only.entries, full.entries
    ):
        assert not dirty
        assert same_result(result, other), label
        assert stats_signature(stats) == stats_signature(other_stats), label
    return hit_only.entries


def queries(rng, txn, n=4):
    """Point-like and range queries on random predicate attributes."""
    meta = txn.data.meta
    names = list(meta.schema.attribute_names)
    out = []
    for i in range(n):
        name = names[int(rng.integers(len(names)))]
        lo = int(rng.integers(0, 1_000))
        hi = lo + (5 if i % 2 else int(rng.integers(50, 400)))
        select = [str(a) for a in rng.choice(names, 2, replace=False)]
        out.append(Query.build(meta, select, {name: (lo, hi)}, label=f"q{i}-{name}"))
    return out


def build(layout, engine, seed, n_attrs=4, n_tuples=600):
    rng = np.random.default_rng(seed)
    table = random_table(rng, n_attrs=n_attrs, n_tuples=n_tuples)
    built = LAYOUTS[layout]().build(
        table, random_workload(rng, table, 4), BuildContext(file_segment_bytes=2048)
    )
    built.executor = ENGINES[engine](built.manager, table.meta)
    return rng, TransactionalTable(built, table)


def commit_batches(txn, rng, n_batches, read=None, config=WriteWorkloadConfig()):
    """``n_batches`` seeded commits in lockstep with a shadow; reads the
    head after each through ``read``.  Returns the shadow and the versions."""
    shadow = ShadowTable(txn.data)
    versions = [txn.current_version]
    shadow.snapshot(versions[0])
    for _ in range(n_batches):
        apply_random_batch(txn, shadow, rng, config)
        versions.append(txn.commit())
        shadow.snapshot(versions[-1])
        for query in queries(rng, txn) if read is not None else ():
            read(txn, shadow, query, versions[-1])
    return shadow, versions


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_reads_after_tombstoning_commits_and_as_of(layout, engine):
    """Head reads after every commit, then ``AS OF`` each older version —
    whose visibility ends below the tid domain the later commits grew."""
    state = {}

    def scenario(read):
        rng, txn = build(layout, engine, seed=21)
        shadow, versions = commit_batches(txn, rng, 6, read)
        assert txn.delta_state().tombstones
        state["head_reads"] = len(read.entries)
        for version in versions[1:-1]:
            assert len(txn.delta_state(version).visible) < txn.data.n_tuples
            for query in queries(rng, txn):
                read(txn, shadow, query, version)

    entries = differential(scenario)
    head, older = entries[:state["head_reads"]], entries[state["head_reads"]:]
    assert any(entry[3] for entry in head) and any(entry[3] for entry in older)


def column_groups(seed, n_tuples, engine):
    """An irregular layout whose tuples each span several partitions: three
    trained templates over disjoint attribute groups."""
    rng = np.random.default_rng(seed)
    table = random_table(rng, n_attrs=12, n_tuples=n_tuples)
    meta = table.meta
    names = list(table.schema.attribute_names)
    train = Workload(meta, [
        Query.build(meta, names[0:4], {names[0]: (100, 300)}),
        Query.build(meta, names[4:8], {names[4]: (500, 700)}),
        Query.build(meta, names[8:12], {names[8]: (0, 200)}),
    ])
    layout = IrregularLayout().build(
        table, train, BuildContext(file_segment_bytes=16 * 1024)
    )
    layout.executor = ENGINES[engine](layout.manager, meta)
    return rng, TransactionalTable(layout, table)


def partly_folded(txn) -> bool:
    """Whether some hidden tid still has a cell stored in one partition
    while the fold dropped another of its cells."""
    names = list(txn.data.schema.attribute_names)
    with txn.pin() as view:
        hidden = view.hidden
        stored = np.array([
            [bool(view.index.partitions_with_cells(name, hidden[i:i + 1])) for name in names]
            for i in range(len(hidden))
        ])
    return bool((stored.any(axis=1) & ~stored.all(axis=1)).any())


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_reads_after_a_budgeted_fold(engine):
    """A budgeted pass rewrites only some of the partitions holding a
    deleted tuple: the hidden tids then include tuples with some cells
    still stored and others gone."""
    state = {}

    def scenario(read):
        rng, txn = column_groups(48, 12_000, engine)
        config = WriteWorkloadConfig(max_delete_rows=60, max_update_rows=30)
        shadow, versions = commit_batches(txn, rng, 4, config=config)
        first = DeltaCompactor(txn, bytes_budget=128 * 1024, verify=True).run()
        state.update(deferred=first.n_partitions_deferred, partly=partly_folded(txn))
        shadow.snapshot(first.version)
        for version in (first.version, versions[-1]):
            for query in queries(rng, txn, n=6):
                read(txn, shadow, query, version)

    entries = differential(scenario)
    assert state["deferred"] > 0 and state["partly"]
    assert any(entry[3] for entry in entries)


KILL = FaultConfig(transient_error_rate=1.0)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_degraded_read_under_a_hiding_view(engine):
    """``a1``'s homes are partitions 0 and 1 (the verdict holds); ``a2``
    lives in partition 2 and again in partition 4.  Partition 2 is dead,
    so a read selects hit-only, then reads partition 4 as the substitute
    for the projected ``a2`` cells — under a version that hides tids of
    every home."""
    n = 400

    def scenario(read):
        rng = np.random.default_rng(5)
        names = ["a1", "a2", "a3", "a4"]
        table = ColumnTable.build("T", TableSchema.uniform(names), {
            name: rng.integers(0, 1_000, n).astype(np.int32) for name in names
        })
        store = FaultInjectingBlobStore(MemoryBlobStore(), overrides={"p000002.jig": KILL})
        manager = PartitionManager(table.schema, StorageDevice(BALOS_HDD), store)

        def segment(attrs, tids):
            return PhysicalSegment(
                attributes=attrs, tuple_ids=tids, columns=table.gather(attrs, tids),
            )

        every, low, high = np.arange(n), np.arange(200), np.arange(200, n)
        manager.materialize([
            PhysicalPartition(pid=0, segments=[segment(("a1",), low)]),
            PhysicalPartition(pid=1, segments=[segment(("a1",), high)]),
            PhysicalPartition(pid=2, segments=[segment(("a2",), every)]),
            PhysicalPartition(pid=3, segments=[segment(("a3", "a4"), every)]),
            PhysicalPartition(pid=4, segments=[segment(("a2",), every)]),
        ])
        executor = ENGINES[engine](manager, table.meta)
        txn = TransactionalTable(
            MaterializedLayout("hand", table.meta, manager, executor), table
        )
        shadow, versions = commit_batches(txn, rng, 3)
        for version in versions[1:]:
            for hi in (499, 49):
                query = Query.build(txn.data.meta, ["a2", "a3"], {"a1": (0, hi)})
                read(txn, shadow, query, version)

    entries = differential(scenario)
    assert all(entry[3] for entry in entries)
    assert all(entry[2].n_degraded_reads >= 1 for entry in entries)
