"""Dirty reads take the hit-only form.

Under a version that hides tids (deleted ones, and those a later commit
added) the selection still runs hit-only wherever the catalog grants the
visit-once verdict.  Each scenario below runs twice on identical builds —
as is, and with the verdict withheld, which forces the full status write —
and every read must give the byte-equal result with identical accounting,
and the shadow oracle's rows.  The scenarios: reads after commits that
leave tombstones, ``AS OF`` reads of versions whose visibility ends below
the grown tid domain, and reads after a budgeted fold that dropped part of
a deleted tuple's cells.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.core import Query, Workload
from repro.engine import PartitionAtATimeExecutor, ScanExecutor
from repro.layouts import BuildContext, ColumnLayout, IrregularLayout
from repro.storage.catalog import CatalogIndex
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
        with txn.manager.pin_snapshot(version) as view:
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
    meta = txn.meta
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
    return rng, table, TransactionalTable(built, table)


def commit_batches(txn, table, rng, n_batches, read=None, config=WriteWorkloadConfig()):
    """``n_batches`` seeded commits in lockstep with a shadow built from
    ``table``; reads the head after each through ``read``.  Returns the
    shadow and the versions."""
    shadow = ShadowTable(table)
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
        rng, table, txn = build(layout, engine, seed=21)
        shadow, versions = commit_batches(txn, table, rng, 6, read)
        assert txn.delta_state().tombstones
        state["head_reads"] = len(read.entries)
        for version in versions[1:-1]:
            with txn.manager.pin_snapshot(version) as view:
                assert view.index.tid_domain() < txn.n_tuples
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
    return rng, table, TransactionalTable(layout, table)


def partly_folded(txn) -> bool:
    """Whether some hidden tid still has a cell stored in one partition
    while the fold dropped another of its cells."""
    names = list(txn.schema.attribute_names)
    with txn.manager.pin_snapshot() as view:
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
        rng, table, txn = column_groups(48, 12_000, engine)
        config = WriteWorkloadConfig(max_delete_rows=60, max_update_rows=30)
        shadow, versions = commit_batches(txn, table, rng, 4, config=config)
        first = DeltaCompactor(txn, bytes_budget=128 * 1024).run()
        state.update(deferred=first.n_partitions_deferred, partly=partly_folded(txn))
        shadow.snapshot(first.version)
        for version in (first.version, versions[-1]):
            for query in queries(rng, txn, n=6):
                read(txn, shadow, query, version)

    entries = differential(scenario)
    assert state["deferred"] > 0 and state["partly"]
    assert any(entry[3] for entry in entries)
