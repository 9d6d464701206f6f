"""Every way into a transactional table reads what ``txn.execute`` reads.

A version's deletions live in the catalog, so a view pinned by anyone — the
layout's engine, a served engine, a DAG leaf — hides them; nothing is
attached by the transactional layer on its own path only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TableSchema
from repro.core.query import Query
from repro.engine import PartitionAtATimeExecutor, ScanExecutor
from repro.layouts import BuildContext, IrregularLayout
from repro.plan.dag import Catalog, DagExecutor
from repro.serve import QueryScheduler
from repro.sql import parse_relational_statement
from repro.storage import ColumnTable
from repro.testing import random_workload
from repro.testing.writes import ShadowTable, random_rows
from repro.txn import DeltaCompactor

from .conftest import build_txn_table


@pytest.fixture()
def written():
    """A table after a delete-bearing commit, an insert commit and an
    unbudgeted fold, with its shadow and a view pinned after the delete."""
    table, _layout, txn = build_txn_table(seed=7)
    shadow = ShadowTable(table)
    shadow.snapshot(txn.current_version)
    rng = np.random.default_rng(7)
    doomed = np.sort(rng.choice(table.n_tuples, 50, replace=False))
    txn.delete(tids=doomed)
    shadow.delete(doomed)
    shadow.snapshot(txn.commit())
    early = txn.manager.pin_snapshot()
    rows = random_rows(rng, shadow, 40, 1_000)
    txn.insert(rows)
    shadow.insert(rows)
    shadow.snapshot(txn.commit())
    report = DeltaCompactor(txn).run()
    assert report.n_tuples_dropped
    shadow.snapshot(report.version)
    try:
        yield txn, shadow, early, rng
    finally:
        early.release()


def queries(txn, rng, n=4):
    meta = txn.meta
    names = list(meta.schema.attribute_names)
    out = [Query.build(meta, names, {}, label="full")]
    for i in range(n):
        name = names[i % len(names)]
        lo = int(rng.integers(0, 800))
        out.append(Query.build(meta, names[:2], {name: (lo, lo + 250)}, label=f"q{i}"))
    return out


def same(result, expected) -> bool:
    return result.equals(expected) and all(
        result.columns[name].dtype == expected.columns[name].dtype
        for name in expected.columns
    )


def test_layout_and_served_engines_read_the_head(written):
    txn, shadow, _early, rng = written
    head = txn.current_version
    meta = txn.meta
    engines = {
        "pat": PartitionAtATimeExecutor(txn.manager, meta),
        "scan": ScanExecutor(txn.manager, meta),
    }
    with QueryScheduler(engines, workers=2, queue_depth=8) as scheduler:
        for query in queries(txn, rng):
            expected = shadow.query(query, head)
            assert same(txn.execute(query)[0], expected), query.label
            assert same(txn.layout.execute(query)[0], expected), query.label
            for name in engines:
                served, _stats = scheduler.submit(name, query).wait(timeout=60)
                assert same(served, expected), (name, query.label)


def test_dag_leaves_read_the_head(written):
    txn, shadow, _early, rng = written
    head = txn.current_version
    visible = shadow.mask_at(head)
    dim = ColumnTable.build("dim", TableSchema.uniform(["d_key", "d_a"]), {
        "d_key": np.arange(0, 1_000, 3, dtype=np.int32),
        "d_a": rng.integers(0, 1_000, 334).astype(np.int32),
    })
    dim_layout = IrregularLayout().build(
        dim, random_workload(rng, dim, 2), BuildContext(file_segment_bytes=2048)
    )
    catalog = Catalog()
    catalog.bind(txn.layout)
    catalog.bind(dim_layout)
    dag = DagExecutor(catalog)
    name = txn.meta.name

    count = parse_relational_statement(catalog.metas(), f"SELECT COUNT(*) FROM {name}")
    result, _stats = dag.execute(count.query)
    assert result.column("count(*)").tolist() == [int(visible.sum())]

    join = parse_relational_statement(
        catalog.metas(), f"SELECT {name}.a2, dim.d_a FROM {name} JOIN dim ON a1 = d_key"
    )
    result, _stats = dag.execute(join.query)
    keys = shadow.columns["a1"]
    joined = np.flatnonzero(visible & (keys % 3 == 0))
    expected = sorted(zip(
        shadow.columns["a2"][joined].tolist(),
        dim.column("d_a")[keys[joined] // 3].tolist(),
    ))
    got = sorted(zip(
        result.column(f"{name}.a2").tolist(), result.column("dim.d_a").tolist()
    ))
    assert got == expected


def test_a_pinned_view_keeps_its_hidden_through_later_deletes(written):
    txn, shadow, early, rng = written
    before = early.hidden.copy()
    assert len(before) == 50
    visible = np.flatnonzero(shadow.mask_at(txn.current_version))
    doomed = rng.choice(visible, 20, replace=False)
    txn.delete(tids=doomed)
    shadow.delete(doomed)
    shadow.snapshot(txn.commit())
    shadow.snapshot(DeltaCompactor(txn).run().version)
    assert np.array_equal(early.hidden, before)
    for query in queries(txn, rng):
        result, _ = txn.layout.executor.execute(query, snapshot=early)
        assert same(result, shadow.query(query, early.version)), query.label
        assert same(txn.layout.execute(query)[0], shadow.query(query, txn.current_version))
