"""A blob put that fails — any put, of any operation — aborts the operation.

First slice of "crash at any blob put": the failing put raises (the process
survives), and the operation must leave the table answering exactly as
before, the store free of blobs nothing references, and a plain retry of
the operation succeeding.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StorageError
from repro.testing import (
    ShadowTable,
    WriteWorkloadConfig,
    apply_random_batch,
    random_rows,
    verify_against_shadow,
)
from repro.txn import DeltaCompactor, TransactionalTable

from .conftest import build_txn_table, referenced_keys, script_store
from .test_compaction import build_column_group_table


def mixed_batch(txn, shadow, rng):
    """Inserts + an update + a delete in one batch."""
    rows = random_rows(rng, shadow, 12, 1_000)
    txn.insert(rows)
    shadow.insert(rows)
    visible = np.nonzero(shadow.visible[: txn.data.n_tuples])[0]
    picked = rng.choice(visible, size=6, replace=False)
    name = shadow.schema.attribute_names[0]
    txn.update({name: 7}, tids=np.sort(picked[:3]))
    shadow.update({name: 7}, np.sort(picked[:3]))
    txn.delete(tids=picked[3:])
    shadow.delete(picked[3:])


def delete_only_batch(txn, shadow, rng):
    visible = np.nonzero(shadow.visible[: txn.data.n_tuples])[0]
    doomed = rng.choice(visible, size=5, replace=False)
    txn.delete(tids=doomed)
    shadow.delete(doomed)


def random_batches(txn, shadow, rng):
    """Several whole commits (the PR 14 script's write history)."""
    config = WriteWorkloadConfig()
    for _ in range(3):
        apply_random_batch(txn, shadow, rng, config)
        shadow.snapshot(txn.commit())
    apply_random_batch(txn, shadow, rng, config)


def commit(txn):
    txn.commit()


def fold(budget):
    def run(txn):
        report = DeltaCompactor(txn, bytes_budget=budget, verify=True).run()
        assert not report.is_empty
        if budget is not None:
            assert report.n_partitions_deferred > 0  # a partial pass
    return run


def small_table():
    _table, _layout, txn = build_txn_table(seed=61, n_tuples=900)
    return txn


def column_group_table():
    """The PR 14 budgeted-fold table: every tuple's cells span three
    partitions, so a budgeted pass rewrites some holders of a deleted tuple
    and defers others — the tombstone must outlive the pass."""
    _rng, txn = build_column_group_table(48, 1_500)
    return txn


#: (name, table factory, [(stage, act), ...]): ``stage`` buffers writes on
#: table and shadow, ``act`` is the operation whose puts fail.
SCRIPTS = [
    (
        "commits-and-folds",
        small_table,
        [
            (mixed_batch, commit),
            (delete_only_batch, commit),
            (mixed_batch, commit),
            (None, fold(10_000)),
            (None, fold(None)),
        ],
    ),
    (
        "pr14-budgeted-fold",
        column_group_table,
        [
            (random_batches, commit),
            (None, fold(40_000)),
            (None, fold(None)),
        ],
    ),
]


def play(make_table, steps, fail_step, fail_put):
    """Run ``steps`` on a fresh table; the ``fail_put``-th put of step
    ``fail_step`` fails, the table is checked, and the step is retried.
    Returns whether that put was ever reached."""
    built = make_table()  # only its layout and data: the store comes first
    store = script_store(built.layout)
    txn = TransactionalTable(built.layout, built.data)
    shadow = ShadowTable(txn.data)
    shadow.snapshot(txn.current_version)
    rng = np.random.default_rng(5)
    reached = False
    for index, (stage, act) in enumerate(steps):
        if stage is not None:
            stage(txn, shadow, rng)
        staged = txn.pending_count()
        logged = len(txn.wal.replay())
        if index == fail_step:
            before = txn.current_version
            store.fail_put(fail_put)
            try:
                act(txn)
            except StorageError:
                reached = True
                store.fail_put(None)
                assert txn.current_version == before
                assert verify_against_shadow(txn, shadow, rng) == []
                assert set(store.keys()) == referenced_keys(txn)
                act(txn)  # the retry
            store.fail_put(None)
        else:
            act(txn)
        if staged:  # a commit: the log holds the batch, once, in sequence
            assert len(txn.wal.replay()) == logged + staged
        shadow.snapshot(txn.current_version)
        assert verify_against_shadow(txn, shadow, rng) == []
        assert set(store.keys()) == referenced_keys(txn)
    return reached


@pytest.mark.parametrize(
    "make_table, steps",
    [(make, steps) for _name, make, steps in SCRIPTS],
    ids=[name for name, _make, _steps in SCRIPTS],
)
def test_every_put_of_every_step_can_fail(make_table, steps):
    n_failures = 0
    for step in range(len(steps)):
        fail_put = 1
        while play(make_table, steps, step, fail_put):
            n_failures += 1
            fail_put += 1
        # Every step that writes at all was failed at least once.
        assert fail_put > 1
    assert n_failures >= len(steps)
