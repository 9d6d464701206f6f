"""A layout migration over a grown table stores exactly the cells it retires.

On a :class:`~repro.txn.TransactionalTable` each commit's rows live in its
own commit partition, which no layout partition's boxes were fitted to.  A
migration's boxes, resolved over the whole table, would cover those rows
too and give their cells a second home; resolved over the rows its scope
stores (read from the store, less the rows the head hides), the new
partitions hold exactly the scope's cells of visible rows, and every cell
of the live set keeps one home.
"""

from __future__ import annotations

import numpy as np

from repro.adaptive import AdaptiveConfig, AdaptiveDaemon, AdvisorConfig
from repro.core import Query, TableSchema, Workload
from repro.layouts import BuildContext, IrregularLayout
from repro.storage import ColumnTable
from repro.testing import (
    ShadowTable,
    WriteWorkloadConfig,
    apply_random_batch,
    verify_against_shadow,
)
from repro.txn import DeltaCompactor, TransactionalTable


def cells(manager, pids):
    """The ``(tid, attribute)`` cells the partitions ``pids`` store, each
    as often as it is stored."""
    stored = []
    for info in map(manager.info, pids):
        for attrs, tids in zip(info.segment_attrs, info.segment_tids):
            stored.extend((tid, name) for name in attrs for tid in tids.tolist())
    return stored


def _committed(n_commits):
    """Seed 81: a 1 500 x 8 irregular layout under a transactional table
    with ``n_commits`` random batches committed and unfolded."""
    rng = np.random.default_rng(81)
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
    layout = IrregularLayout().build(
        table, train, BuildContext(file_segment_bytes=2 * 1024)
    )
    txn = TransactionalTable(layout, table)
    shadow = ShadowTable(table)
    for _ in range(n_commits):
        apply_random_batch(txn, shadow, rng, WriteWorkloadConfig())
        shadow.snapshot(txn.commit())
    return rng, train, layout, txn, shadow


def _drifted_cycle(layout, txn, train, before_cycle=lambda: None):
    """The window of a workload shifted to a7/a8, then ``before_cycle()``,
    then one daemon cycle."""
    meta = txn.meta
    daemon = AdaptiveDaemon(layout, AdaptiveConfig(
        window_size=32,
        advisor=AdvisorConfig(drift_threshold=0.2, drift_reset=0.1,
                              min_improvement=0.01, cooldown_queries=4),
        bytes_budget_per_cycle=1 << 30,
    ))
    try:
        for query in train.queries:
            layout.execute(query)
        for _ in range(16):
            layout.execute(Query.build(meta, ["a7", "a8"], {"a7": (0, 299)}))
            layout.execute(Query.build(meta, ["a7", "a8"], {"a8": (700, 999)}))
        before_cycle()
        return daemon.run_cycle()
    finally:
        daemon.detach()


def test_a_migration_over_unfolded_commits_stores_exactly_its_scope():
    rng, train, layout, txn, shadow = _committed(2)
    manager = txn.manager
    assert txn.n_tuples > 1_500  # the commits grew the table
    before = {pid: cells(manager, [pid]) for pid in manager.pids()}

    cycle = _drifted_cycle(layout, txn, train)
    assert cycle.fired, cycle.reason

    after = set(manager.pids())
    scope, added = before.keys() - after, after - before.keys()
    assert scope and added
    # A deleted row the scope still stores is not rewritten.
    scope_cells = [cell for pid in scope for cell in before[pid]]
    deleted = manager.deleted(np.array([tid for tid, _name in scope_cells]))
    assert deleted.any()
    assert sorted(cells(manager, added)) == sorted(
        cell for cell, gone in zip(scope_cells, deleted) if not gone
    )

    # One home per cell across the live set: every stored cell is counted
    # once, and each attribute's owner map addresses every one of them.
    live = cells(manager, after)
    assert len(live) == len(set(live))
    index = manager.catalog_index()
    for name in txn.schema.attribute_names:
        owners = index.owners(name)
        n_stored = sum(1 for _tid, attribute in live if attribute == name)
        assert int((owners.owner != owners.NO_OWNER).sum()) == n_stored

    shadow.snapshot(txn.current_version)
    assert verify_against_shadow(txn, shadow, rng) == []


def test_a_cycle_after_a_fold_of_the_whole_plan_says_why_it_skips():
    """A fold that rewrites every partition of the daemon's plan under
    fresh pids leaves no observed partition in the plan: the cycle skips
    and names that, not the rewrite budget."""
    _rng, train, layout, txn, _shadow = _committed(3)
    plan_pids = {partition.pid for partition in layout.plan}
    DeltaCompactor(txn).run()
    live = set(txn.manager.pids())
    assert not plan_pids & live
    cycle = _drifted_cycle(layout, txn, train)
    assert not cycle.fired and not cycle.aborted
    assert cycle.reason == (
        f"the window observed {len(live)} partitions and none of them is in "
        "the daemon's plan"
    )


def test_a_fold_after_the_window_leaves_the_cycle_no_live_scope():
    """The window observes the plan's partitions, then a fold retires every
    one of them: the cycle ranks only pids live at the head, so it skips
    and names the retired plan instead of migrating partitions the head no
    longer holds, and the catalog and the store stay as the fold left
    them."""
    _rng, train, layout, txn, _shadow = _committed(3)
    manager = txn.manager
    plan_pids = {partition.pid for partition in layout.plan}
    folded = {}

    def fold():
        DeltaCompactor(txn).run()
        folded.update(
            version=manager.catalog_version, pids=manager.pids(),
            keys=sorted(manager.store.keys()),
        )

    cycle = _drifted_cycle(layout, txn, train, before_cycle=fold)
    assert not plan_pids & set(folded["pids"])
    assert not cycle.fired and not cycle.aborted
    assert cycle.reason.startswith(
        f"the window observed {len(plan_pids)} partitions of the daemon's "
        "plan and a later commit retired every one of them"
    )
    assert str(sorted(plan_pids)) in cycle.reason
    assert manager.catalog_version == folded["version"]
    assert manager.pids() == folded["pids"]
    assert sorted(manager.store.keys()) == folded["keys"]
