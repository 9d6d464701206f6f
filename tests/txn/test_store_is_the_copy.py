"""The stored partitions are the only copy of a transactional table.

Once a layout is built, nothing on the write path reads the build table: an
update's old rows, a predicate delete's targets, a fold's kept rows and a
migration's rows all come from the partitions the catalog names, through a
read that charges no query.  So a build table overwritten after the build
changes no answer (:class:`TestTheBuildTableIsNotRead`), those reads leave
the buffer pool, the simulated device and its OS cache as they were
(:class:`TestTheReadsChargeNothing`), and a rewrite whose scope cannot be
read fails without changing the catalog or the store
(:class:`TestAnUnreadableScope`).  A refused write leaves the batch
committable with the log on or off, and an empty insert commits without
storing anything (:class:`TestWritesThatStoreNothing`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive import AdaptiveConfig, AdaptiveDaemon, AdvisorConfig
from repro.core import Query, TableSchema, Workload
from repro.errors import StorageError, TransactionError
from repro.layouts import BuildContext, IrregularLayout
from repro.storage import ColumnTable, FaultConfig
from repro.testing import (
    ShadowTable,
    WriteWorkloadConfig,
    apply_random_batch,
    inject_faults,
    verify_against_shadow,
)
from repro.txn import DeltaCompactor, TransactionalTable

from .conftest import build_txn_table

#: what the build table holds once the layout is built.
SENTINEL = -7


def drifting(seed, buffer_pool_bytes=0, cache_bytes=0):
    """A 1 500 x 8 irregular layout trained on a1..a6 under a
    transactional table, and the a7/a8 queries a daemon migrates for."""
    rng = np.random.default_rng(seed)
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
    layout = IrregularLayout().build(table, train, BuildContext(
        file_segment_bytes=2 * 1024, buffer_pool_bytes=buffer_pool_bytes,
        cache_bytes=cache_bytes,
    ))
    shifted = [
        Query.build(meta, ["a7", "a8"], {"a7": (0, 299)}, label="S1"),
        Query.build(meta, ["a7", "a8"], {"a8": (700, 999)}, label="S2"),
    ]
    return rng, table, train, layout, shifted


def daemon_for(layout, **overrides):
    return AdaptiveDaemon(layout, AdaptiveConfig(
        window_size=32,
        advisor=AdvisorConfig(drift_threshold=0.2, drift_reset=0.1,
                              min_improvement=0.01, cooldown_queries=4),
        bytes_budget_per_cycle=1 << 30,
        **overrides,
    ))


def drift(layout, train, shifted):
    for query in train.queries:
        layout.execute(query)
    for _ in range(16):
        for query in shifted:
            layout.execute(query)


def commit(txn, shadow, rng, n=1):
    """``n`` seeded batches, each with a predicate delete, mirrored on the
    shadow and snapshotted at their versions."""
    for _ in range(n):
        committed = txn.n_tuples
        apply_random_batch(txn, shadow, rng, WriteWorkloadConfig())
        lo = int(rng.integers(0, 950))
        txn.delete(where={"a2": (lo, lo + 40)})
        shadow.delete_where({"a2": (lo, lo + 40)}, limit=committed)
        shadow.snapshot(txn.commit())


class TestTheBuildTableIsNotRead:
    def test_writes_folds_and_a_migration_over_a_sentinel_build_table(self):
        rng, table, train, layout, shifted = drifting(91)
        txn = TransactionalTable(layout, table)
        shadow = ShadowTable(table)  # a copy, taken before the overwrite
        shadow.snapshot(txn.current_version)
        for name in table.schema.attribute_names:
            table.column(name)[:] = SENTINEL
        # Pins the first version: every later one stays retained too.
        hold = txn.manager.pin_snapshot()

        def exact(stage):
            assert verify_against_shadow(txn, shadow, rng) == [], stage

        commit(txn, shadow, rng, n=3)
        exact("commits")
        budgeted = DeltaCompactor(txn, bytes_budget=8 * 1024).run()
        assert budgeted.scope_pids and budgeted.n_partitions_deferred
        shadow.snapshot(budgeted.version)
        exact("budgeted fold")

        commit(txn, shadow, rng)
        daemon = daemon_for(layout)
        try:
            drift(layout, train, shifted)
            cycle = daemon.run_cycle()
        finally:
            daemon.detach()
        assert cycle.fired, cycle.reason
        shadow.snapshot(txn.current_version)
        exact("migration")

        commit(txn, shadow, rng)
        unbudgeted = DeltaCompactor(txn).run()
        assert unbudgeted.scope_pids
        shadow.snapshot(unbudgeted.version)
        exact("unbudgeted fold")
        state = txn.delta_state()
        assert not state.segments and not state.tombstones
        hold.release()


def charges(manager):
    """What a read can move: pool counters, resident pids in LRU order,
    the device's counters and its simulated OS cache."""
    pool = manager.buffer_pool
    stats = pool.stats
    counters = (stats.n_hits, stats.n_misses, stats.n_evictions, stats.hit_bytes)
    return counters, pool.pids(), manager.device.snapshot(), manager.device.cached_bytes


class TestTheReadsChargeNothing:
    def test_an_update_a_predicate_delete_a_fold_and_a_migration(self):
        rng, table, train, layout, shifted = drifting(
            92, buffer_pool_bytes=1 << 20, cache_bytes=1 << 20
        )
        txn = TransactionalTable(layout, table)
        shadow = ShadowTable(table)
        commit(txn, shadow, rng, n=2)
        daemon = daemon_for(layout, auto_prune=False)
        try:
            drift(layout, train, shifted)  # warms the pool and the OS cache
            manager = txn.manager
            assert manager.buffer_pool.pids() and manager.device.cached_bytes

            def unmoved(act):
                live = set(manager.pids())
                counters, resident, device, cached = charges(manager)
                act()
                retired = live - set(manager.pids())
                assert charges(manager) == (
                    counters,
                    tuple(pid for pid in resident if pid not in retired),
                    device,
                    cached,
                )

            unmoved(lambda: txn.update({"a3": 5}, tids=np.arange(0, 400, 9)))
            unmoved(lambda: txn.delete(where={"a4": (100, 180)}))
            unmoved(txn.commit)
            cycle = []
            unmoved(lambda: cycle.append(daemon.run_cycle()))
            assert cycle[0].fired, cycle[0].reason
            unmoved(lambda: DeltaCompactor(txn).run())
        finally:
            daemon.detach()


class TestAnUnreadableScope:
    @staticmethod
    def unchanged(manager):
        return manager.catalog_version, manager.pids(), sorted(manager.store.keys())

    def test_a_fold_raises_and_changes_nothing(self):
        rng, table, _train, layout, _shifted = drifting(93)
        txn = TransactionalTable(layout, table)
        commit(txn, ShadowTable(table), rng, n=2)
        manager = txn.manager
        dead = np.sort(np.fromiter(txn.delta_state().tombstones, dtype=np.int64))
        dirty = next(
            pid for pid in manager.pids()
            if np.isin(manager.info(pid).tuple_ids(), dead).any()
        )
        inject_faults(layout, overrides={
            manager.info(dirty).key: FaultConfig(corruption_rate=1.0),
        })
        before, state = self.unchanged(manager), txn.delta_state()
        with pytest.raises(StorageError, match=f"partition {dirty} "):
            DeltaCompactor(txn).run()
        assert self.unchanged(manager) == before
        assert txn.delta_state() is state

    def test_a_migration_aborts_and_changes_nothing(self):
        rng, table, train, layout, shifted = drifting(94)
        txn = TransactionalTable(layout, table)
        commit(txn, ShadowTable(table), rng)
        daemon = daemon_for(layout)
        try:
            drift(layout, train, shifted)
            scope, _bytes = daemon._select_scope()
            manager = txn.manager
            inject_faults(layout, overrides={
                manager.info(scope[0]).key: FaultConfig(corruption_rate=1.0),
            })
            before = self.unchanged(manager)
            cycle = daemon.run_cycle()
        finally:
            daemon.detach()
        assert cycle.aborted and not cycle.fired
        assert f"partition {scope[0]} " in cycle.reason
        assert daemon.stats.n_aborted == 1
        assert self.unchanged(manager) == before


class TestWritesThatStoreNothing:
    @pytest.mark.parametrize("wal_enabled", [False, True], ids=["wal-off", "wal-on"])
    def test_a_payload_of_the_wrong_length_leaves_the_batch_committable(
        self, wal_enabled
    ):
        table, _layout, txn = build_txn_table(seed=95, wal_enabled=wal_enabled)
        shadow = ShadowTable(table)
        rng = np.random.default_rng(95)
        rows = {
            name: rng.integers(0, 1_000, 4).astype(np.int32)
            for name in table.schema.attribute_names
        }
        txn.insert(rows)
        shadow.insert(rows)
        with pytest.raises(TransactionError, match="for 3 tuples"):
            txn.update({"a1": np.array([1, 2])}, tids=[3, 4, 5])
        assert txn.pending_count() == 1
        more = {name: values[:2] for name, values in rows.items()}
        assert np.array_equal(txn.insert(more), shadow.insert(more))
        shadow.snapshot(txn.commit())
        assert verify_against_shadow(txn, shadow, rng) == []

    def test_an_empty_insert_commits_a_version_and_stores_nothing(self):
        table, _layout, txn = build_txn_table(seed=96)
        shadow = ShadowTable(table)
        pids, n_tuples = txn.manager.pids(), txn.n_tuples
        txn.insert({name: np.array([], np.int32) for name in table.schema.attribute_names})
        shadow.snapshot(txn.commit())
        assert txn.pending_count() == 0 and txn.n_tuples == n_tuples
        assert txn.manager.pids() == pids
        assert verify_against_shadow(txn, shadow, np.random.default_rng(96)) == []
