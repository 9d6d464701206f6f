"""MVCC snapshot pinning, retention, and read stability under churn."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive import AdaptiveConfig, AdaptiveDaemon, AdvisorConfig
from repro.core import TableSchema, Workload
from repro.core.query import Query
from repro.errors import SnapshotUnavailableError
from repro.layouts import BuildContext, IrregularLayout
from repro.storage import ColumnTable
from repro.txn import DeltaCompactor, TransactionalTable

from .conftest import build_txn_table


class TestPinning:
    def test_pin_defaults_to_current_version(self, txn_table):
        _table, _layout, txn = txn_table
        manager = txn.manager
        with manager.pin_snapshot() as snapshot:
            assert snapshot.version == manager.catalog_version
            assert manager.snapshot_refcount() == 1
        assert manager.snapshot_refcount() == 0

    def test_release_is_one_shot(self, txn_table):
        _table, _layout, txn = txn_table
        snapshot = txn.manager.pin_snapshot()
        snapshot.release()
        snapshot.release()  # second release is a no-op, not a double-decr
        assert txn.manager.snapshot_refcount() == 0

    def test_future_version_rejected(self, txn_table):
        _table, _layout, txn = txn_table
        with pytest.raises(SnapshotUnavailableError):
            txn.manager.pin_snapshot(txn.manager.catalog_version + 1)

    def test_snapshot_freezes_pid_set_across_swaps(self, txn_table):
        table, _layout, txn = txn_table
        manager = txn.manager
        snapshot = manager.pin_snapshot()
        before = set(snapshot.pids)
        rng = np.random.default_rng(0)
        tids = txn.insert({
            name: rng.integers(0, 1000, 10).astype(np.int32)
            for name in table.schema.attribute_names
        })
        txn.commit()
        txn.delete(tids=tids[:3])
        txn.commit()
        DeltaCompactor(txn, verify=True).run()
        assert set(snapshot.pids) == before
        assert set(manager.pids()) != before
        snapshot.release()

    def test_pruned_version_becomes_unpinnable(self, txn_table):
        table, _layout, txn = txn_table
        manager = txn.manager
        old_version = manager.catalog_version
        rng = np.random.default_rng(1)
        txn.delete(tids=[0, 1])
        txn.commit()
        DeltaCompactor(txn, verify=True).run()
        manager.prune_retired()
        assert manager.floor_version() > old_version
        with pytest.raises(SnapshotUnavailableError):
            manager.pin_snapshot(old_version)

    def test_prune_is_clamped_by_pins(self, txn_table):
        table, _layout, txn = txn_table
        manager = txn.manager
        snapshot = manager.pin_snapshot()
        txn.delete(tids=[0, 1])
        txn.commit()
        DeltaCompactor(txn, verify=True).run()
        manager.prune_retired()
        # The pinned version's partitions must still be servable.
        for pid in snapshot.pids:
            manager.info(pid)
        names = list(table.schema.attribute_names)
        query = Query.build(txn.data.meta, names, {}, label="pinned")
        result, _ = txn.execute(query, as_of=snapshot.version)
        assert result.n_tuples == 300
        snapshot.release()
        manager.prune_retired()
        with pytest.raises(SnapshotUnavailableError):
            manager.pin_snapshot(snapshot.version)


    def test_nothing_invisible_pins_without_a_mask(self, txn_table):
        """A version's visibility is one immutable mask; a table nothing
        was deleted from runs the read-only engines' exact path."""
        table, _layout, txn = txn_table
        names = list(table.schema.attribute_names)
        with txn.pin() as clean:
            assert clean.valid_mask is None
        first = txn.current_version
        txn.insert({name: np.arange(5, dtype=np.int32) for name in names})
        grown = txn.commit()
        with txn.pin() as still_clean, txn.pin(first) as older:
            assert still_clean.valid_mask is None
            # The older version ends below the grown tid domain.
            assert older.valid_mask is not None
            assert len(older.valid_mask) == 300 and older.valid_mask.all()
        txn.delete(tids=[4])
        txn.commit()
        with txn.pin() as dirty, txn.pin() as again, txn.pin(grown) as back:
            assert dirty.valid_mask is again.valid_mask  # built once
            assert not dirty.valid_mask[4] and dirty.valid_mask.sum() == 304
            assert back.valid_mask is None

    def test_states_below_the_floor_are_dropped(self, txn_table):
        _table, _layout, txn = txn_table
        for round_ in range(3):
            txn.delete(tids=[2 * round_, 2 * round_ + 1])
            txn.commit()
            DeltaCompactor(txn, verify=True).run()
            txn.manager.prune_retired()
            floor = txn.manager.floor_version()
            assert floor == txn.current_version
            assert txn.versions() == (floor,)
            # The newest state at or below the floor, and nothing older.
            assert len(txn._states) <= 3


class TestReadStability:
    def test_pinned_reads_identical_through_write_compact_migrate(self):
        """The acceptance bar: a query pinned to version V returns
        byte-identical results before, during, and after writes,
        compaction, and an adaptive-daemon migration."""
        rng = np.random.default_rng(11)
        schema = TableSchema.uniform([f"a{i}" for i in range(1, 9)])
        names = list(schema.attribute_names)
        table = ColumnTable.build("T", schema, {
            name: rng.integers(0, 10_000, 5_000).astype(np.int32)
            for name in names
        })
        meta = table.meta
        train = Workload(meta, [
            Query.build(meta, ["a2", "a3"], {"a1": (0, 1999)}, label="Q1"),
            Query.build(meta, ["a2", "a3"], {"a4": (5000, 9999)}, label="Q2"),
            Query.build(meta, ["a5"], {"a6": (4000, 4999)}, label="Q3"),
        ])
        layout = IrregularLayout().build(
            table, train, BuildContext(file_segment_bytes=8 * 1024)
        )
        txn = TransactionalTable(layout, table)
        version = txn.current_version
        # Hold a pin for the whole test: the daemon's auto_prune and the
        # compactor both retire partitions, and the pin is what keeps
        # version V servable through them.
        hold = txn.pin(version)
        queries = list(train.queries) + [
            Query.build(meta, names, {}, label="full")
        ]
        baseline = [txn.execute(q, as_of=version) for q in queries]

        def check(stage):
            for query, (expected, _stats) in zip(queries, baseline):
                result, _ = txn.execute(query, as_of=version)
                assert np.array_equal(
                    result.tuple_ids, expected.tuple_ids
                ), stage
                for name, values in expected.columns.items():
                    got = result.columns[name]
                    assert got.dtype == values.dtype, stage
                    assert np.array_equal(got, values), stage

        # Writes.
        tids = txn.insert({
            name: rng.integers(0, 10_000, 60).astype(np.int32)
            for name in names
        })
        txn.delete(tids=list(range(0, 25)))
        txn.commit()
        txn.update({"a1": 7}, tids=tids[:5].tolist())
        txn.commit()
        check("after writes")

        # Drift the workload onto attributes the layout was never tuned
        # for and let the adaptive daemon migrate the live catalog while
        # commit partitions and tombstones are still outstanding.
        daemon = AdaptiveDaemon(layout, txn.data, AdaptiveConfig(
            window_size=32,
            advisor=AdvisorConfig(drift_threshold=0.2, drift_reset=0.1,
                                  min_improvement=0.01, cooldown_queries=4),
            bytes_budget_per_cycle=1 << 30,
        ))
        shifted = [
            Query.build(meta, ["a7", "a8"], {"a7": (0, 2999)}, label="S1"),
            Query.build(meta, ["a7", "a8"], {"a8": (7000, 9999)}, label="S2"),
        ]
        for query in train.queries:
            layout.execute(query)
        for _ in range(16):
            for query in shifted:
                layout.execute(query)
        cycle = daemon.run_cycle()
        assert cycle.fired, cycle.reason
        check("after migration")

        # Current-version reads stay duplicate-free and complete even
        # though the migrated boxes absorbed committed rows whose cells
        # their commit partitions still hold too (the engines key results
        # by tid, so a cell stored twice is written twice, not returned
        # twice).
        def check_current(stage):
            visible = txn._visible_mask(txn.current_version)
            full = Query.build(txn.data.meta, names, {}, label="now")
            now, _ = txn.execute(full)
            assert np.array_equal(
                now.tuple_ids, np.nonzero(visible)[0]
            ), stage
            a7 = txn.data.column("a7")
            pred, _ = txn.execute(shifted[0])
            expected_tids = np.nonzero(visible & (a7 >= 0) & (a7 <= 2999))[0]
            assert np.array_equal(pred.tuple_ids, expected_tids), stage

        check_current("current reads after migration")

        # Fold the outstanding tombstones out of the migrated catalog.
        report = DeltaCompactor(txn, verify=True).run()
        assert not report.is_empty
        check("after compaction")
        check_current("current reads after compaction")

        # More writes on the migrated, compacted layout.
        txn.delete(tids=tids[10:15].tolist())
        txn.commit()
        check("after post-migration writes")
        hold.release()

    def test_as_of_matches_every_retained_version(self):
        table, _layout, txn = build_txn_table(seed=13)
        rng = np.random.default_rng(13)
        names = list(table.schema.attribute_names)
        expected_by_version = {}
        full = Query.build(table.meta, names, {}, label="full")
        expected_by_version[txn.current_version] = txn.execute(full)[0]
        for _ in range(4):
            txn.insert({
                name: rng.integers(0, 1000, 15).astype(np.int32)
                for name in names
            })
            visible = np.nonzero(
                txn._visible_mask(txn.current_version)
            )[0]
            txn.delete(tids=rng.choice(visible, 5, replace=False))
            version = txn.commit()
            expected_by_version[version] = txn.execute(full)[0]
        for version, expected in expected_by_version.items():
            result, _ = txn.execute(full, as_of=version)
            assert np.array_equal(result.tuple_ids, expected.tuple_ids)
            for name in names:
                assert np.array_equal(
                    result.columns[name], expected.columns[name]
                )

    def test_snapshot_refcount_gauge(self, txn_table):
        from repro import obs

        _table, _layout, txn = txn_table
        obs.enable(trace=False, metrics=True)
        try:
            s1 = txn.pin()
            s2 = txn.pin()
            obs.publish("txn", txn)
            registry = obs.get_registry()
            gauge = registry.gauge(
                "jigsaw_txn_snapshot_refcount",
                "Currently pinned MVCC snapshots",
            )
            assert gauge.value() == 2
            s1.release()
            s2.release()
            obs.publish("txn", txn)
            assert gauge.value() == 0
        finally:
            obs.disable()
