"""Compaction: budget packing, the WAL checkpoint, and cache coherence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Workload
from repro.core.query import Query
from repro.engine import ScanExecutor
from repro.engine.parallel import ThreadedPartitionEngine
from repro.errors import TransactionError
from repro.layouts import BuildContext, IrregularLayout
from repro.serve import PartitionCache
from repro.testing import (
    ShadowTable,
    WriteWorkloadConfig,
    apply_random_batch,
    random_table,
    verify_against_shadow,
)
from repro.txn import DeltaCompactor, TransactionalTable

from .conftest import build_txn_table, referenced_keys


def run_batches(txn, rng, n_batches=4):
    shadow = ShadowTable(txn.data)
    shadow.snapshot(txn.current_version)
    config = WriteWorkloadConfig()
    for _ in range(n_batches):
        apply_random_batch(txn, shadow, rng, config)
        shadow.snapshot(txn.commit())
    return shadow


class TestCompactionCorrectness:
    def test_every_version_oracle_exact_after_run_until_clean(self):
        _table, _layout, txn = build_txn_table(seed=41)
        rng = np.random.default_rng(41)
        shadow = run_batches(txn, rng)
        reports = DeltaCompactor(txn, verify=True).run_until_clean()
        assert reports and not reports[-1].is_empty
        state = txn.delta_state()
        assert not state.segments and not state.tombstones
        assert verify_against_shadow(txn, shadow, rng) == []

    def test_pure_tombstone_state_compacts_to_removal(self):
        _table, _layout, txn = build_txn_table(seed=42)
        txn.delete(tids=list(range(0, 10)))
        txn.commit()
        report = DeltaCompactor(txn, verify=True).run()
        assert report.n_segments_folded == 0
        assert report.n_tombstones_removed == 10
        assert report.n_tuples_dropped == 10
        state = txn.delta_state()
        assert not state.segments and not state.tombstones

    def test_rejects_nonpositive_budget(self):
        _table, _layout, txn = build_txn_table(seed=43)
        with pytest.raises(TransactionError):
            DeltaCompactor(txn, bytes_budget=0)


class TestBudget:
    def test_small_budget_defers_and_converges(self):
        _table, _layout, txn = build_txn_table(seed=44)
        rng = np.random.default_rng(44)
        run_batches(txn, rng)
        state = txn.delta_state()
        assert state.segments and state.tombstones
        # One unit of work per pass: big enough for the largest single
        # segment or dirty partition, too small for everything at once.
        unit = max(
            max(s.n_bytes for s in state.segments),
            max(
                txn.manager.info(pid).n_bytes
                for pid in txn.manager.pids()
            ),
        )
        compactor = DeltaCompactor(txn, bytes_budget=unit, verify=True)
        first = compactor.run()
        assert first.n_segments_deferred + first.n_partitions_deferred > 0
        mid = txn.delta_state()
        assert mid.segments or mid.tombstones  # work left behind
        reports = [first] + compactor.run_until_clean()
        state = txn.delta_state()
        assert not state.segments and not state.tombstones
        assert len(reports) > 1
        assert sum(r.n_segments_folded for r in reports) >= 1

    def test_undersized_budget_makes_no_progress_and_stops(self):
        _table, _layout, txn = build_txn_table(seed=45)
        rng = np.random.default_rng(45)
        run_batches(txn, rng, n_batches=2)
        compactor = DeltaCompactor(txn, bytes_budget=1, verify=True)
        reports = compactor.run_until_clean(max_passes=4)
        assert reports == []  # first pass is an is_empty no-op report
        state = txn.delta_state()
        assert state.segments or state.tombstones


class TestNoOrphanBlobs:
    """After commits, a fold and ``prune_retired()`` the blob store holds
    the live partitions (sketches ride in their trailers) and the WAL tail —
    nothing a fold left behind, however many folds ran."""

    @staticmethod
    def live_keys(txn):
        manager = txn.manager
        keys = {manager.info(pid).key for pid in manager.pids()}
        return keys | set(txn.wal.batch_keys())

    @pytest.mark.parametrize("budgeted", [False, True],
                             ids=["unbudgeted", "budgeted"])
    def test_fold_and_prune_leave_only_live_partitions(self, budgeted):
        _table, _layout, txn = build_txn_table(seed=51)
        manager = txn.manager
        rng = np.random.default_rng(51)
        for _fold in range(2):
            run_batches(txn, rng)
            budget = max(
                manager.info(pid).n_bytes for pid in manager.pids()
            ) if budgeted else None
            reports = DeltaCompactor(
                txn, bytes_budget=budget, verify=True
            ).run_until_clean()
            assert (len(reports) > 1) == budgeted
            state = txn.delta_state()
            assert not state.segments and not state.tombstones
            manager.prune_retired()
            assert manager.retired_pids() == ()
            assert set(manager.store.keys()) == self.live_keys(txn)

    def test_pinned_snapshot_keeps_retired_blobs_until_released(self):
        _table, _layout, txn = build_txn_table(seed=52)
        manager = txn.manager
        rng = np.random.default_rng(52)
        shadow = run_batches(txn, rng)
        hold = txn.pin()
        report = DeltaCompactor(txn, verify=True).run()
        shadow.snapshot(report.version)
        manager.prune_retired()
        retired = {manager.info(pid).key for pid in manager.retired_pids()}
        assert retired  # the pin still reads them
        assert set(manager.store.keys()) == self.live_keys(txn) | retired
        assert set(manager.store.keys()) == referenced_keys(txn)
        assert verify_against_shadow(
            txn, shadow, rng, versions=(hold.version, report.version)
        ) == []
        hold.release()
        manager.prune_retired()
        assert set(manager.store.keys()) == self.live_keys(txn)


def build_column_group_table(seed, n_tuples, engine=None):
    """An irregular layout whose tuples each span several partitions: three
    trained templates over disjoint attribute groups."""
    rng = np.random.default_rng(seed)
    table = random_table(rng, n_attrs=12, n_tuples=n_tuples)
    meta = table.meta
    names = list(table.schema.attribute_names)
    train = Workload(meta, [
        Query.build(meta, names[0:4], {names[0]: (100, 300)}, label="t0"),
        Query.build(meta, names[4:8], {names[4]: (500, 700)}, label="t1"),
        Query.build(meta, names[8:12], {names[8]: (0, 200)}, label="t2"),
    ])
    layout = IrregularLayout().build(
        table, train, BuildContext(file_segment_bytes=128 * 1024)
    )
    if engine is not None:
        layout.executor = engine(layout.manager, meta)
    manager = layout.manager
    assert len({manager.info(pid).attributes for pid in manager.pids()}) >= 3
    return rng, TransactionalTable(layout, table)


class TestBudgetedFoldAcrossColumnGroups:
    """A budgeted pass rewrites only *some* of the partitions holding a
    deleted tuple.  Reads after every partial pass must match the shadow —
    neither a "partitioning does not cover the table" raise (the tuple
    passes the predicate in a deferred partition, its projected cells were
    in a rewritten one) nor the deleted row (its tombstone retired while a
    deferred partition still held it)."""

    @pytest.mark.parametrize(
        "engine, n_tuples, budget",
        [
            (None, 40_000, 1 << 20),
            (ScanExecutor, 40_000, 1 << 20),
            (
                lambda manager, meta: ThreadedPartitionEngine(
                    manager, meta, n_threads=2
                ),
                1_500, 40_000,
            ),
        ],
        ids=["partition-at-a-time", "scan", "threaded"],
    )
    def test_every_partial_pass_is_oracle_exact(self, engine, n_tuples, budget):
        rng, txn = build_column_group_table(48, n_tuples, engine)
        shadow = run_batches(txn, rng)
        assert txn.delta_state().tombstones
        compactor = DeltaCompactor(txn, bytes_budget=budget, verify=True)
        first = compactor.run()
        assert first.n_partitions_deferred > 0  # a partial pass
        assert txn.delta_state().tombstones  # ... that keeps what it must
        shadow.snapshot(first.version)
        assert verify_against_shadow(
            txn, shadow, rng, versions=(first.version,)
        ) == []
        for report in compactor.run_until_clean():
            shadow.snapshot(report.version)
        state = txn.delta_state()
        assert not state.segments and not state.tombstones
        # Every version, so also the state each later partial pass left.
        assert verify_against_shadow(txn, shadow, rng) == []


class TestWalCheckpoint:
    def test_wal_truncates_only_when_state_is_clean(self):
        _table, _layout, txn = build_txn_table(seed=46)
        rng = np.random.default_rng(46)
        run_batches(txn, rng)
        state = txn.delta_state()
        assert len(state.segments) > 1
        # A budget that folds some-but-not-all: no checkpoint yet.
        unit = max(
            max(s.n_bytes for s in state.segments),
            max(
                txn.manager.info(pid).n_bytes
                for pid in txn.manager.pids()
            ),
        )
        compactor = DeltaCompactor(txn, bytes_budget=unit, verify=True)
        first = compactor.run()
        assert not first.wal_truncated
        assert txn.wal.replay() != []
        reports = compactor.run_until_clean()
        assert reports[-1].wal_truncated
        assert txn.wal.replay() == []


class TestCacheCoherence:
    def test_mid_replay_compaction_never_serves_stale_verdict(self):
        """The regression from the issue: an ``AS OF`` replay pinned before
        a compaction must keep hitting its snapshot-version entries, while
        live plans after the swap can never reuse pre-swap verdicts."""
        table, layout, txn = build_txn_table(seed=47)
        planner = layout.executor.planner
        cache = PartitionCache(txn.manager)
        planner.partition_cache = cache
        names = list(table.schema.attribute_names)
        meta = txn.data.meta
        query = Query.build(meta, names, {"a1": (200, 800)}, label="hot")

        v0 = txn.current_version
        hold = txn.pin(v0)
        pinned_first, _ = txn.execute(query, as_of=v0)
        assert cache.stats.n_records >= 1

        rng = np.random.default_rng(47)
        shadow = run_batches(txn, rng, n_batches=1)
        live_before, _ = txn.execute(query)  # records under version v1

        # More writes, then the compaction swap bumps the catalog.
        run_batches(txn, rng, n_batches=1)
        report = DeltaCompactor(txn, verify=True).run()
        assert not report.is_empty
        assert cache.stats.n_invalidated > 0  # unpinned tokens purged

        # Live read after the swap: fresh verdicts, dense-reference exact.
        live_after, _ = txn.execute(query)
        visible = txn._visible_mask(txn.current_version)
        a1 = txn.data.column("a1")
        expected = np.nonzero(visible & (a1 >= 200) & (a1 <= 800))[0]
        assert np.array_equal(live_after.tuple_ids, expected)

        # Pinned replay still hits its own version and is byte-identical.
        hits_before = cache.stats.n_hits
        pinned_again, _ = txn.execute(query, as_of=v0)
        assert cache.stats.n_hits > hits_before
        assert np.array_equal(
            pinned_again.tuple_ids, pinned_first.tuple_ids
        )
        for name in names:
            assert np.array_equal(
                pinned_again.columns[name], pinned_first.columns[name]
            )
        hold.release()
