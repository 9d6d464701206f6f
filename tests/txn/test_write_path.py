"""Shadow-oracle write workloads: engines x layouts, faults, crash replay."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.query import Query
from repro.engine.parallel import ThreadedPartitionEngine
from repro.adaptive import AdaptiveConfig, AdaptiveDaemon, AdvisorConfig
from repro.core import TableSchema, Workload
from repro.errors import PartitionUnreadableError, TransactionError
from repro.layouts import BuildContext, ColumnLayout, IrregularLayout
from repro.storage import ColumnTable, FaultConfig
from repro.testing import (
    ShadowTable,
    WriteWorkloadConfig,
    apply_random_batch,
    random_table,
    random_workload,
    verify_against_shadow,
)
from repro.testing.oracle import inject_faults
from repro.txn import DeltaCompactor, TransactionalTable

from .conftest import script_store

CONFIG = WriteWorkloadConfig(n_batches=5)

LAYOUTS = [
    ("irregular", lambda: IrregularLayout(selection_enabled=False)),
    ("column", ColumnLayout),
]


#: every driver a dirty read can run under: (builder, threaded strategy).
BUILDERS = dict(LAYOUTS)
DRIVERS = {
    "partition_at_a_time": (BUILDERS["irregular"], None),
    "scan": (BUILDERS["column"], None),
    "jigsaw-l": (BUILDERS["irregular"], "locking"),
    "jigsaw-s": (BUILDERS["irregular"], "shared"),
}


def build(
    seed,
    builder=None,
    wal_enabled=True,
    fault_config=None,
    threaded=False,
    n_tuples=250,
    pool_bytes=0,
    scripted=False,
):
    """``threaded``: True, or the threaded engine's strategy name;
    ``scripted`` puts a counting :class:`ScriptedStore` under everything."""
    rng = np.random.default_rng(seed)
    table = random_table(rng, n_attrs=3, n_tuples=n_tuples)
    train = random_workload(rng, table, 4)
    make = builder or (lambda: IrregularLayout(selection_enabled=False))
    layout = make().build(
        table, train,
        BuildContext(file_segment_bytes=2048, buffer_pool_bytes=pool_bytes),
    )
    if threaded:
        layout.executor = ThreadedPartitionEngine(
            layout.manager, table.meta, n_threads=2,
            strategy=None if threaded is True else threaded,
        )
    if scripted:
        script_store(layout)
    if fault_config is not None:
        # Wrap BEFORE the transactional table so the WAL (and the commit
        # partitions) write through the faulting store too.
        inject_faults(layout, config=fault_config, seed=seed)
    txn = TransactionalTable(layout, table, wal_enabled=wal_enabled)
    return rng, table, layout, txn


def run_workload(txn, rng, config=CONFIG, compact_at=None):
    """Seeded batches with commits; optional mid-stream compaction.

    Returns the shadow with one visibility snapshot per committed version.
    """
    shadow = ShadowTable(txn.data)
    shadow.snapshot(txn.current_version)
    for batch in range(config.n_batches):
        apply_random_batch(txn, shadow, rng, config)
        version = txn.commit()
        shadow.snapshot(version)
        if compact_at is not None and batch == compact_at:
            DeltaCompactor(txn, verify=True).run()
    return shadow


class TestWorkloadOracle:
    @pytest.mark.parametrize(
        "builder", [make for _, make in LAYOUTS],
        ids=[name for name, _ in LAYOUTS],
    )
    def test_snapshot_reads_oracle_exact_every_version(self, builder):
        rng, _table, _layout, txn = build(21, builder=builder)
        shadow = run_workload(txn, rng, compact_at=2)
        mismatches = verify_against_shadow(txn, shadow, rng)
        assert mismatches == []

    def test_threaded_engine_sees_identical_merged_reads(self):
        rng, _table, _layout, txn = build(22, threaded=True)
        shadow = run_workload(txn, rng, compact_at=1)
        mismatches = verify_against_shadow(txn, shadow, rng)
        assert mismatches == []

    def test_oracle_exact_under_storage_faults(self):
        """Transient faults + latency spikes under every read and write:
        the retry policy absorbs them and snapshots stay oracle-exact."""
        rng, _table, _layout, txn = build(
            23,
            fault_config=FaultConfig(
                transient_error_rate=0.05, latency_spike_rate=0.05,
                latency_spike_s=0.0,
            ),
        )
        shadow = run_workload(txn, rng, compact_at=2)
        mismatches = verify_against_shadow(txn, shadow, rng)
        assert mismatches == []

    def test_wal_off_workload_still_oracle_exact(self):
        rng, _table, _layout, txn = build(24, wal_enabled=False)
        shadow = run_workload(txn, rng)
        assert verify_against_shadow(txn, shadow, rng) == []
        with pytest.raises(TransactionError):
            txn.replay_wal()


@pytest.mark.parametrize("driver", list(DRIVERS))
class TestDirtyReadsAreOrdinaryReads:
    """A commit's rows are a partition, so a dirty read gets what every
    partition read gets — pruning, the buffer pool, retries, and a loud
    failure instead of a wrong answer — under every driver."""

    @staticmethod
    def dirty(driver, seed, **options):
        builder, strategy = DRIVERS[driver]
        rng, table, layout, txn = build(
            seed, builder=builder, threaded=strategy, **options
        )
        if "zone_maps" in layout.executor.options:
            layout.executor = layout.executor.clone(zone_maps=True)
        shadow = ShadowTable(txn.data)
        names = list(table.schema.attribute_names)
        # Far outside the base domain [0, 1000): one commit partition whose
        # zone map no in-domain predicate overlaps.
        rows = {
            name: np.arange(5_000, 5_020, dtype=np.int32) for name in names
        }
        txn.insert(rows)
        shadow.insert(rows)
        doomed = np.arange(0, 12, 3)
        txn.delete(tids=doomed)
        shadow.delete(doomed)
        shadow.snapshot(txn.commit())
        (segment,) = txn.delta_state().segments
        return txn, shadow, layout, names, segment

    def test_disjoint_commit_partition_is_pruned(self, driver):
        txn, shadow, layout, names, segment = self.dirty(driver, 71)
        meta = txn.data.meta
        inside = Query.build(meta, names, {names[0]: (0, 400)}, label="in")
        result, stats = txn.execute(inside)
        expected = shadow.query(inside, txn.current_version)
        assert np.array_equal(result.tuple_ids, expected.tuple_ids)
        outside = Query.build(
            meta, names, {names[0]: (5_000, 5_010)}, label="out"
        )
        hit, _ = txn.execute(outside)
        assert np.array_equal(hit.tuple_ids, segment.tuple_ids()[:11])
        for name in names:
            assert np.array_equal(
                hit.columns[name], np.arange(5_000, 5_011, dtype=np.int32)
            )
        if layout.executor.pruning:
            # Refuted by its catalog zone map like any other partition:
            # against the pre-commit version the same query prunes fewer
            # partitions and reads exactly as many.
            _, before = txn.execute(inside, as_of=txn.current_version - 1)
            assert stats.n_partitions_pruned > before.n_partitions_pruned
            assert stats.n_partition_reads == before.n_partition_reads

    def test_second_dirty_read_never_touches_the_store(self, driver):
        txn, shadow, layout, names, _segment = self.dirty(
            driver, 72, pool_bytes=1 << 22, scripted=True
        )
        store = txn.manager.store
        query = Query.build(
            txn.data.meta, names, {names[0]: (0, 6_000)}, label="warm"
        )
        first, _ = txn.execute(query)
        gets = store.n_gets
        assert gets > 0
        second, stats = txn.execute(query)
        assert store.n_gets == gets
        assert stats.n_pool_hits == stats.n_partition_reads > 0
        expected = shadow.query(query, txn.current_version)
        for result in (first, second):
            assert np.array_equal(result.tuple_ids, expected.tuple_ids)

    @pytest.mark.overwrites_blobs  # repairs the damaged blob by hand
    def test_corrupt_commit_partition_is_retried_then_raises(self, driver):
        txn, shadow, layout, names, segment = self.dirty(
            driver, 73, scripted=True
        )
        store = txn.manager.store
        query = Query.build(
            txn.data.meta, names, {names[0]: (0, 6_000)}, label="all"
        )
        pristine = store.flip_bit(segment.key)
        gets = store.n_gets
        # The only copy of its rows: no degraded substitute exists, and a
        # result without them would be a wrong answer.
        with pytest.raises(PartitionUnreadableError):
            txn.execute(query)
        attempts = txn.manager.retry_policy.max_attempts
        assert attempts > 1 and store.n_gets - gets >= attempts
        store.put(segment.key, pristine)
        result, _ = txn.execute(query)
        expected = shadow.query(query, txn.current_version)
        assert np.array_equal(result.tuple_ids, expected.tuple_ids)
        for name in names:
            assert np.array_equal(result.columns[name], expected.columns[name])


@pytest.mark.parametrize(
    "strategy", [None, "locking", "shared"],
    ids=["partition_at_a_time", "jigsaw-l", "jigsaw-s"],
)
def test_as_of_exact_across_commits_a_migration_and_a_fold(strategy):
    """Commit partitions, an ``AdaptiveDaemon`` migration (its boxes absorb
    committed rows, so their cells then live in two partitions) and a fold
    all move catalog partitions with ``swap_partitions``; every version any
    of them minted stays oracle-exact ``AS OF``."""
    rng = np.random.default_rng(81)
    schema = TableSchema.uniform([f"a{i}" for i in range(1, 9)])
    names = list(schema.attribute_names)
    table = ColumnTable.build("T", schema, {
        name: rng.integers(0, 1_000, 1_500).astype(np.int32)
        for name in names
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
    if strategy is not None:
        layout.executor = ThreadedPartitionEngine(
            layout.manager, meta, n_threads=2, strategy=strategy
        )
    txn = TransactionalTable(layout, table)
    shadow = ShadowTable(txn.data)
    shadow.snapshot(txn.current_version)
    hold = txn.pin()  # keeps every version below pinnable through the prunes
    config = WriteWorkloadConfig()

    def commits(n):
        for _ in range(n):
            apply_random_batch(txn, shadow, rng, config)
            shadow.snapshot(txn.commit())

    commits(2)
    daemon = AdaptiveDaemon(layout, txn.data, AdaptiveConfig(
        window_size=32,
        advisor=AdvisorConfig(drift_threshold=0.2, drift_reset=0.1,
                              min_improvement=0.01, cooldown_queries=4),
        bytes_budget_per_cycle=1 << 30,
    ))
    shifted = [
        Query.build(meta, ["a7", "a8"], {"a7": (0, 299)}, label="S1"),
        Query.build(meta, ["a7", "a8"], {"a8": (700, 999)}, label="S2"),
    ]
    for query in train.queries:
        layout.execute(query)
    for _ in range(16):
        for query in shifted:
            layout.execute(query)
    cycle = daemon.run_cycle()
    assert cycle.fired, cycle.reason
    daemon.detach()
    shadow.snapshot(txn.current_version)
    commits(2)
    report = DeltaCompactor(txn, verify=True).run()
    assert report.scope_pids
    shadow.snapshot(report.version)
    commits(1)
    txn.manager.prune_retired()
    assert len(shadow.history) == 8
    assert verify_against_shadow(txn, shadow, rng) == []
    hold.release()


class TestOneFlightRecordPerRequest:
    """With a recorder installed, each user request on the write path — a
    dirty read, a commit, a fold — is exactly one record."""

    @pytest.fixture()
    def recorder(self):
        from repro import obs

        recorder = obs.install_flight_recorder(obs.FlightRecorder())
        yield recorder
        obs.uninstall_flight_recorder()

    @staticmethod
    def dirty_table():
        rng, table, layout, txn = build(31)
        shadow = ShadowTable(txn.data)
        apply_random_batch(txn, shadow, rng, CONFIG)
        return rng, shadow, table, layout, txn

    def test_commit_dirty_read_and_fold(self, recorder):
        _rng, _shadow, table, layout, txn = self.dirty_table()
        version = txn.commit()
        (commit,) = recorder.records()
        assert commit.engine == "txn.commit" and commit.outcome == "ok"
        assert commit.catalog_version == version
        assert commit.table == layout.manager.key_prefix
        # the WAL's group commit is the commit's one leaf; applying the
        # batch is the residual
        (leaf,) = commit.leaves
        assert leaf["engine"] == "wal.commit"
        assert leaf["wall_s"] == txn.wal.stats.last_commit_latency_s
        assert leaf["wall_s"] + commit.unattributed_s == commit.wall_time_s

        assert txn.delta_state().segments  # dirty
        names = list(table.schema.attribute_names)
        _result, stats = txn.execute(Query.build(txn.data.meta, names, {}))
        (_, read) = recorder.records()
        assert read.engine == layout.executor.name
        assert read.bytes_read == stats.bytes_read
        assert read.catalog_version == version
        assert [leaf["engine"] for leaf in read.leaves] == [read.engine]

        report = DeltaCompactor(txn, verify=True).run()
        (_, _, fold) = recorder.records()
        assert fold.engine == "txn.compaction"
        assert fold.catalog_version == report.version

    def test_record_carries_the_version_it_read(self, recorder):
        """``AS OF v`` is stamped v — not whatever the catalog reached by the
        time the read completed."""
        rng, shadow, table, _layout, txn = self.dirty_table()
        first = txn.commit()
        for _ in range(2):
            apply_random_batch(txn, shadow, rng, CONFIG)
            txn.commit()
        assert txn.current_version == first + 2
        names = list(table.schema.attribute_names)
        txn.execute(Query.build(txn.data.meta, names, {}), as_of=first)
        assert recorder.records()[-1].catalog_version == first


class TestCrashReplay:
    def _copy_wal(self, source, target):
        for key in source.wal.batch_keys():
            target.manager.store.put(key, source.wal.store.get(key))

    def test_replay_recovers_all_committed_batches(self):
        rng, _t1, _l1, txn1 = build(31)
        shadow = run_workload(txn1, rng)
        # "Crash": a second, identically seeded process comes up with only
        # the base files and the durable WAL blobs.
        _rng2, _t2, _l2, txn2 = build(31)
        self._copy_wal(txn1, txn2)
        applied = txn2.replay_wal()
        assert applied == txn1._applied_lsn
        final = max(shadow.history)
        names = list(shadow.schema.attribute_names)
        full = Query.build(txn2.data.meta, names, {}, label="recovered")
        result, _ = txn2.execute(full)
        expected_tids = np.nonzero(shadow.mask_at(final))[0]
        assert np.array_equal(result.tuple_ids, expected_tids)
        for name in names:
            assert np.array_equal(
                result.columns[name], shadow.columns[name][expected_tids]
            )

    def test_torn_tail_recovers_to_previous_commit(self):
        rng, _t1, _l1, txn1 = build(32)
        shadow = run_workload(txn1, rng)
        versions = sorted(shadow.history)
        _rng2, _t2, _l2, txn2 = build(32)
        self._copy_wal(txn1, txn2)
        # Tear the last group commit mid-record.
        last_key = txn1.wal.batch_keys()[-1]
        blob = txn1.wal.store.get(last_key)
        txn2.manager.store.put(last_key, blob[: len(blob) // 2])
        txn2.replay_wal()
        durable = versions[-2]  # every batch is one commit = one version
        names = list(shadow.schema.attribute_names)
        full = Query.build(txn2.data.meta, names, {}, label="torn")
        result, _ = txn2.execute(full)
        expected_tids = np.nonzero(shadow.mask_at(durable))[0]
        assert np.array_equal(result.tuple_ids, expected_tids)
        for name in names:
            assert np.array_equal(
                result.columns[name], shadow.columns[name][expected_tids]
            )

    def test_replay_is_idempotent_on_a_live_table(self):
        rng, _t1, _l1, txn1 = build(33)
        run_workload(txn1, rng)
        before = txn1.current_version
        assert txn1.replay_wal() == 0  # nothing beyond the applied LSN
        assert txn1.current_version == before


class TestDeltaMergeProperty:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 9999))
    def test_merged_scan_equals_eager_materialization(self, seed):
        """Property: for any seeded write history, the delta-merged scan of
        every retained version is byte-for-byte the dense numpy shadow."""
        config = WriteWorkloadConfig(n_batches=3, max_ops=2,
                                     max_insert_rows=12)
        rng, _table, _layout, txn = build(seed, n_tuples=120)
        shadow = run_workload(txn, rng, config=config, compact_at=1)
        mismatches = verify_against_shadow(txn, shadow, rng, n_queries=1)
        assert mismatches == []
