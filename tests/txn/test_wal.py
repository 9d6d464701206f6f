"""WAL unit tests and the crash-recovery hypothesis properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.schema import TableSchema
from repro.errors import TransactionError
from repro.storage import MemoryBlobStore
from repro.txn import (
    KIND_DELETE,
    KIND_INSERT,
    KIND_UPDATE,
    WriteAheadLog,
)

SCHEMA = TableSchema.uniform(["a1", "a2"])


def make_wal(store=None) -> WriteAheadLog:
    return WriteAheadLog(store or MemoryBlobStore(), SCHEMA)


def rows(rng, n):
    return {
        "a1": rng.integers(0, 100, n).astype(np.int32),
        "a2": rng.integers(0, 100, n).astype(np.int32),
    }


def records_equal(a, b) -> bool:
    if a.kind != b.kind or a.lsn != b.lsn:
        return False
    if not np.array_equal(a.tids, b.tids):
        return False
    if (a.old_tids is None) != (b.old_tids is None):
        return False
    if a.old_tids is not None and not np.array_equal(a.old_tids, b.old_tids):
        return False
    if (a.columns is None) != (b.columns is None):
        return False
    if a.columns is not None:
        for name in SCHEMA.attribute_names:
            if not np.array_equal(a.columns[name], b.columns[name]):
                return False
    return True


class TestWalBasics:
    def test_roundtrip_all_record_kinds(self):
        rng = np.random.default_rng(0)
        wal = make_wal()
        r1 = wal.append(KIND_INSERT, np.arange(5), rows(rng, 5))
        r2 = wal.append(KIND_DELETE, np.array([1, 3]))
        r3 = wal.append(
            KIND_UPDATE, np.array([5, 6]), rows(rng, 2),
            old_tids=np.array([0, 2]),
        )
        seq = wal.commit()
        assert seq == 1
        replayed = make_wal(wal.store).replay()
        assert len(replayed) == 3
        for original, recovered in zip((r1, r2, r3), replayed):
            assert records_equal(original, recovered)

    def test_empty_commit_writes_nothing(self):
        wal = make_wal()
        assert wal.commit() == -1
        assert list(wal.store.keys()) == []
        assert wal.stats.n_empty_commits == 1

    def test_stats_stay_bounded_with_metrics_off(self):
        """Nothing drains a per-commit list when metrics are off (the
        default), so the stats object must not keep one."""
        import sys

        def footprint(stats):
            return sum(
                sys.getsizeof(value) for value in vars(stats).values()
            )

        rng = np.random.default_rng(1)
        wal = make_wal()
        payload = rows(rng, 1)
        wal.append(KIND_INSERT, np.arange(1), payload)
        wal.commit()
        before = footprint(wal.stats)
        for i in range(5_000):
            wal.append(KIND_INSERT, np.arange(i, i + 1), payload)
            wal.commit()
        assert wal.stats.n_commits == 5_001
        assert footprint(wal.stats) == before

    def test_lsn_is_monotonic_across_batches(self):
        rng = np.random.default_rng(1)
        wal = make_wal()
        wal.append(KIND_INSERT, np.arange(2), rows(rng, 2))
        wal.commit()
        wal.append(KIND_DELETE, np.array([0]))
        wal.commit()
        lsns = [r.lsn for r in wal.replay()]
        assert lsns == sorted(lsns) == list(range(1, 3))

    def test_discard_pending_is_rollback(self):
        rng = np.random.default_rng(2)
        wal = make_wal()
        wal.append(KIND_INSERT, np.arange(3), rows(rng, 3))
        assert wal.discard_pending() == 1
        assert wal.commit() == -1
        assert wal.replay() == []

    def test_append_validates_payloads(self):
        wal = make_wal()
        with pytest.raises(TransactionError):
            wal.append(KIND_INSERT, np.arange(3))  # no rows
        with pytest.raises(TransactionError):
            wal.append(KIND_UPDATE, np.arange(1),
                       {"a1": np.zeros(1, np.int32),
                        "a2": np.zeros(1, np.int32)})  # no old_tids
        with pytest.raises(TransactionError):
            wal.append("upsert", np.arange(1))

    def test_truncate_through_drops_applied_batches(self):
        rng = np.random.default_rng(3)
        wal = make_wal()
        wal.append(KIND_INSERT, np.arange(2), rows(rng, 2))
        wal.commit()
        wal.append(KIND_DELETE, np.array([0]))
        wal.commit()
        assert wal.truncate_through(1) == 1
        remaining = wal.replay()
        assert [r.lsn for r in remaining] == [2]

    def test_new_log_over_existing_store_continues_sequence(self):
        rng = np.random.default_rng(4)
        wal = make_wal()
        wal.append(KIND_INSERT, np.arange(2), rows(rng, 2))
        wal.commit()
        fresh = make_wal(wal.store)
        fresh.replay()
        fresh.append(KIND_DELETE, np.array([1]))
        seq = fresh.commit()
        assert seq == 2
        assert [r.lsn for r in make_wal(wal.store).replay()] == [1, 2]


class TestWalCrashRecovery:
    def _committed_log(self, seed, n_batches):
        rng = np.random.default_rng(seed)
        wal = make_wal()
        per_batch = []
        for _ in range(n_batches):
            k = int(rng.integers(1, 4))
            for _ in range(k):
                n = int(rng.integers(1, 6))
                wal.append(KIND_INSERT, rng.integers(0, 50, n), rows(rng, n))
            wal.commit()
            per_batch.append(k)
        return wal, per_batch

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 999), n_batches=st.integers(1, 5),
           cut=st.integers(1, 200))
    def test_torn_tail_recovers_to_last_group_commit(
        self, seed, n_batches, cut
    ):
        """Truncating the last batch blob at ANY byte boundary loses exactly
        that batch — everything before it replays intact."""
        wal, per_batch = self._committed_log(seed, n_batches)
        last_key = wal.batch_keys()[-1]
        blob = wal.store.get(last_key)
        wal.store.put(last_key, blob[:min(cut, len(blob) - 1)])
        recovered = make_wal(wal.store).replay()
        assert len(recovered) == sum(per_batch[:-1])
        intact = make_wal(wal.store)
        intact.store.put(last_key, blob)
        assert len(intact.replay()) == sum(per_batch)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 999), n_batches=st.integers(1, 4))
    def test_replay_is_idempotent_and_order_preserving(
        self, seed, n_batches
    ):
        wal, _ = self._committed_log(seed, n_batches)
        first = wal.replay()
        second = wal.replay()
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert records_equal(a, b)
        assert [r.lsn for r in first] == sorted(r.lsn for r in first)

    def test_corrupt_record_rejects_whole_batch(self):
        rng = np.random.default_rng(5)
        wal = make_wal()
        wal.append(KIND_INSERT, np.arange(3), rows(rng, 3))
        wal.commit()
        wal.append(KIND_INSERT, np.arange(3, 6), rows(rng, 3))
        wal.commit()
        key = wal.batch_keys()[-1]
        blob = bytearray(wal.store.get(key))
        blob[-1] ^= 0xFF  # flip a payload byte: record CRC must catch it
        wal.store.put(key, bytes(blob))
        recovered = make_wal(wal.store).replay()
        assert [r.lsn for r in recovered] == [1]

    def test_missing_middle_batch_stops_replay(self):
        wal, per_batch = self._committed_log(6, 3)
        wal.store.delete(wal.batch_keys()[1])
        recovered = make_wal(wal.store).replay()
        assert len(recovered) == per_batch[0]
