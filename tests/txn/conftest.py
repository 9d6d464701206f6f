"""Fixtures for the write-path suite: a small transactional layout."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StorageError
from repro.layouts import BuildContext, IrregularLayout
from repro.storage import MemoryBlobStore
from repro.testing import no_leaked_pins, random_table, random_workload
from repro.txn import TransactionalTable


@pytest.fixture(autouse=True)
def pin_census():
    """Whatever path a read or a fold left by, its catalog view was released."""
    with no_leaked_pins():
        yield


class ScriptedStore(MemoryBlobStore):
    """The blobs of an already built layout, with every ``get``/``put``
    counted and — once :meth:`fail_put` arms it — a ``StorageError`` raised
    by the k-th ``put`` from then on (that put stores nothing)."""

    def __init__(self, built: MemoryBlobStore):
        super().__init__()
        self._blobs = dict(built._blobs)
        self.n_gets = 0
        self.n_puts = 0
        self._fail_at = None

    def fail_put(self, k) -> None:
        """Arm the k-th put from now to fail; ``None`` disarms."""
        self._fail_at = None if k is None else self.n_puts + k

    def flip_bit(self, key: str) -> bytes:
        """Corrupt the stored blob at rest; returns the pristine bytes."""
        pristine = self._blobs[key]
        damaged = bytearray(pristine)
        damaged[len(damaged) // 2] ^= 0x10
        self._blobs[key] = bytes(damaged)
        return pristine

    def get(self, key: str) -> bytes:
        self.n_gets += 1
        return super().get(key)

    def put(self, key: str, data: bytes) -> None:
        self.n_puts += 1
        if self.n_puts == self._fail_at:
            raise StorageError(f"injected failure putting {key!r}")
        super().put(key, data)


def script_store(layout) -> ScriptedStore:
    """Swap a built layout's store for a :class:`ScriptedStore` — before the
    transactional table exists, so the WAL writes through it too."""
    store = layout.manager.store = ScriptedStore(layout.manager.store)
    return store


def referenced_keys(txn) -> set:
    """Every blob key the catalog (live or retired) or the WAL refers to."""
    manager = txn.manager
    keys = {
        manager.info(pid).key
        for pid in manager.pids() + manager.retired_pids()
    }
    if txn.wal is not None:
        keys.update(txn.wal.batch_keys())
    return keys


def build_txn_table(
    seed: int = 7,
    n_attrs: int = 3,
    n_tuples: int = 300,
    wal_enabled: bool = True,
    builder=None,
):
    """One seeded (table, layout, TransactionalTable) triple."""
    rng = np.random.default_rng(seed)
    table = random_table(rng, n_attrs=n_attrs, n_tuples=n_tuples)
    train = random_workload(rng, table, 4)
    layout = (builder or IrregularLayout()).build(
        table, train, BuildContext(file_segment_bytes=2048)
    )
    return table, layout, TransactionalTable(
        layout, table, wal_enabled=wal_enabled
    )


@pytest.fixture()
def txn_table():
    return build_txn_table()
