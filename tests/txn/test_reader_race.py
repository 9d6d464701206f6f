"""Readers that pin their own views race commits and a fold.

A commit grows the table's columns without waiting for in-flight reads: an
engine sizes its status vector from the view it reads, and the view carries
what its version hides.  Each read is checked, after the fact, against the
shadow at the version its view pinned.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro.core.query import Query
from repro.engine import PartitionAtATimeExecutor, ScanExecutor
from repro.engine.parallel import ThreadedPartitionEngine
from repro.testing.writes import (
    ShadowTable,
    WriteWorkloadConfig,
    apply_random_batch,
)
from repro.txn import DeltaCompactor

from .conftest import build_txn_table

N_COMMITS = 10
MIN_READS = 6
#: generous bound on every wait; the test asserts no timing.
WAIT_S = 120


def test_pinned_reads_race_commits_and_a_budgeted_fold():
    table, _layout, txn = build_txn_table(seed=31, n_tuples=600)
    shadow = ShadowTable(table)
    shadow.snapshot(txn.current_version)
    meta = txn.meta
    names = list(meta.schema.attribute_names)
    queries = [Query.build(meta, names, {}, label="full")] + [
        Query.build(meta, names[:2], {name: (lo, lo + 300)}, label=f"{name}@{lo}")
        for name, lo in zip(names, (100, 400, 650))
    ]
    engines = [
        PartitionAtATimeExecutor(txn.manager, meta),
        ScanExecutor(txn.manager, meta),
        ThreadedPartitionEngine(txn.manager, meta, n_threads=2, strategy="locking"),
    ]
    done = threading.Event()
    progress = threading.Condition()
    reads = [[] for _ in engines]
    errors = []

    def reader(slot: int) -> None:
        engine, log = engines[slot], reads[slot]
        try:
            while not done.is_set() or len(log) < MIN_READS:
                query = queries[len(log) % len(queries)]
                with txn.manager.pin_snapshot() as view:
                    result, _stats = engine.execute(query, snapshot=view)
                log.append((view.version, query, result))
                with progress:
                    progress.notify_all()
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
            with progress:
                progress.notify_all()

    def one_more_read_each() -> None:
        """Let every reader finish a read begun after this point, so the
        reads spread over the versions the writer mints."""
        targets = [len(log) + 2 for log in reads]
        with progress:
            assert progress.wait_for(lambda: errors or all(
                len(log) >= target for log, target in zip(reads, targets)
            ), timeout=WAIT_S)

    threads = [threading.Thread(target=reader, args=(slot,)) for slot in range(len(engines))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave readers and the writer finely
    for thread in threads:
        thread.start()
    try:
        rng = np.random.default_rng(31)
        config = WriteWorkloadConfig(max_delete_rows=20, max_update_rows=10)
        for _ in range(N_COMMITS):
            apply_random_batch(txn, shadow, rng, config)
            shadow.snapshot(txn.commit())
            one_more_read_each()
        budget = max(txn.manager.info(pid).n_bytes for pid in txn.manager.pids())
        report = DeltaCompactor(txn, bytes_budget=budget).run()
        assert not report.is_empty
        shadow.snapshot(report.version)
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=WAIT_S)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    for log in reads:
        assert len(log) >= MIN_READS
        for version, query, result in log:
            expected = shadow.query(query, version)
            assert result.equals(expected), (version, query.label)
