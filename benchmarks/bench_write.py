"""Write-path benchmark: sustained commits under concurrent reads, and the
I/O payoff of delta compaction.

A :class:`~repro.txn.TransactionalTable` over an irregular layout absorbs a
seeded stream of insert/delete/update batches (one WAL group commit each)
while a reader thread replays snapshot queries against the versions already
committed — every read is verified against the dense numpy shadow, so the
throughput numbers are for *correct* reads under write churn.

Then the same selective query sweep runs twice: against the fragmented
table (deleted rows still stored in every partition that held them) and
again after :class:`~repro.txn.DeltaCompactor` has rewritten the dirty
partitions without them.  The CI-enforced
acceptance bar: the fragmented sweep reads >= 1.5x the simulated I/O bytes
of the compacted sweep.

Run standalone for JSON output (written to ``BENCH_write.json``)::

    PYTHONPATH=src python benchmarks/bench_write.py
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.bench.reporting import ExperimentResult
from repro.core import Query, TableSchema
from repro.layouts import BuildContext, IrregularLayout
from repro.storage import ColumnTable
from repro.testing import (
    ShadowTable,
    WriteWorkloadConfig,
    apply_random_batch,
    random_workload,
    verify_against_shadow,
)
from repro.txn import DeltaCompactor, TransactionalTable

try:
    from conftest import emit
except ImportError:  # standalone script run, not under pytest
    emit = print


@dataclass(frozen=True)
class BenchConfig:
    n_tuples: int = 5_000
    n_attrs: int = 6
    n_batches: int = 30
    max_ops: int = 3
    max_insert_rows: int = 120
    n_sweep_queries: int = 12
    value_range: int = 1_000
    seed: int = 17


def _build(cfg: BenchConfig):
    rng = np.random.default_rng(cfg.seed)
    schema = TableSchema.uniform([f"a{i}" for i in range(1, cfg.n_attrs + 1)])
    table = ColumnTable.build("T", schema, {
        name: rng.integers(0, cfg.value_range, cfg.n_tuples).astype(np.int32)
        for name in schema.attribute_names
    })
    train = random_workload(rng, table, 5)
    layout = IrregularLayout(selection_enabled=False).build(
        table, train, BuildContext(file_segment_bytes=8 * 1024)
    )
    return rng, table, layout, TransactionalTable(layout, table)


def _sweep_queries(cfg: BenchConfig, meta) -> list:
    """Selective range queries: before compaction every one of these reads
    the dead rows its partitions still store."""
    rng = np.random.default_rng(cfg.seed + 1)
    queries = []
    for index in range(cfg.n_sweep_queries):
        name = f"a{1 + index % cfg.n_attrs}"
        lo = int(rng.integers(0, cfg.value_range - 100))
        hi = lo + int(rng.integers(20, 100))
        queries.append(Query.build(
            meta, [f"a{1 + (index + 1) % cfg.n_attrs}"],
            {name: (lo, min(hi, cfg.value_range - 1))},
            label=f"s{index}",
        ))
    return queries


def _sweep_bytes(txn, queries) -> int:
    total = 0
    for query in queries:
        _result, stats = txn.execute(query)
        total += stats.bytes_read
    return total


def run(cfg: BenchConfig | None = None) -> ExperimentResult:
    cfg = cfg or BenchConfig()
    rng, table, _layout, txn = _build(cfg)
    shadow = ShadowTable(table)
    shadow.snapshot(txn.current_version)
    workload = WriteWorkloadConfig(
        n_batches=cfg.n_batches, max_ops=cfg.max_ops,
        max_insert_rows=cfg.max_insert_rows, value_range=cfg.value_range,
    )

    result = ExperimentResult(
        experiment="write",
        title="Write path: sustained commits, concurrent reads, compaction",
        parameters={
            "n_tuples": cfg.n_tuples,
            "n_attrs": cfg.n_attrs,
            "n_batches": cfg.n_batches,
            "n_sweep_queries": cfg.n_sweep_queries,
        },
    )

    # ---- phase 1: sustained writes with a concurrent verified reader ----
    names = list(table.schema.attribute_names)
    stop = threading.Event()
    reader_counts = {"reads": 0, "mismatches": 0}

    def reader():
        reader_rng = np.random.default_rng(cfg.seed + 2)
        while not stop.is_set():
            # A version is readable here once the writer has snapshotted it.
            versions = [v for v in txn.versions() if v in shadow.history]
            version = int(versions[int(reader_rng.integers(len(versions)))])
            query = Query.build(
                txn.data.meta, names, {}, label=f"r{version}"
            )
            got, _ = txn.execute(query, as_of=version)
            expected = shadow.query(query, version)
            if not np.array_equal(got.tuple_ids, expected.tuple_ids):
                reader_counts["mismatches"] += 1
            reader_counts["reads"] += 1

    # The shadow is appended by the writer and read concurrently; numpy
    # reads of published snapshots are safe because ``shadow.history``
    # masks are frozen copies and columns are only ever appended after the
    # matching version is visible via ``txn.versions()``.
    thread = threading.Thread(target=reader, name="bench-write-reader")
    thread.start()
    t0 = time.perf_counter()
    n_ops = 0
    try:
        for _ in range(cfg.n_batches):
            n_ops += apply_random_batch(txn, shadow, rng, workload)
            shadow.snapshot(txn.commit())
    finally:
        stop.set()
        thread.join()
    write_elapsed = time.perf_counter() - t0

    wal = txn.wal.stats
    result.add_row(
        phase="write",
        commits=cfg.n_batches,
        ops=n_ops,
        ops_per_s=round(n_ops / write_elapsed, 1),
        wal_bytes=wal.bytes_written,
        wal_records=wal.n_records_committed,
        concurrent_reads=reader_counts["reads"],
        read_mismatches=reader_counts["mismatches"],
    )

    # ---- phase 2: the same sweep, fragmented vs compacted --------------
    queries = _sweep_queries(cfg, txn.data.meta)
    state = txn.delta_state()
    fragmented = _sweep_bytes(txn, queries)
    result.add_row(
        phase="fragmented",
        delta_segments=len(state.segments),
        tombstones=len(state.tombstones),
        sweep_bytes=fragmented,
    )

    t1 = time.perf_counter()
    reports = DeltaCompactor(txn, verify=True).run_until_clean()
    compaction_elapsed = time.perf_counter() - t1
    compacted = _sweep_bytes(txn, queries)
    result.add_row(
        phase="compacted",
        passes=len(reports),
        bytes_rewritten=sum(r.bytes_rewritten for r in reports),
        compaction_s=round(compaction_elapsed, 3),
        sweep_bytes=compacted,
    )

    mismatches = verify_against_shadow(txn, shadow, rng, n_queries=1)
    ratio = fragmented / compacted if compacted else float("inf")
    result.parameters["oracle_exact"] = (
        not mismatches and reader_counts["mismatches"] == 0
    )
    result.parameters["fragmented_over_compacted_bytes"] = round(ratio, 2)
    result.notes.append(
        f"sweep I/O bytes fragmented/compacted: {fragmented} / {compacted} "
        f"= {ratio:.2f}x"
    )
    result.notes.append(
        f"{reader_counts['reads']} concurrent snapshot reads verified "
        f"during {cfg.n_batches} commits"
    )
    result.notes.append(
        f"every retained version oracle-exact after compaction: "
        f"{not mismatches}"
    )
    return result


def test_bench_write(benchmark):
    cfg = BenchConfig()
    result = benchmark.pedantic(run, args=(cfg,), rounds=1, iterations=1)
    emit(result)
    rows = {row["phase"]: row for row in result.rows}
    # Concurrent snapshot reads and post-compaction replays all exact.
    assert result.parameters["oracle_exact"] is True
    assert rows["write"]["read_mismatches"] == 0
    # The write phase really ran through the WAL.
    assert rows["write"]["wal_records"] > 0
    # The acceptance threshold: the fragmented sweep pays >= 1.5x the
    # simulated I/O bytes of the compacted one (CI-enforced).
    assert rows["fragmented"]["sweep_bytes"] >= 1.5 * rows["compacted"]["sweep_bytes"]


if __name__ == "__main__":
    outcome = run()
    print(outcome.to_text())
    from repro.bench.history import write_bench_json

    write_bench_json(outcome, "BENCH_write.json")
    print("wrote BENCH_write.json (+ BENCH_HISTORY.jsonl row)")
