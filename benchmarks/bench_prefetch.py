"""Microbenchmark: overlapped read-ahead + sketch-based data skipping.

Unlike the ``bench_figXX`` scripts this does not reproduce a paper figure —
it measures the *real* wall-clock effect of the PR-6 read-path additions on
an I/O-bound cold scan, which the simulated device model cannot see:

* ``inline``          — every partition load paid inline (seed behaviour),
* ``prefetch``        — the bounded read-ahead pipeline overlaps loads with
                        evaluation (``prefetch_depth`` worker threads),
* ``zones``           — zone-map pruning only,
* ``zones+sketches``  — zone maps plus the per-partition sketch catalog
                        (dictionary / Bloom / grid) on a low-selectivity
                        equality workload.

I/O-boundness is made real by a :class:`~repro.storage.DelayedBlobStore`:
every ``get`` sleeps a few real milliseconds, as a cloud block store would.
Simulated per-query accounting (``bytes_read`` / ``io_time_s`` / partition
counters) must be bit-identical between ``inline`` and ``prefetch`` — that
contract is asserted here and in ``tests/``; sketches must *strictly*
increase skipped partitions over zones alone while staying oracle-exact.

Run standalone for JSON output:
``PYTHONPATH=src python benchmarks/bench_prefetch.py``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from repro.bench.reporting import ExperimentResult
from repro.core import Query, TableSchema
from repro.engine import PartitionAtATimeExecutor
from repro.storage import (
    BALOS_HDD,
    ColumnTable,
    DelayedBlobStore,
    MemoryBlobStore,
    PartitionManager,
    SegmentSpec,
    StorageDevice,
    TID_CATALOG,
    profile_workload,
    select_sketches,
)
from repro.testing.snapshot import stats_signature

try:
    from conftest import emit
except ImportError:  # standalone script run, not under pytest
    emit = print


@dataclass(frozen=True)
class BenchConfig:
    n_tuples: int = 24_000
    n_attrs: int = 8
    n_partitions: int = 48
    n_repeats: int = 3
    prefetch_depth: int = 6
    delay_s: float = 0.004  # real seconds per blob get
    sketch_budget_bytes: int = 4096
    seed: int = 7


def _build_table(cfg: BenchConfig) -> ColumnTable:
    rng = np.random.default_rng(cfg.seed)
    schema = TableSchema.uniform([f"a{i}" for i in range(1, cfg.n_attrs + 1)])
    columns = {
        name: rng.integers(0, 100_000, cfg.n_tuples).astype(np.int32)
        for name in schema.attribute_names
    }
    # a1 stores only even values: odd equality probes are zone-invisible
    # (every partition spans the full range) but sketch-refutable.
    columns["a1"] = (columns["a1"] // 2 * 2).astype(np.int32)
    return ColumnTable.build("T", schema, columns)


def _build_manager(
    table: ColumnTable, cfg: BenchConfig, delayed: bool, sketch_for=None
):
    """``sketch_for``: a training workload — each partition is then stored
    with the sketches ``cfg.sketch_budget_bytes`` affords it."""
    store: object = MemoryBlobStore()
    if delayed:
        store = DelayedBlobStore(store, delay_s=cfg.delay_s)
    manager = PartitionManager(
        table.schema, StorageDevice(BALOS_HDD), store
    )
    bounds = np.linspace(0, table.n_tuples, cfg.n_partitions + 1, dtype=np.int64)
    attrs = table.schema.attribute_names
    sketcher = None
    if sketch_for is not None:
        profile = profile_workload(sketch_for)
        columns = {name: table.column(name) for name in attrs}

        def sketcher(info):
            return select_sketches(
                info, columns, profile, 0.010, cfg.sketch_budget_bytes
            )

    manager.materialize_specs(
        [
            [SegmentSpec(attrs, np.arange(lo, hi, dtype=np.int64))]
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ],
        table,
        tid_storage=TID_CATALOG,
        sketcher=sketcher,
    )
    return manager


def _timed_cold_repeats(executor, manager, query, n_repeats):
    """(mean cold wall seconds, last ExecutionStats); caches dropped between
    runs so every repeat pays the full delayed read path."""
    stats = None
    total = 0.0
    for _ in range(n_repeats):
        manager.device.drop_caches()
        started = time.perf_counter()
        _result, stats = executor.execute(query)
        total += time.perf_counter() - started
    return total / n_repeats, stats


def run(cfg: BenchConfig | None = None) -> ExperimentResult:
    cfg = cfg or BenchConfig()
    table = _build_table(cfg)
    scan_query = Query.build(
        table.meta, ["a2", "a3"], {"a1": (0, 99_999)}, label="cold-scan"
    )
    # Odd probe value: inside every zone, in no partition.
    eq_query = Query.build(
        table.meta, ["a2", "a3"], {"a1": (55_555, 55_555)}, label="eq-probe"
    )

    result = ExperimentResult(
        experiment="prefetch",
        title="Read-ahead pipeline + sketch skipping, cold-scan wall clock",
        parameters={
            "n_tuples": cfg.n_tuples,
            "n_attrs": cfg.n_attrs,
            "n_partitions": cfg.n_partitions,
            "n_repeats": cfg.n_repeats,
            "prefetch_depth": cfg.prefetch_depth,
            "delay_s": cfg.delay_s,
            "sketch_budget_bytes": cfg.sketch_budget_bytes,
        },
    )

    # --- overlapped I/O: inline vs prefetch on the same delayed store ----
    signatures = {}
    for name, depth in (("inline", 0), ("prefetch", cfg.prefetch_depth)):
        manager = _build_manager(table, cfg, delayed=True)
        executor = PartitionAtATimeExecutor(
            manager, table.meta, prefetch_depth=depth
        )
        cold_s, stats = _timed_cold_repeats(
            executor, manager, scan_query, cfg.n_repeats
        )
        signatures[name] = stats_signature(stats)
        result.add_row(
            config=name,
            phase="cold",
            wall_s=round(cold_s, 4),
            sim_io_s=round(stats.io_time_s, 6),
            mb_read=round(stats.bytes_read / 1e6, 3),
            partition_reads=stats.n_partition_reads,
            sketch_pruned=stats.n_partitions_sketch_pruned,
        )
        # Warm (simulated OS cache hot): overlap has nothing left to hide.
        warm_started = time.perf_counter()
        _result, warm_stats = executor.execute(scan_query)
        result.add_row(
            config=name,
            phase="warm",
            wall_s=round(time.perf_counter() - warm_started, 4),
            sim_io_s=round(warm_stats.io_time_s, 6),
            mb_read=round(warm_stats.bytes_read / 1e6, 3),
            partition_reads=warm_stats.n_partition_reads,
            sketch_pruned=warm_stats.n_partitions_sketch_pruned,
        )

    # --- data skipping: zones vs zones + sketches (no artificial delay) --
    for name, budget in (("zones", 0), ("zones+sketches", cfg.sketch_budget_bytes)):
        manager = _build_manager(
            table, cfg, delayed=False, sketch_for=[eq_query] if budget else None
        )
        if budget:
            n_sketched = sum(
                manager.info(pid).sketches is not None for pid in manager.pids()
            )
            result.notes.append(f"sketched partitions: {n_sketched}")
        executor = PartitionAtATimeExecutor(
            manager, table.meta, zone_maps=True,
            prefetch_depth=cfg.prefetch_depth,
        )
        cold_s, stats = _timed_cold_repeats(
            executor, manager, eq_query, cfg.n_repeats
        )
        result.add_row(
            config=name,
            phase="cold",
            wall_s=round(cold_s, 4),
            sim_io_s=round(stats.io_time_s, 6),
            mb_read=round(stats.bytes_read / 1e6, 3),
            partition_reads=stats.n_partition_reads,
            sketch_pruned=stats.n_partitions_sketch_pruned,
        )

    rows = {
        (row["config"], row["phase"]): row for row in result.rows
    }
    inline, ahead = rows[("inline", "cold")], rows[("prefetch", "cold")]
    result.notes.append(
        "cold-scan speedup prefetch vs inline: "
        f"{inline['wall_s'] / max(ahead['wall_s'], 1e-9):.2f}x"
    )
    result.notes.append(
        "accounting identical under prefetch: "
        f"{signatures['inline'] == signatures['prefetch']}"
    )
    zones, sketched = rows[("zones", "cold")], rows[("zones+sketches", "cold")]
    result.notes.append(
        "equality-probe partition reads: "
        f"zones {zones['partition_reads']} -> "
        f"+sketches {sketched['partition_reads']}"
    )
    result.parameters["accounting_identical"] = (
        signatures["inline"] == signatures["prefetch"]
    )
    return result


def test_bench_prefetch(benchmark):
    cfg = BenchConfig()
    result = benchmark.pedantic(run, args=(cfg,), rounds=1, iterations=1)
    emit(result)
    rows = {(row["config"], row["phase"]): row for row in result.rows}
    inline, ahead = rows[("inline", "cold")], rows[("prefetch", "cold")]
    # Simulated accounting bit-identical: overlap moves loads, never costs.
    assert result.parameters["accounting_identical"] is True
    assert inline["sim_io_s"] == ahead["sim_io_s"]
    assert inline["mb_read"] == ahead["mb_read"]
    # The acceptance threshold: >= 1.5x faster on the I/O-bound cold scan.
    assert ahead["wall_s"] * 1.5 <= inline["wall_s"]
    # Sketches skip strictly more than zones on the low-selectivity probe.
    zones, sketched = rows[("zones", "cold")], rows[("zones+sketches", "cold")]
    assert sketched["partition_reads"] < zones["partition_reads"]
    assert sketched["sketch_pruned"] > 0 == zones["sketch_pruned"]


if __name__ == "__main__":
    outcome = run()
    print(outcome.to_text())
    document = {
        "experiment": outcome.experiment,
        "parameters": outcome.parameters,
        "rows": outcome.rows,
        "notes": outcome.notes,
    }
    print(json.dumps(document, indent=1))
    from repro.bench.history import append_history

    append_history(outcome)
