"""Execution statistics and the CPU cost model.

Python cannot measure the paper's CPU effects directly (the engines would be
dominated by interpreter overhead), so each engine counts *events* — cells
scanned, hash-table inserts, bytes materialized — and a :class:`CpuModel`
converts the counts into simulated seconds.  Simulated execution time is
``io_time + cpu_time``; byte counts are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["CpuModel", "ExecutionStats"]


@dataclass(frozen=True, slots=True)
class CpuModel:
    """Per-event CPU costs (single-core seconds).

    Defaults approximate a modern Xeon core: a few ns per vectorized cell
    visit, tens of ns per random hash-table write (the paper's ``mem()``
    microbenchmark), and sequential materialization at memory bandwidth.
    ``cores`` scales the scan/materialize components; random hash writes are
    also divided across cores (both parallelization strategies shard or lock
    the table, so inserts do proceed in parallel).
    """

    cell_scan_s: float = 2.0e-9
    cell_gather_s: float = 2.0e-9
    hash_insert_s: float = 2.0e-8
    hash_update_s: float = 8.0e-9
    materialize_byte_s: float = 1.0e-9
    tuple_overhead_s: float = 4.0e-9
    cores: int = 1

    def scaled(self, cores: int) -> "CpuModel":
        """The same per-event costs executed with ``cores`` worker threads."""
        return CpuModel(
            cell_scan_s=self.cell_scan_s,
            cell_gather_s=self.cell_gather_s,
            hash_insert_s=self.hash_insert_s,
            hash_update_s=self.hash_update_s,
            materialize_byte_s=self.materialize_byte_s,
            tuple_overhead_s=self.tuple_overhead_s,
            cores=max(1, cores),
        )

    def cpu_time(
        self,
        cells_scanned: int = 0,
        cells_gathered: int = 0,
        hash_inserts: int = 0,
        hash_updates: int = 0,
        materialized_bytes: int = 0,
        tuples_iterated: int = 0,
    ) -> float:
        single_core = (
            cells_scanned * self.cell_scan_s
            + cells_gathered * self.cell_gather_s
            + hash_inserts * self.hash_insert_s
            + hash_updates * self.hash_update_s
            + materialized_bytes * self.materialize_byte_s
            + tuples_iterated * self.tuple_overhead_s
        )
        return single_core / self.cores


@dataclass(slots=True)
class ExecutionStats:
    """Everything one query execution did, with simulated timings.

    ``n_retries`` mirrors the storage layer's read path: extra per-read
    attempts after transient faults or corruption.  A partition that stays
    unreadable after every retry fails the query, so no ledger of a
    finished execution counts one.
    """

    bytes_read: int = 0
    io_time_s: float = 0.0
    n_partition_reads: int = 0
    n_partitions_skipped: int = 0
    #: subset of ``n_partitions_skipped`` decided by the *planner* from
    #: catalog metadata (zone pruning) before any I/O; runtime skips (e.g.
    #: "no selected tuple lives here") count only in the broader field.
    n_partitions_pruned: int = 0
    #: subset of ``n_partitions_pruned`` where the zone map could not refute
    #: the query but a per-partition sketch (dictionary, Bloom, or grid)
    #: could — the skips added by the sketch catalog beyond zone pruning.
    n_partitions_sketch_pruned: int = 0
    #: subset of ``n_partitions_pruned`` whose verdict was *replayed* from the
    #: serving tier's semantic partition cache (same normalized-predicate
    #: signature, same catalog version) instead of re-probing zones/sketches.
    #: Attribution only — the replayed verdicts are identical to what a fresh
    #: classification would produce, so every other counter matches cache-off.
    n_partitions_cache_pruned: int = 0
    n_cache_hits: int = 0
    n_pool_hits: int = 0
    n_retries: int = 0
    cells_scanned: int = 0
    cells_gathered: int = 0
    hash_inserts: int = 0
    hash_updates: int = 0
    materialized_bytes: int = 0
    tuples_iterated: int = 0
    #: hash-join build-side spilling: when a build side exceeds the spill
    #: budget it is hash-partitioned into chunks written to the blob store
    #: and re-read one chunk at a time (hybrid-hash style).  Zero on every
    #: single-table query, so the 576-entry stats snapshot is unaffected.
    n_spill_chunks: int = 0
    spill_bytes_written: int = 0
    spill_bytes_read: int = 0
    n_result_tuples: int = 0
    cpu_time_s: float = 0.0
    wall_time_s: float = 0.0

    @property
    def simulated_time_s(self) -> float:
        """Total simulated execution time: device I/O plus modeled CPU."""
        return self.io_time_s + self.cpu_time_s

    def accrue_io(self, delta) -> None:
        """Fold one partition read's :class:`~repro.storage.io_stats.IOStats`
        delta into this execution's counters."""
        self.io_time_s += delta.io_time_s
        self.bytes_read += delta.bytes_read
        self.n_cache_hits += delta.n_cache_hits
        self.n_retries += delta.n_retries

    def charge_cpu(self, model: CpuModel) -> None:
        """Convert the event counters into simulated CPU seconds."""
        self.cpu_time_s = model.cpu_time(
            cells_scanned=self.cells_scanned,
            cells_gathered=self.cells_gathered,
            hash_inserts=self.hash_inserts,
            hash_updates=self.hash_updates,
            materialized_bytes=self.materialized_bytes,
            tuples_iterated=self.tuples_iterated,
        )

    def add(self, other: "ExecutionStats") -> None:
        """Accumulate another execution's counters into this one."""
        for name in _FIELD_NAMES:
            setattr(self, name, getattr(self, name) + getattr(other, name))


#: the counters in declaration order, looked up once instead of per merge.
_FIELD_NAMES = tuple(spec.name for spec in fields(ExecutionStats))
