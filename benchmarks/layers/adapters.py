"""The benchmark's single point of contact with the program under test.

This is the **only** file under ``benchmarks/layers/`` that imports
``repro``.  Workloads, tracing and reporting reach tables, builders, the five
request paths and the numpy oracles through the names below, so when the
``Database``/``Session`` facade lands, one benchmark-archetype change
re-points this file and nothing else.

Every request path is a small object with the same two steps an operation is
made of — ``parse(sql)`` (SQL text in, query object out) and
``execute(query)`` (``(result, stats)`` out) — plus ``oracle(query)``, the
dense-numpy ground truth the result is compared with.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core import Query, TableSchema, Workload
from repro.engine import PartitionAtATimeExecutor, ScanExecutor
from repro.layouts import BuildContext, ColumnLayout, IrregularLayout
from repro.plan import Catalog, DagExecutor, GroupAggOp, HashJoinOp, QueryPlanner
from repro.serve import (
    PRIORITY_HIGH,
    PRIORITY_NORMAL,
    AdmissionRejected,
    PartitionCache,
    QueryScheduler,
)
from repro.sql import parse_relational_statement, parse_statement
from repro.storage import ColumnTable, DeviceProfile, PartitionManager
from repro.storage.partition_manager import CatalogSnapshot
from repro.testing import ShadowTable, run_reference_query
from repro.testing.join_oracle import run_reference_join
from repro.txn import DeltaCompactor, TransactionalTable, WriteAheadLog

from tracing import TimedBlobStore

__all__ = [
    "AdmissionRejected",
    "DagPath",
    "LayoutPath",
    "ServePath",
    "TRACE_TARGETS",
    "TxnPath",
    "build_column",
    "build_irregular",
    "build_join_catalog",
    "exec_counts",
    "make_table",
    "n_rows",
    "observability",
    "pool_counts",
    "same_result",
]

#: ``(owner, attribute, span name)``: the public functions of each layer the
#: traced pass wraps from outside.  ``storage.blob_get/put`` come from the
#: :class:`~tracing.TimedBlobStore` proxy and ``sql.parse`` / the request
#: span from the harness itself.
TRACE_TARGETS: Tuple[Tuple[object, str, str], ...] = (
    (QueryPlanner, "plan", "plan.plan"),
    (PartitionManager, "partitions_with_missing_cells", "storage.catalog_probe"),
    (CatalogSnapshot, "partitions_with_missing_cells", "storage.catalog_probe"),
    (PartitionManager, "load", "storage.load"),
    (PartitionAtATimeExecutor, "execute", "engine.execute"),
    (ScanExecutor, "execute", "engine.execute"),
    (TransactionalTable, "execute", "txn.execute"),
    (TransactionalTable, "commit", "txn.commit"),
    (WriteAheadLog, "commit", "txn.wal_commit"),
    (DeltaCompactor, "run", "txn.compaction"),
    (DagExecutor, "execute", "plan.dag"),
    (HashJoinOp, "run", "plan.hash_join"),
    (GroupAggOp, "run", "plan.group_agg"),
)


# ------------------------------------------------------------------ tables


def make_table(name: str, columns: Mapping[str, np.ndarray]) -> ColumnTable:
    """An int32 table over the given columns (fresh object every call: the
    write path grows the table it is handed)."""
    return ColumnTable.build(name, TableSchema.uniform(list(columns)), columns)


def _context(pool_bytes: int, segment_bytes: int) -> BuildContext:
    # The quickstart's device; only the simulated accounting reads it.
    return BuildContext(
        device_profile=DeviceProfile.from_throughput("hdd", 75.0, 0.000001),
        file_segment_bytes=segment_bytes,
        buffer_pool_bytes=pool_bytes,
    )


def _templates(table: ColumnTable, templates) -> Workload:
    return Workload(table.meta, [
        Query.build(table.meta, select, where, label=f"train{index}")
        for index, (select, where) in enumerate(templates)
    ])


def _instrument(layout):
    """Put the byte-counting store proxy under a freshly built layout."""
    layout.manager.store = TimedBlobStore(layout.manager.store)
    return layout


def build_irregular(table, templates, pool_bytes: int, segment_bytes: int):
    """Jigsaw's irregular layout + the partition-at-a-time engine."""
    return _instrument(IrregularLayout().build(
        table, _templates(table, templates), _context(pool_bytes, segment_bytes)
    ))


def build_column(table, templates, pool_bytes: int, segment_bytes: int):
    """The plain columnar layout + the scan engine."""
    return _instrument(ColumnLayout().build(
        table, _templates(table, templates), _context(pool_bytes, segment_bytes)
    ))


def build_join_catalog(
    tables: Mapping[str, ColumnTable],
    templates: Mapping[str, Sequence],
    segment_bytes: int,
) -> Catalog:
    """``bench_join``'s catalog: irregular layouts with zone maps, trained on
    the same disjoint key windows so the tables are co-partitioned."""
    ctx = BuildContext(file_segment_bytes=segment_bytes, schism_sample_size=200)
    return Catalog({
        name: _instrument(
            IrregularLayout(zone_maps=True, selection_enabled=False).build(
                table, _templates(table, templates[name]), ctx
            )
        )
        for name, table in tables.items()
    })


def stores(layouts) -> List[TimedBlobStore]:
    return [layout.manager.store for layout in layouts]


# ----------------------------------------------------------- request paths


class LayoutPath:
    """``parse_statement`` → ``layout.execute`` (single table, read only)."""

    def __init__(self, layout, table: ColumnTable):
        self.layout = layout
        self.table = table

    def parse(self, sql: str):
        return parse_statement(self.layout.table, sql).query

    def execute(self, query):
        return self.layout.execute(query)

    def oracle(self, query):
        return run_reference_query(self.table, query)


class TxnPath:
    """``parse_statement`` → ``TransactionalTable.execute`` at the current
    version, with the write path and its dense shadow beside it."""

    def __init__(self, layout, table: ColumnTable):
        self.txn = TransactionalTable(layout, table)
        self.shadow = ShadowTable(table)
        self.shadow.snapshot(self.txn.current_version)

    def parse(self, sql: str):
        return parse_statement(self.txn.data.meta, sql).query

    def execute(self, query):
        return self.txn.execute(query)

    def oracle(self, query):
        return self.shadow.query(query, self.txn.current_version)

    # ---- writes: stage on the table, then mirror on the shadow (untimed)

    def visible_tids(self) -> np.ndarray:
        """Committed, live tuple ids (what a batch may update or delete)."""
        return np.nonzero(self.shadow.visible[: self.txn.data.n_tuples])[0]

    def stage(self, batch: dict) -> None:
        self.txn.insert(batch["insert"])
        self.txn.update(batch["assign"], tids=batch["update"])
        self.txn.delete(tids=batch["delete"])

    def commit(self) -> int:
        return self.txn.commit()

    def mirror(self, batch: dict, version: int) -> None:
        self.shadow.insert(batch["insert"])
        self.shadow.update(batch["assign"], batch["update"])
        self.shadow.delete(batch["delete"])
        self._snapshot(version)

    def compact(self, bytes_budget: Optional[int] = None) -> int:
        """One fold (unbudgeted unless told otherwise), then drop what it
        retired; returns the bytes the fold rewrote."""
        report = DeltaCompactor(self.txn, bytes_budget=bytes_budget).run()
        self.txn.manager.prune_retired()
        return report.bytes_rewritten

    def sync_shadow(self) -> None:
        """A fold mints a new version with the same visible rows."""
        self._snapshot(self.txn.current_version)

    def _snapshot(self, version: int) -> None:
        # Reads only ever ask for the current version; keep one mask.
        self.shadow.history.clear()
        self.shadow.snapshot(version)

    def delta_state(self) -> Tuple[int, int]:
        state = self.txn.delta_state()
        return len(state.segments), len(state.tombstones)

    def wal_bytes(self) -> int:
        return self.txn.wal.stats.bytes_written

    def live_rows(self) -> int:
        return int(self.shadow.visible.sum())


class DagPath:
    """``parse_relational_statement`` → ``DagExecutor.execute``."""

    def __init__(
        self,
        catalog: Catalog,
        tables: Mapping[str, ColumnTable],
        spill_budget_bytes: Optional[int] = None,
    ):
        self.catalog = catalog
        self.tables = dict(tables)
        self.executor = DagExecutor(catalog, spill_budget_bytes=spill_budget_bytes)

    def parse(self, sql: str):
        return parse_relational_statement(self.catalog.metas(), sql).query

    def execute(self, query):
        return self.executor.execute(query)

    def oracle(self, query):
        return run_reference_join(self.tables, query)

    def leaf(self, table: str) -> LayoutPath:
        """The single-table path under one catalog entry (the input-scan
        floor and the DAG-tax comparison run through it)."""
        return LayoutPath(self.catalog[table], self.tables[table])


class ServePath:
    """``parse_statement`` → ``QueryScheduler.submit`` over two engines:
    ``pat`` (irregular layout) and ``scan`` (column layout), each with a
    :class:`PartitionCache`."""

    ENGINES = ("pat", "scan")

    def __init__(self, irregular, column, table: ColumnTable,
                 workers: int, queue_depth: int):
        self.table = table
        self.meta = irregular.table
        self.caches = {
            "pat": PartitionCache(irregular.manager),
            "scan": PartitionCache(column.manager),
        }
        self.engines = {
            "pat": PartitionAtATimeExecutor(
                irregular.manager, irregular.table, zone_maps=True,
                partition_cache=self.caches["pat"],
            ),
            "scan": ScanExecutor(
                column.manager, column.table,
                partition_cache=self.caches["scan"],
            ),
        }
        self.scheduler = QueryScheduler(
            self.engines, workers=workers, queue_depth=queue_depth
        ).start()

    def parse(self, sql: str):
        return parse_statement(self.meta, sql).query

    def submit(self, engine: str, query, high: bool = False):
        """Returns a ticket: ``wait(timeout) -> (result, stats)``, then
        ``latency_s`` and ``queue_wait_s``."""
        return self.scheduler.submit(
            engine, query, PRIORITY_HIGH if high else PRIORITY_NORMAL
        )

    def execute_direct(self, engine: str, query):
        return self.engines[engine].execute(query)

    def oracle(self, query):
        return run_reference_query(self.table, query)

    def rejections(self) -> int:
        return self.scheduler.n_rejected

    def cache_counts(self) -> Tuple[int, int]:
        hits = sum(cache.stats.n_hits for cache in self.caches.values())
        misses = sum(cache.stats.n_misses for cache in self.caches.values())
        return hits, misses

    def close(self) -> None:
        self.scheduler.close()


# ------------------------------------------------------- results and counts


def n_rows(result) -> int:
    """Row count of a ``ResultSet`` or a ``RelationalResult`` (O(1))."""
    if hasattr(result, "tuple_ids"):
        return len(result.tuple_ids)
    return result.n_rows


def same_result(result, expected) -> bool:
    """Cell-by-cell equality with the oracle's answer, dtypes included."""
    if not result.equals(expected):
        return False
    return all(
        result.columns[name].dtype == values.dtype
        for name, values in expected.columns.items()
    )


def exec_counts(stats) -> Dict[str, int]:
    """The ``ExecutionStats`` counters the per-layer metrics are built on."""
    return {
        "partitions_read": stats.n_partition_reads,
        "partitions_pruned": stats.n_partitions_pruned,
        "cells_scanned": stats.cells_scanned,
        "cells_gathered": stats.cells_gathered,
        "hash_inserts": stats.hash_inserts,
        "sim_bytes_read": stats.bytes_read,
        "spill_chunks": stats.n_spill_chunks,
        "result_rows": stats.n_result_tuples,
    }


def pool_counts(layouts) -> Dict[str, int]:
    """Summed buffer-pool counters of the given layouts."""
    totals = {"hits": 0, "misses": 0, "evictions": 0}
    for layout in layouts:
        pool = layout.manager.buffer_pool
        if pool is not None:
            totals["hits"] += pool.stats.n_hits
            totals["misses"] += pool.stats.n_misses
            totals["evictions"] += pool.stats.n_evictions
    return totals


class observability:
    """``obs.enable()`` plus an installed ``FlightRecorder`` for the block
    (the obs pass measures what telemetry costs when it is on)."""

    def __enter__(self):
        obs.enable()
        obs.install_flight_recorder(obs.FlightRecorder())
        return self

    def __exit__(self, *exc) -> None:
        obs.uninstall_flight_recorder()
        obs.disable()
