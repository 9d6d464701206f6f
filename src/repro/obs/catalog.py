"""The metric catalogue: every family ``/metrics`` can expose, declared once.

The instrumented objects (``ExecutionStats`` flattened into a flight record,
``BufferPoolStats``, ``FaultStats``, ``CacheStats``, ``AdaptationStats``,
``WalStats``, the transactional table, the scheduler) stay the single source
of truth; :func:`publish` *copies* their figures into the shared registry at
natural boundaries — end of a request, of a commit, of an adaptive cycle —
so nothing in the hot path changes and the simulated accounting is
byte-identical to an unobserved run.  A :class:`Family` row says which
registry series an attribute of the source object feeds; counters add the
value, gauges are set to it, histograms and summaries observe it.  With the
gate shut (:func:`~repro.obs.runtime.metrics_enabled`) ``publish`` costs one
call and one truth test.

Every wall-clock latency has exactly one series — a summary, whose
quantiles render live; simulated seconds per query keep the histogram.
The names health rules read are module constants, so
:func:`~repro.obs.health.default_rules` cannot drift from the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Dict, List, Mapping, Tuple, Union

from . import runtime

__all__ = ["CATALOG", "Family", "family_names", "markdown_table", "publish"]

COUNTER, GAUGE, HISTOGRAM, SUMMARY = "counter", "gauge", "histogram", "summary"

# Families the default health rules evaluate.
WAL_BACKLOG_BYTES = "jigsaw_wal_backlog_bytes"
TXN_DELTA_SEGMENTS = "jigsaw_txn_delta_segments"
TXN_DELTA_BYTES = "jigsaw_txn_delta_bytes"
TXN_SNAPSHOT_REFCOUNT = "jigsaw_txn_snapshot_refcount"
POOL_HITS = "jigsaw_pool_n_hits"
POOL_MISSES = "jigsaw_pool_n_misses"
PARTITION_CACHE_HITS = "jigsaw_partition_cache_n_hits"
PARTITION_CACHE_MISSES = "jigsaw_partition_cache_n_misses"
SERVE_REJECTED = "jigsaw_serve_rejected_total"
SERVE_SUBMITTED = "jigsaw_serve_submitted_total"
QUERY_DEGRADED_READS = "jigsaw_query_degraded_reads_total"
QUERY_PARTITION_READS = "jigsaw_query_partition_reads_total"
SERVE_LATENCY_QUANTILES = "jigsaw_serve_latency_quantiles"


@dataclass(frozen=True)
class Family:
    """One metric family and the attribute of its source object it copies.

    ``source`` is a dotted attribute path or a callable of the source; a
    mapping read from it sets one series per key under the family's single
    label (queue depth per priority, occupancy per engine).
    """

    name: str
    kind: str
    help: str
    labels: Tuple[str, ...]
    source: Union[str, Callable[[Any], Any]]


def _each(prefix: str, kind: str, what: str, fields, labels=(), base="") -> Tuple[Family, ...]:
    """One family per field of a stats object: ``jigsaw_<prefix>_<field>``."""
    return tuple(
        Family(f"jigsaw_{prefix}_{name}", kind, f"{what} {name}", labels, base + name)
        for name in fields
    )


_ENGINE = ("engine",)
_QUERY_COUNTERS = (  # (family suffix, FlightRecord field)
    ("partition_reads", "n_partition_reads"), ("partitions_pruned", "n_partitions_pruned"),
    ("partitions_skipped", "n_partitions_skipped"), ("cells_scanned", "cells_scanned"),
    ("bytes_read", "bytes_read"), ("cache_hits", "n_cache_hits"), ("pool_hits", "n_pool_hits"),
    ("retries", "n_retries"), ("degraded_reads", "n_degraded_reads"),
    ("result_tuples", "n_result_tuples"), ("sim_io_seconds", "sim_io_s"),
    ("sim_cpu_seconds", "sim_cpu_s"),
)

#: Source object per group: ``query`` / ``cost_model`` / ``served`` read the request's
#: :class:`~repro.obs.flight.FlightRecord`; ``serve`` a ``QueryScheduler``; ``pool`` a
#: ``BufferPool``; ``faults`` a ``FaultStats``; ``partition_cache`` a ``PartitionCache``;
#: ``adaptive`` an ``AdaptationStats``; ``wal`` / ``wal_commit`` a ``WriteAheadLog``;
#: ``txn`` a ``TransactionalTable`` (a *segment* is a commit partition no compaction
#: pass has taken yet).
CATALOG: Dict[str, Tuple[Family, ...]] = {
    "query": (
        Family("jigsaw_queries_total", COUNTER, "Requests executed", _ENGINE, lambda r: 1),
        *(
            Family(f"jigsaw_query_{suffix}_total", COUNTER,
                   f"Per-request {name} accumulated", _ENGINE, name)
            for suffix, name in _QUERY_COUNTERS
        ),
        Family("jigsaw_query_sim_seconds", HISTOGRAM, "Simulated io+cpu seconds per request",
               _ENGINE, lambda r: r.sim_io_s + r.sim_cpu_s),
    ),
    "cost_model": (
        Family("jigsaw_cost_model_estimated_bytes", GAUGE,
               "Cost-model estimated bytes of the last query", _ENGINE, "estimated_bytes"),
        Family("jigsaw_cost_model_observed_bytes", GAUGE,
               "Observed bytes read by the last query", _ENGINE, "bytes_read"),
        # Signed drift: >1 means the model over-estimated, <1 under.
        Family("jigsaw_cost_model_drift_ratio", GAUGE,
               "Estimated/observed bytes of the last query", _ENGINE,
               lambda r: r.estimated_bytes / r.bytes_read if r.bytes_read else 0.0),
        Family("jigsaw_cost_model_abs_error_bytes_total", COUNTER,
               "Accumulated |estimated - observed| bytes", _ENGINE,
               lambda r: abs(r.estimated_bytes - r.bytes_read)),
    ),
    "served": (
        Family("jigsaw_serve_requests_total", COUNTER,
               "Requests served, by engine/priority/outcome",
               ("engine", "priority", "outcome"), lambda r: 1),
        Family(SERVE_LATENCY_QUANTILES, SUMMARY, "Submit-to-done wall latency quantiles",
               ("engine", "priority"), "latency_s"),
        Family("jigsaw_serve_queue_wait_quantiles", SUMMARY,
               "Submit-to-start wall wait quantiles", ("priority",), "queue_wait_s"),
    ),
    "serve": (
        Family("jigsaw_serve_queue_depth", GAUGE, "Pending requests per priority level",
               ("priority",), lambda scheduler: scheduler.pending()),
        Family("jigsaw_serve_inflight", GAUGE, "In-flight queries per engine", _ENGINE,
               lambda scheduler: scheduler.occupancy()),
        Family(SERVE_REJECTED, GAUGE, "Requests refused by admission control", (), "n_rejected"),
        Family(SERVE_SUBMITTED, GAUGE, "Requests accepted by the scheduler", (), "n_submitted"),
    ),
    "pool": (
        *_each("pool", GAUGE, "Buffer pool lifetime", (
            "n_hits", "n_misses", "n_insertions", "n_evictions", "n_invalidations",
            "hit_bytes", "evicted_bytes",
        ), ("pool",), "stats."),
        Family("jigsaw_pool_hit_rate", GAUGE, "Buffer pool lifetime hit rate", ("pool",),
               "stats.hit_rate"),
        Family("jigsaw_pool_current_bytes", GAUGE, "Bytes resident in the pool", ("pool",),
               "current_bytes"),
    ),
    "faults": (
        *_each("faults", GAUGE, "Fault injector lifetime", (
            "n_gets", "n_transient_errors", "n_truncations", "n_bit_flips", "n_latency_spikes",
        )),
        Family("jigsaw_faults_latency_injected_seconds", GAUGE,
               "Simulated latency injected by fault spikes", (), "latency_injected_s"),
    ),
    "partition_cache": (
        *_each("partition_cache", GAUGE, "Partition cache lifetime", (
            "n_hits", "n_misses", "n_records", "n_invalidated", "n_evicted",
        ), ("cache",), "stats."),
        Family("jigsaw_partition_cache_hit_rate", GAUGE, "Partition cache lifetime hit rate",
               ("cache",), "stats.hit_rate"),
        Family("jigsaw_partition_cache_entries", GAUGE,
               "Entries resident in the partition cache", ("cache",), len),
    ),
    "adaptive": (
        *_each("adaptive", GAUGE, "Adaptive daemon lifetime", (
            "n_cycles", "n_migrations", "n_skipped", "n_aborted", "bytes_rewritten",
        )),
        Family("jigsaw_adaptive_drift_score", GAUGE, "Drift score of the last cycle", (),
               "drift_score"),
        Family("jigsaw_adaptive_cycle_outcomes_total", COUNTER, "Daemon cycles by outcome",
               ("outcome",), lambda stats: 1),
    ),
    "wal": (
        *_each("wal", GAUGE, "WAL lifetime", (
            "n_appends", "n_commits", "n_empty_commits", "n_records_committed",
            "bytes_written", "bytes_truncated", "n_batches_replayed", "n_records_replayed",
            "n_truncated_tails", "n_checkpoints",
        ), base="stats."),
        # Bytes appended but not yet folded by a compaction checkpoint — the figure the
        # WAL health rule pages on.
        Family(WAL_BACKLOG_BYTES, GAUGE, "WAL bytes not yet released by a checkpoint truncation",
               (), "backlog_bytes"),
        Family("jigsaw_wal_last_lsn", GAUGE, "Highest LSN assigned by this WAL", (), "last_lsn"),
    ),
    "wal_commit": (
        Family("jigsaw_wal_group_commit_delay_quantiles", SUMMARY,
               "Wall-clock quantiles of one group commit (encode + batch put)", (),
               "stats.last_commit_latency_s"),
    ),
    "txn": (
        Family(TXN_SNAPSHOT_REFCOUNT, GAUGE, "Currently pinned MVCC snapshots", (),
               lambda table: table.manager.snapshot_refcount()),
        Family("jigsaw_txn_catalog_version", GAUGE, "Current catalog version", (),
               "manager.catalog_version"),
        Family("jigsaw_txn_floor_version", GAUGE, "Oldest pinnable catalog version", (),
               lambda table: table.manager.floor_version()),
        Family(TXN_DELTA_SEGMENTS, GAUGE, "Unfolded commit partitions at head", (),
               lambda table: len(table.delta_state().segments)),
        Family("jigsaw_txn_tombstones", GAUGE, "Live tombstoned tids at head", (),
               lambda table: len(table.delta_state().tombstones)),
        Family(TXN_DELTA_BYTES, GAUGE, "Accounted bytes across unfolded commit partitions", (),
               lambda table: sum(s.n_bytes for s in table.delta_state().segments)),
    ),
}


def family_names() -> Tuple[str, ...]:
    """Every declared family name, in catalogue order."""
    return tuple(f.name for group in CATALOG.values() for f in group)


def markdown_table() -> str:
    """The catalogue as the README's metric table."""
    lines = ["| Family | Type | Labels | Meaning |", "|---|---|---|---|"]
    for group in CATALOG.values():
        for f in group:
            labels = ", ".join(f.labels) or "—"
            lines.append(f"| `{f.name}` | {f.kind} | {labels} | {f.help} |")
    return "\n".join(lines)


def _bind(kind: str) -> List[Tuple[Callable, Tuple[str, ...], Callable]]:
    """Resolve one group's metric objects against the shared registry."""
    registry = runtime.get_registry()
    bound = []
    for f in CATALOG[kind]:
        metric = getattr(registry, f.kind)(f.name, f.help, f.labels)
        read = f.source if callable(f.source) else attrgetter(f.source)
        bound.append((metric.record, f.labels, read))
    registry.bound[kind] = bound
    return bound


def publish(kind: str, source: Any, **labels: str) -> None:
    """Copy ``source``'s figures into every family of group ``kind``.

    ``labels`` must cover the label names the group's families declare
    (each family takes the subset it needs).  The metric objects are
    resolved on the first call and reused until the registry is cleared;
    label values are resolved once per distinct label set, not per family.
    """
    if not runtime._METRICS_ENABLED or source is None:
        return
    bound = runtime._REGISTRY.bound.get(kind) or _bind(kind)
    keys: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
    for record, label_names, read in bound:
        value = read(source)
        if isinstance(value, Mapping):
            for label_value, each in value.items():
                record((str(label_value),), each)
            continue
        key = keys.get(label_names)
        if key is None:
            key = keys[label_names] = tuple([str(labels[n]) for n in label_names])
        record(key, value)
