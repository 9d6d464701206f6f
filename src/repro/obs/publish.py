"""The bridge from the stats dataclasses into the metrics registry.

The instrumented dataclasses stay the single source of truth; these helpers
*copy* their figures into the shared registry at natural boundaries — end of
a query, end of an adaptive cycle, a scrape — so nothing in the hot path
changes and the simulated accounting stays byte-identical to an unobserved
run.  Every helper is gated on :func:`repro.obs.metrics_enabled` and costs
one function call plus one truth test when metrics are off.

Metric names follow ``jigsaw_<subsystem>_<what>[_unit]``:

* ``jigsaw_queries_total{engine=…}``, ``jigsaw_query_*`` — per-engine query
  counters (reads, pruned, bytes, cache/pool hits, retries, degraded reads,
  simulated io/cpu seconds) published by :func:`record_query`;
* ``jigsaw_cost_model_*`` — estimated-vs-observed drift per query, the
  cost-model miscalibration signal;
* ``jigsaw_pool_*`` — buffer-pool lifetime counters and hit rate;
* ``jigsaw_faults_*`` — injected-fault totals;
* ``jigsaw_adaptive_*`` — daemon cycle/migration outcomes.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "publish_adaptation",
    "publish_buffer_pool",
    "publish_fault_stats",
    "publish_partition_cache",
    "publish_serve",
    "publish_txn",
    "publish_wal",
    "record_query",
]

#: (metric suffix, ExecutionStats field) pairs record_query publishes as
#: per-engine counters.
_QUERY_COUNTERS = (
    ("partition_reads_total", "n_partition_reads"),
    ("partitions_pruned_total", "n_partitions_pruned"),
    ("partitions_skipped_total", "n_partitions_skipped"),
    ("cells_scanned_total", "cells_scanned"),
    ("bytes_read_total", "bytes_read"),
    ("cache_hits_total", "n_cache_hits"),
    ("pool_hits_total", "n_pool_hits"),
    ("retries_total", "n_retries"),
    ("degraded_reads_total", "n_degraded_reads"),
    ("result_tuples_total", "n_result_tuples"),
    ("sim_io_seconds_total", "io_time_s"),
    ("sim_cpu_seconds_total", "cpu_time_s"),
)


def record_query(engine: str, plan, stats, query=None) -> None:
    """Publish one finished query's stats (and cost-model drift) per engine.

    ``plan`` is the :class:`~repro.plan.physical.PhysicalPlan` the query ran
    under (or None, e.g. for a replica-local fast path with no standard
    plan); ``stats`` its final ``ExecutionStats``; ``query`` the executed
    :class:`~repro.core.query.Query` when the driver has it in scope.

    This is the single point every engine driver passes through at query
    completion, so the flight recorder hooks here — *before* the metrics
    gate, because the flight log works with metrics off.
    """
    from . import get_registry, metrics_enabled
    from .flight import note_query

    note_query(engine, plan, stats, query=query)
    if not metrics_enabled():
        return
    registry = get_registry()
    registry.counter(
        "jigsaw_queries_total", "Queries executed", ("engine",)
    ).inc(engine=engine)
    for suffix, field_name in _QUERY_COUNTERS:
        amount = getattr(stats, field_name)
        if amount:
            registry.counter(
                f"jigsaw_query_{suffix}",
                f"Per-query {field_name} accumulated",
                ("engine",),
            ).inc(amount, engine=engine)
    registry.histogram(
        "jigsaw_query_sim_seconds",
        "Simulated io+cpu seconds per query",
        ("engine",),
    ).observe(stats.simulated_time_s, engine=engine)

    if plan is not None:
        estimated = getattr(plan, "estimated_bytes", 0)
        observed = stats.bytes_read
        registry.gauge(
            "jigsaw_cost_model_estimated_bytes",
            "Cost-model estimated bytes of the last query",
            ("engine",),
        ).set(estimated, engine=engine)
        registry.gauge(
            "jigsaw_cost_model_observed_bytes",
            "Observed bytes read by the last query",
            ("engine",),
        ).set(observed, engine=engine)
        # Signed drift: >1 means the model over-estimated, <1 under.
        ratio = estimated / observed if observed else 0.0
        registry.gauge(
            "jigsaw_cost_model_drift_ratio",
            "Estimated/observed bytes of the last query",
            ("engine",),
        ).set(ratio, engine=engine)
        registry.counter(
            "jigsaw_cost_model_abs_error_bytes_total",
            "Accumulated |estimated - observed| bytes",
            ("engine",),
        ).inc(abs(estimated - observed), engine=engine)


def publish_buffer_pool(pool, name: str = "main") -> None:
    """Snapshot a :class:`~repro.storage.buffer_pool.BufferPool`'s counters."""
    from . import get_registry, metrics_enabled

    if not metrics_enabled() or pool is None:
        return
    registry = get_registry()
    stats = pool.stats
    for field_name in (
        "n_hits",
        "n_misses",
        "n_insertions",
        "n_evictions",
        "n_invalidations",
        "hit_bytes",
        "evicted_bytes",
    ):
        registry.gauge(
            f"jigsaw_pool_{field_name}",
            f"Buffer pool lifetime {field_name}",
            ("pool",),
        ).set(getattr(stats, field_name), pool=name)
    registry.gauge(
        "jigsaw_pool_hit_rate", "Buffer pool lifetime hit rate", ("pool",)
    ).set(stats.hit_rate, pool=name)
    registry.gauge(
        "jigsaw_pool_current_bytes", "Bytes resident in the pool", ("pool",)
    ).set(pool.current_bytes, pool=name)


def publish_fault_stats(stats) -> None:
    """Snapshot a :class:`~repro.storage.faults.FaultStats`."""
    from . import get_registry, metrics_enabled

    if not metrics_enabled() or stats is None:
        return
    registry = get_registry()
    for field_name in (
        "n_gets",
        "n_transient_errors",
        "n_truncations",
        "n_bit_flips",
        "n_latency_spikes",
    ):
        registry.gauge(
            f"jigsaw_faults_{field_name}",
            f"Fault injector lifetime {field_name}",
        ).set(getattr(stats, field_name))
    registry.gauge(
        "jigsaw_faults_latency_injected_seconds",
        "Simulated latency injected by fault spikes",
    ).set(stats.latency_injected_s)


def publish_serve(scheduler, ticket=None) -> None:
    """Snapshot a :class:`~repro.serve.QueryScheduler`'s load figures.

    Called at the natural boundaries — submit and request completion — so
    the gauges track queue depth and per-engine occupancy without a scrape
    thread.  ``ticket`` (a finished :class:`~repro.serve.QueryTicket`) adds
    the per-request counters and latency observation.
    """
    from . import get_registry, metrics_enabled

    if not metrics_enabled() or scheduler is None:
        return
    registry = get_registry()
    for priority, depth in scheduler.pending().items():
        registry.gauge(
            "jigsaw_serve_queue_depth",
            "Pending requests per priority level",
            ("priority",),
        ).set(depth, priority=priority)
    for engine, inflight in scheduler.occupancy().items():
        registry.gauge(
            "jigsaw_serve_inflight",
            "In-flight queries per engine",
            ("engine",),
        ).set(inflight, engine=engine)
    registry.gauge(
        "jigsaw_serve_rejected_total", "Requests refused by admission control"
    ).set(scheduler.n_rejected)
    registry.gauge(
        "jigsaw_serve_submitted_total", "Requests accepted by the scheduler"
    ).set(scheduler.n_submitted)
    if ticket is None:
        return
    outcome = "error" if ticket.error is not None else "ok"
    registry.counter(
        "jigsaw_serve_requests_total",
        "Requests served, by engine/priority/outcome",
        ("engine", "priority", "outcome"),
    ).inc(engine=ticket.engine, priority=ticket.priority, outcome=outcome)
    registry.histogram(
        "jigsaw_serve_latency_seconds",
        "Submit-to-done wall latency",
        ("engine",),
    ).observe(ticket.latency_s, engine=ticket.engine)
    registry.histogram(
        "jigsaw_serve_queue_wait_seconds",
        "Submit-to-start wall wait",
        ("priority",),
    ).observe(ticket.queue_wait_s, priority=ticket.priority)
    # Streaming SLO quantiles: deterministic mergeable digests, so p50/p95/
    # p99 render live in the exposition per engine×priority / per priority.
    registry.summary(
        "jigsaw_serve_latency_quantiles",
        "Submit-to-done wall latency quantiles",
        ("engine", "priority"),
    ).observe(
        ticket.latency_s, engine=ticket.engine, priority=ticket.priority
    )
    registry.summary(
        "jigsaw_serve_queue_wait_quantiles",
        "Submit-to-start wall wait quantiles",
        ("priority",),
    ).observe(ticket.queue_wait_s, priority=ticket.priority)


def publish_partition_cache(cache, name: str = "main") -> None:
    """Snapshot a :class:`~repro.serve.PartitionCache`'s counters."""
    from . import get_registry, metrics_enabled

    if not metrics_enabled() or cache is None:
        return
    registry = get_registry()
    stats = cache.stats
    for field_name in (
        "n_hits",
        "n_misses",
        "n_records",
        "n_stale_drops",
        "n_invalidated",
        "n_evicted",
    ):
        registry.gauge(
            f"jigsaw_partition_cache_{field_name}",
            f"Partition cache lifetime {field_name}",
            ("cache",),
        ).set(getattr(stats, field_name), cache=name)
    registry.gauge(
        "jigsaw_partition_cache_hit_rate",
        "Partition cache lifetime hit rate",
        ("cache",),
    ).set(stats.hit_rate, cache=name)
    registry.gauge(
        "jigsaw_partition_cache_entries",
        "Entries resident in the partition cache",
        ("cache",),
    ).set(len(cache), cache=name)


def publish_adaptation(stats, cycle_outcome: Optional[str] = None) -> None:
    """Snapshot an ``AdaptationStats`` after a daemon cycle."""
    from . import get_registry, metrics_enabled

    if not metrics_enabled() or stats is None:
        return
    registry = get_registry()
    for field_name in (
        "n_cycles",
        "n_migrations",
        "n_skipped",
        "n_aborted",
        "bytes_rewritten",
    ):
        registry.gauge(
            f"jigsaw_adaptive_{field_name}",
            f"Adaptive daemon lifetime {field_name}",
        ).set(getattr(stats, field_name))
    registry.gauge(
        "jigsaw_adaptive_drift_score", "Drift score of the last cycle"
    ).set(stats.drift_score)
    if cycle_outcome is not None:
        registry.counter(
            "jigsaw_adaptive_cycle_outcomes_total",
            "Daemon cycles by outcome",
            ("outcome",),
        ).inc(outcome=cycle_outcome)


def publish_wal(wal) -> None:
    """Publish one WAL's commit/replay counters and fsync latencies.

    Called by :class:`~repro.txn.table.TransactionalTable` after each group
    commit.  The latency histograms observe only commits not yet published
    (the stats list is drained), so repeated calls never double-count.
    """
    from . import get_registry, metrics_enabled

    if not metrics_enabled() or wal is None:
        return
    registry = get_registry()
    stats = wal.stats
    for field_name in (
        "n_appends",
        "n_commits",
        "n_empty_commits",
        "n_records_committed",
        "bytes_written",
        "bytes_truncated",
        "n_batches_replayed",
        "n_records_replayed",
        "n_truncated_tails",
        "n_checkpoints",
    ):
        registry.gauge(
            f"jigsaw_wal_{field_name}",
            f"WAL lifetime {field_name}",
        ).set(getattr(stats, field_name))
    # Backlog = bytes appended but not yet folded by a compaction
    # checkpoint (truncate_through) — the figure the WAL health rule pages
    # on.
    registry.gauge(
        "jigsaw_wal_backlog_bytes",
        "WAL bytes not yet released by a checkpoint truncation",
    ).set(max(0, stats.bytes_written - stats.bytes_truncated))
    registry.gauge(
        "jigsaw_wal_last_lsn", "Highest LSN assigned by this WAL"
    ).set(wal.last_lsn)
    commit_hist = registry.histogram(
        "jigsaw_wal_group_commit_seconds",
        "Wall-clock latency of one group commit (encode + batch put)",
    )
    fsync_hist = registry.histogram(
        "jigsaw_wal_fsync_seconds",
        "Wall-clock latency of the simulated fsync (the batch blob put)",
    )
    commit_summary = registry.summary(
        "jigsaw_wal_group_commit_delay_quantiles",
        "Group-commit delay quantiles (streaming digest)",
    )
    drained, stats.commit_latencies_s = stats.commit_latencies_s, []
    for latency in drained:
        commit_hist.observe(latency)
        fsync_hist.observe(latency)
        commit_summary.observe(latency)


def publish_txn(table) -> None:
    """Snapshot a transactional table's MVCC and delta-state gauges (a
    *segment* is a commit partition no compaction pass has taken yet)."""
    from . import get_registry, metrics_enabled

    if not metrics_enabled() or table is None:
        return
    registry = get_registry()
    manager = table.manager
    registry.gauge(
        "jigsaw_txn_snapshot_refcount",
        "Currently pinned MVCC snapshots",
    ).set(manager.snapshot_refcount())
    registry.gauge(
        "jigsaw_txn_catalog_version", "Current catalog version"
    ).set(manager.catalog_version)
    registry.gauge(
        "jigsaw_txn_floor_version", "Oldest pinnable catalog version"
    ).set(manager.floor_version())
    state = table.delta_state()
    registry.gauge(
        "jigsaw_txn_delta_segments", "Unfolded commit partitions at head"
    ).set(len(state.segments))
    registry.gauge(
        "jigsaw_txn_tombstones", "Live tombstoned tids at head"
    ).set(len(state.tombstones))
    registry.gauge(
        "jigsaw_txn_delta_bytes",
        "Accounted bytes across unfolded commit partitions",
    ).set(sum(segment.n_bytes for segment in state.segments))
