"""The flight recorder: a bounded ring of one record per request.

Spans answer "where did *this* query spend its time"; metrics answer "how
is the system doing *now*".  Neither answers the operator question that
drives reclustering and capacity decisions — *what were the slowest
requests in the last hour, and why* — after the requests have returned.  The
flight recorder keeps that: a bounded, thread-safe ring of
:class:`FlightRecord` entries, one per **user request**, built in one place
(:func:`build_record`) from the outermost
:class:`~repro.obs.scope.RequestScope` when it closes.  A join is one record
with its table scans as ``leaves``; a served query is one record carrying
queue wait and priority; a commit, a fold and an admission rejection are one
record each.  ``wall_time_s`` splits exactly into the leaves' walls plus
``unattributed_s``.

* **Zero perturbation.** The recorder only *reads* finished
  ``ExecutionStats``; a recorder-on run is bit-identical to a recorder-off
  run on the simulated accounting (a tier-1 test sweeps the 576-entry stats
  snapshot both ways).
* **Slow-query log.** Records whose latency crosses ``slow_query_s`` are
  flagged and carry the rendered EXPLAIN ANALYZE tree of the spans the
  scope captured for the request (one row per engine phase), so the "why"
  survives beside the "how long".
* **Export.** The ring is in-process; :func:`~repro.obs.view.record_rows`
  plus :func:`~repro.obs.view.write_jsonl` dump it as JSONL (the CLI's
  ``--flight-out``).
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence

from .analyze import ROOT_SPAN, build_analyze_tree, exact_residual

__all__ = ["FlightRecord", "FlightRecorder", "build_record"]


@dataclass(slots=True)
class FlightRecord:
    """One completed (or failed, or rejected) request, flattened for JSONL."""

    seq: int
    ts_unix_s: float
    engine: str
    query: str = ""
    label: str = ""
    table: str = ""
    priority: str = ""
    outcome: str = "ok"
    latency_s: float = 0.0
    queue_wait_s: float = 0.0
    wall_time_s: float = 0.0
    #: ``wall_time_s`` not covered by any leaf (exact: see ``exact_residual``).
    unattributed_s: float = 0.0
    sim_io_s: float = 0.0
    sim_cpu_s: float = 0.0
    bytes_read: int = 0
    cells_scanned: int = 0
    n_partition_reads: int = 0
    n_partitions_skipped: int = 0
    n_partitions_pruned: int = 0
    n_partitions_zonemap_pruned: int = 0
    n_partitions_sketch_pruned: int = 0
    n_partitions_cache_pruned: int = 0
    n_cache_hits: int = 0
    n_pool_hits: int = 0
    n_retries: int = 0
    n_degraded_reads: int = 0
    n_unreadable_partitions: int = 0
    n_result_tuples: int = 0
    estimated_bytes: int = 0
    catalog_version: int = -1
    slow: bool = False
    error: str = ""
    explain: str = ""
    #: the request's direct children (nested scopes and named steps), each
    #: ``{"engine", "wall_s", ...counters, "leaves"}``.
    leaves: List[Dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FlightRecord":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


#: FlightRecord field <- ExecutionStats attribute.
_STATS_FIELDS = (
    ("sim_io_s", "io_time_s"),
    ("sim_cpu_s", "cpu_time_s"),
    *((name, name) for name in (
        "bytes_read", "cells_scanned", "n_partition_reads",
        "n_partitions_skipped", "n_partitions_pruned",
        "n_partitions_sketch_pruned", "n_partitions_cache_pruned",
        "n_cache_hits", "n_pool_hits", "n_retries", "n_degraded_reads",
        "n_unreadable_partitions", "n_result_tuples",
    )),
)


def build_record(
    scope, stats, plan, recorder: Optional["FlightRecorder"] = None
) -> FlightRecord:
    """Flatten one finished root scope into its record (pure reads) — the
    only place a :class:`FlightRecord` is made.

    ``stats`` and ``plan`` are the scope's resolved ones: its own or, for a
    pass-through root (the scheduler, a transactional read), those of the
    one scope it wrapped; explicit ``scope.facts`` win over both.
    """
    query = scope.query
    counters = {name: getattr(stats, attr, 0) for name, attr in _STATS_FIELDS}
    leaves = scope.leaves
    record = FlightRecord(
        seq=recorder.next_seq() if recorder is not None else -1,
        ts_unix_s=time.time(),
        engine=scope.engine,
        query=repr(query) if query is not None else "",
        label=getattr(query, "label", "") or "",
        priority=scope.priority,
        outcome=scope.outcome,
        error=scope.error,
        latency_s=scope.queue_wait_s + scope.wall_s,
        queue_wait_s=scope.queue_wait_s,
        wall_time_s=scope.wall_s,
        unattributed_s=exact_residual(
            scope.wall_s, [leaf["wall_s"] for leaf in leaves]
        ) if leaves else scope.wall_s,
        n_partitions_zonemap_pruned=max(
            0,
            counters["n_partitions_pruned"]
            - counters["n_partitions_sketch_pruned"]
            - counters["n_partitions_cache_pruned"],
        ),
        leaves=leaves,
        **counters,
    )
    if plan is not None:
        record.estimated_bytes = int(getattr(plan, "estimated_bytes", 0))
        record.catalog_version = getattr(plan, "catalog_version", -1)
        manager = getattr(plan, "manager", None)
        record.table = getattr(manager, "key_prefix", "") or ""
    for name, value in scope.facts.items():
        setattr(record, name, value)
    return record


class FlightRecorder:
    """Bounded thread-safe ring of per-query records.

    ``slow_query_s`` flags records at or above the threshold and keeps
    their EXPLAIN ANALYZE (from the spans the request scope captured).
    """

    def __init__(
        self, capacity: int = 2048, slow_query_s: Optional[float] = None
    ):
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = int(capacity)
        self.slow_query_s = slow_query_s
        self._lock = threading.Lock()
        self._ring: Deque[FlightRecord] = deque(maxlen=self.capacity)
        self._slow: Deque[FlightRecord] = deque(maxlen=max(64, capacity // 8))
        self._next_seq = 0
        self._closed = False
        # lifetime accounting
        self.n_recorded = 0
        self.n_slow = 0
        self.n_errors = 0
        self.n_rejections = 0

    # ------------------------------------------------------------- capture

    def next_seq(self) -> int:
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
        return seq

    def add(
        self, record: FlightRecord, stats=None, spans: Sequence[Any] = ()
    ) -> FlightRecord:
        """Retain one finished record: flag it slow (rendering its EXPLAIN
        ANALYZE from the request's ``stats`` and captured ``spans``), then
        ring it.  A closed recorder drops it."""
        if (
            self.slow_query_s is not None
            and record.latency_s >= self.slow_query_s
        ):
            record.slow = True
            if spans and stats is not None:
                record.explain = self._render_explain(record, stats, spans)
        with self._lock:
            if self._closed:
                return record
            self._ring.append(record)
            self.n_recorded += 1
            if record.slow:
                self._slow.append(record)
                self.n_slow += 1
            if record.outcome == "error":
                self.n_errors += 1
            elif record.outcome == "rejected":
                self.n_rejections += 1
        return record

    def _render_explain(self, record: FlightRecord, stats, spans) -> str:
        """EXPLAIN ANALYZE text from the request's captured spans.

        Under a scheduler the ``exec.query`` span nests beneath the
        ``serve.request`` span, which lives in a *different* collector —
        re-root such spans so the tree builder finds them.  Never lets a
        render problem break serving.
        """
        try:
            span_ids = {s.span_id for s in spans}
            normalized = [
                replace(s, parent_id=None)
                if s.name == ROOT_SPAN
                and s.parent_id is not None
                and s.parent_id not in span_ids
                else s
                for s in spans
            ]
            return build_analyze_tree(
                normalized, stats, engine=record.engine
            ).render()
        except Exception:  # pragma: no cover - defensive
            return ""

    def close(self) -> None:
        """Refuse further records (idempotent: scheduler teardown paths may
        run it more than once)."""
        with self._lock:
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    # ----------------------------------------------------------- query API

    def records(
        self,
        engine: Optional[str] = None,
        table: Optional[str] = None,
        outcome: Optional[str] = None,
        slow: Optional[bool] = None,
        since_unix_s: Optional[float] = None,
        until_unix_s: Optional[float] = None,
        n: Optional[int] = None,
    ) -> List[FlightRecord]:
        """Filtered records, oldest first (``n`` keeps the newest n)."""
        with self._lock:
            snapshot = list(self._ring)
        out = [
            r
            for r in snapshot
            if (engine is None or r.engine == engine)
            and (table is None or r.table == table)
            and (outcome is None or r.outcome == outcome)
            and (slow is None or r.slow == slow)
            and (since_unix_s is None or r.ts_unix_s >= since_unix_s)
            and (until_unix_s is None or r.ts_unix_s <= until_unix_s)
        ]
        if n is not None:
            out = out[-n:]
        return out

    def top_n(
        self, n: int = 10, key: str = "latency_s", **filters: Any
    ) -> List[FlightRecord]:
        """The n worst records by ``key`` (any numeric field), worst first."""
        ranked = sorted(
            self.records(**filters),
            key=lambda r: getattr(r, key),
            reverse=True,
        )
        return ranked[:n]

    def slow_queries(self, n: Optional[int] = None) -> List[FlightRecord]:
        with self._lock:
            out = list(self._slow)
        return out[-n:] if n is not None else out

    def percentile(
        self, q: float, key: str = "latency_s", **filters: Any
    ) -> float:
        """Exact percentile of ``key`` over the retained records."""
        values = sorted(getattr(r, key) for r in self.records(**filters))
        if not values:
            return 0.0
        rank = max(1, int(math.ceil(q * len(values))))
        return float(values[rank - 1])

    def summary(self) -> Dict[str, Any]:
        """Aggregate view for ``/queries`` and the CLI."""
        records = self.records()
        by_engine: Dict[str, int] = {}
        by_outcome: Dict[str, int] = {}
        for r in records:
            by_engine[r.engine] = by_engine.get(r.engine, 0) + 1
            by_outcome[r.outcome] = by_outcome.get(r.outcome, 0) + 1
        return {
            "n_retained": len(records),
            "n_recorded": self.n_recorded,
            "n_slow": self.n_slow,
            "n_errors": self.n_errors,
            "n_rejections": self.n_rejections,
            "by_engine": by_engine,
            "by_outcome": by_outcome,
            "latency_p50_s": self.percentile(0.50),
            "latency_p95_s": self.percentile(0.95),
            "latency_p99_s": self.percentile(0.99),
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlightRecorder({len(self)}/{self.capacity} retained, "
            f"recorded={self.n_recorded}, slow={self.n_slow})"
        )

