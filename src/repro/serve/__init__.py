"""The query-serving tier: concurrent scheduling + semantic caching.

Two components turn the one-query-at-a-time engines into a server:

* :class:`QueryScheduler` (:mod:`repro.serve.scheduler`) — a bounded
  worker pool over the existing planner/operator pipeline, with two-level
  priorities, per-engine concurrency caps, and admission control (a full
  queue raises :class:`AdmissionRejected` instead of queueing into
  unbounded latency);
* :class:`PartitionCache` (:mod:`repro.serve.cache`) — memoized pruning
  verdicts keyed by normalized-predicate signature + the pinned view's
  catalog version, replayed into new plans so overlapping queries skip
  zone/sketch classification, invalidated on every catalog commit.

Both are engine-agnostic: the scheduler duck-types ``execute`` and the
cache plugs into :class:`~repro.plan.physical.QueryPlanner` via the
``partition_cache`` knob every engine driver exposes.
"""

from .cache import CacheStats, PartitionCache, predicate_signature
from .replay import ReplayReport, build_client_mix, run_replay
from .scheduler import (
    PRIORITY_HIGH,
    PRIORITY_NORMAL,
    AdmissionRejected,
    EngineBinding,
    QueryScheduler,
    QueryTicket,
)

__all__ = [
    "AdmissionRejected",
    "CacheStats",
    "EngineBinding",
    "PRIORITY_HIGH",
    "PRIORITY_NORMAL",
    "PartitionCache",
    "QueryScheduler",
    "QueryTicket",
    "ReplayReport",
    "build_client_mix",
    "predicate_signature",
    "run_replay",
]
