"""Unified observability: one request scope, one metric catalogue, one view.

The engine's subsystems keep exact counters (``ExecutionStats``, ``IOStats``,
``WalStats``, ...); this package *copies* them out, without perturbing a
single simulated figure.  :mod:`~repro.obs.runtime` holds the process-wide
switches (a leaf module); :mod:`~repro.obs.trace` the spans, one per request
step (an engine phase, a worker, a swap, a commit) and never one per
partition read; :mod:`~repro.obs.scope` the request scope every request root
opens, whose outermost instance emits one :mod:`~repro.obs.flight` record
and one pass over the :mod:`~repro.obs.catalog` of metric families
(:mod:`~repro.obs.metrics` is the registry, :mod:`~repro.obs.health` the
rules over it); :mod:`~repro.obs.analyze` builds EXPLAIN ANALYZE, one row per
engine phase; and :mod:`~repro.obs.view` / :mod:`~repro.obs.server` format
the resulting rows as text, JSONL and the four HTTP routes.
"""

from __future__ import annotations

from .analyze import AnalyzeNode, build_analyze_tree, explain_analyze
from .catalog import publish
from .digest import QuantileDigest
from .flight import FlightRecord, FlightRecorder
from .health import (
    HealthMonitor,
    HealthReport,
    HealthRule,
    MetricValue,
    Ratio,
    default_rules,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, Summary
from .runtime import (
    disable,
    enable,
    flight_recorder,
    get_registry,
    global_trace_collector,
    install_flight_recorder,
    metrics_enabled,
    scoped_trace,
    scoped_tracing_active,
    tracer,
    tracing_enabled,
    uninstall_flight_recorder,
)
from .scope import request_scope
from .server import TelemetryServer
from .trace import NoopTracer, Span, TraceCollector, Tracer
from .view import (
    dump_jsonl,
    format_health,
    hotspot_rows,
    hotspot_summary,
    record_rows,
    write_jsonl,
)

__all__ = [
    "AnalyzeNode",
    "Counter",
    "FlightRecord",
    "FlightRecorder",
    "Gauge",
    "HealthMonitor",
    "HealthReport",
    "HealthRule",
    "Histogram",
    "MetricValue",
    "MetricsRegistry",
    "NoopTracer",
    "QuantileDigest",
    "Ratio",
    "Span",
    "Summary",
    "TelemetryServer",
    "TraceCollector",
    "Tracer",
    "build_analyze_tree",
    "default_rules",
    "disable",
    "dump_jsonl",
    "enable",
    "explain_analyze",
    "flight_recorder",
    "format_health",
    "get_registry",
    "global_trace_collector",
    "hotspot_rows",
    "hotspot_summary",
    "install_flight_recorder",
    "metrics_enabled",
    "publish",
    "record_rows",
    "request_scope",
    "scoped_trace",
    "scoped_tracing_active",
    "tracer",
    "tracing_enabled",
    "uninstall_flight_recorder",
    "write_jsonl",
]
