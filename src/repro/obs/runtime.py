"""The process-wide telemetry switches: tracer, registry, recorder slot.

A leaf module — it imports only :mod:`~repro.obs.trace` and
:mod:`~repro.obs.metrics` — so every other module in the package, and
every instrumented call site, reaches the globals without an import cycle.

**Enablement model.**  The module-level tracer defaults to a
:class:`~repro.obs.trace.NoopTracer`; every instrumentation point — the
engines' phases, the planner, the catalog swap, the write path and the
daemon, each opened once per request step and never once per partition —
costs one attribute load and one truth test until :func:`enable` installs a
real tracer.
:func:`scoped_trace` installs a collector for the current logical context
only (it rides a ``ContextVar``, so it propagates into the threaded engines'
workers but never leaks across concurrent callers) — EXPLAIN ANALYZE and the
tests use it to trace one query without flipping any global switch.  Metrics
publication and the flight recorder are gated separately from tracing, so a
long-running server can scrape and keep a query log without paying for spans.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator, Optional

from .metrics import MetricsRegistry
from .trace import NOOP_TRACER, NoopTracer, TraceCollector, Tracer

__all__ = [
    "disable",
    "enable",
    "flight_recorder",
    "get_registry",
    "global_trace_collector",
    "install_flight_recorder",
    "metrics_enabled",
    "scoped_trace",
    "scoped_tracing_active",
    "tracer",
    "tracing_enabled",
    "uninstall_flight_recorder",
]

#: Globally installed tracer (the noop until :func:`enable`).
_GLOBAL_TRACER: Tracer | NoopTracer = NOOP_TRACER
#: Context-local override; wins over the global tracer when set.
_ACTIVE_TRACER: ContextVar[Optional[Tracer]] = ContextVar(
    "obs.active_tracer", default=None
)
_REGISTRY = MetricsRegistry()
_METRICS_ENABLED = False
#: The process-wide :class:`~repro.obs.flight.FlightRecorder` (None until
#: installed).
_RECORDER: Any = None


def tracer() -> Tracer | NoopTracer:
    """The tracer instrumentation points must use (noop unless enabled)."""
    active = _ACTIVE_TRACER.get()
    if active is not None:
        return active
    return _GLOBAL_TRACER


def tracing_enabled() -> bool:
    return tracer().enabled


def scoped_tracing_active() -> bool:
    """True when a context-local tracer (``scoped_trace``) is installed.

    A request scope checks this before capturing spans for the slow-query
    log, so it never steals them from a client that wrapped its call in a
    ``scoped_trace`` of its own.
    """
    return _ACTIVE_TRACER.get() is not None


def metrics_enabled() -> bool:
    return _METRICS_ENABLED


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def global_trace_collector() -> Optional[TraceCollector]:
    """The globally enabled tracer's collector, or None when tracing is
    off (``/hotspots`` reads it)."""
    if isinstance(_GLOBAL_TRACER, Tracer):
        return _GLOBAL_TRACER.collector
    return None


def enable(trace: bool = True, metrics: bool = True) -> Optional[TraceCollector]:
    """Turn observability on globally; returns the live trace collector.

    ``trace`` installs a real tracer over a bounded ring buffer of spans;
    ``metrics`` opens the publication gate for the shared registry.  Returns
    the collector when tracing was enabled, else None.
    """
    global _GLOBAL_TRACER, _METRICS_ENABLED
    result: Optional[TraceCollector] = None
    if trace:
        _GLOBAL_TRACER = Tracer(TraceCollector())
        result = _GLOBAL_TRACER.collector
    if metrics:
        _METRICS_ENABLED = True
    return result


def disable() -> None:
    """Back to the zero-cost default: noop tracer, publication gate shut."""
    global _GLOBAL_TRACER, _METRICS_ENABLED
    _GLOBAL_TRACER = NOOP_TRACER
    _METRICS_ENABLED = False


@contextmanager
def scoped_trace(
    capacity: int = 65536, collector: Optional[TraceCollector] = None
) -> Iterator[TraceCollector]:
    """Trace the current logical context only.

    The installed tracer overrides the global one for code running in this
    context (including worker threads the threaded engines spawn through
    ``contextvars.copy_context``) and is removed on exit.  Yields the
    collector the spans land in.
    """
    if collector is None:
        collector = TraceCollector(capacity)
    token = _ACTIVE_TRACER.set(Tracer(collector))
    try:
        yield collector
    finally:
        _ACTIVE_TRACER.reset(token)


def install_flight_recorder(recorder):
    """Make ``recorder`` the process-wide recorder (closing any previous)."""
    global _RECORDER
    previous, _RECORDER = _RECORDER, recorder
    if previous is not None and previous is not recorder:
        previous.close()
    return recorder


def flight_recorder():
    return _RECORDER


def uninstall_flight_recorder(close: bool = True) -> None:
    global _RECORDER
    previous, _RECORDER = _RECORDER, None
    if previous is not None and close:
        previous.close()
