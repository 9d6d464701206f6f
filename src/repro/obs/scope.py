"""The request scope: one telemetry context per user request.

Every request root — an engine's ``execute``, the relational DAG, a
transactional read, a commit, a compaction pass, a scheduler request —
opens a scope (:func:`request_scope`) around its work.  A scope opened
inside another attaches itself to its parent as a *leaf* (engine name, wall
time, a handful of counters) and stays silent; only the **outermost** scope
emits: one :class:`~repro.obs.flight.FlightRecord`, handed to the installed
recorder and walked once through the metric catalogue.  So a partition-wise
join is one record whose leaves are its split scans, and a served query is
one record whose queue wait is the gap between the scope's creation (at
submit) and its entry (in the worker).

With no recorder installed and the metrics gate shut, :func:`request_scope`
returns one shared do-nothing scope: a request root pays a call and a truth
test, and constructs nothing.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from typing import Any, Dict, List, Optional

from . import runtime
from .catalog import publish
from .flight import build_record
from .trace import TraceCollector, Tracer

__all__ = ["RequestScope", "request_scope"]

#: The innermost open scope of the current logical context.
_CURRENT: ContextVar[Optional["RequestScope"]] = ContextVar(
    "obs.request_scope", default=None
)


class RequestScope:
    """One open request; use as a context manager (see the module docstring).

    ``complete`` states what the request produced; anything left unstated is
    taken from the one scope this one wrapped, if it wrapped exactly one
    (:meth:`resolved`) — which is how a scheduler request inherits its
    engine's plan and stats.  An exception leaving the block marks the
    request ``outcome="error"``.
    """

    __slots__ = (
        "engine", "query", "priority", "stats", "plan", "facts", "leaves",
        "outcome", "error", "queue_wait_s", "wall_s",
        "_submitted_s", "_started_s", "_parent", "_inner", "_token",
        "_capture", "_capture_token",
    )

    def __init__(self, engine: str, query=None, priority: str = ""):
        self.engine = engine
        self.query = query
        self.priority = priority
        self.stats = None
        self.plan = None
        #: FlightRecord fields stated outright (table, catalog_version, ...).
        self.facts: Dict[str, Any] = {}
        self.leaves: List[Dict[str, Any]] = []
        self.outcome = "ok"
        self.error = ""
        self.queue_wait_s = 0.0
        self.wall_s = 0.0
        #: a request with a priority crosses the scheduler's queue: its wait
        #: runs from here (submit) to ``__enter__`` (a worker picks it up).
        self._submitted_s = time.perf_counter() if priority else None
        self._started_s = 0.0
        self._parent: Optional[RequestScope] = None
        self._inner: Optional[RequestScope] = None
        self._token = None
        self._capture: Optional[TraceCollector] = None
        self._capture_token = None

    # ------------------------------------------------------------- stating

    def complete(self, stats=None, plan=None, **facts: Any) -> None:
        """State the finished request's ledger, plan and record facts."""
        self.stats = stats
        self.plan = plan
        self.facts.update(facts)

    def add_leaf(self, name: str, wall_s: float) -> None:
        """Attribute ``wall_s`` of this request to a named step."""
        self._inner = None
        self.leaves.append({"engine": name, "wall_s": wall_s})

    def resolved(self, name: str):
        """``stats`` / ``plan``: this scope's, else its only child's."""
        value = getattr(self, name)
        if value is None and self._inner is not None:
            return self._inner.resolved(name)
        return value

    def reject(self, reason: str) -> None:
        """Emit a never-entered scope as an admission rejection."""
        self.outcome, self.error = "rejected", reason
        _emit(self)

    # ------------------------------------------------------------ lifetime

    def __enter__(self) -> "RequestScope":
        self._parent = _CURRENT.get()
        self._token = _CURRENT.set(self)
        recorder = runtime._RECORDER
        if (
            self._parent is None
            and recorder is not None
            and recorder.slow_query_s is not None
            and not runtime.scoped_tracing_active()
        ):
            # Capture spans for the slow-query EXPLAIN ANALYZE — but never
            # steal them from a caller tracing under its own scoped_trace.
            self._capture = TraceCollector(4096)
            self._capture_token = runtime._ACTIVE_TRACER.set(
                Tracer(self._capture)
            )
        self._started_s = time.perf_counter()
        if self._submitted_s is not None:
            self.queue_wait_s = self._started_s - self._submitted_s
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_s = time.perf_counter() - self._started_s
        spans = ()
        if self._capture is not None:
            runtime._ACTIVE_TRACER.reset(self._capture_token)
            spans = self._capture.spans()
        _CURRENT.reset(self._token)
        if exc_type is not None:
            self.outcome = "error"
            self.error = f"{exc_type.__name__}: {exc}"
        parent = self._parent
        if parent is None:
            _emit(self, spans)
            return
        stats = self.resolved("stats")
        leaf = {"engine": self.engine, "wall_s": self.wall_s}
        if stats is not None:
            leaf.update(
                sim_io_s=stats.io_time_s,
                sim_cpu_s=stats.cpu_time_s,
                bytes_read=stats.bytes_read,
                n_partition_reads=stats.n_partition_reads,
                n_result_tuples=stats.n_result_tuples,
            )
        if self.leaves:
            leaf["leaves"] = self.leaves
        if exc_type is not None:
            leaf["outcome"] = "error"
        parent._inner = self if not parent.leaves else None
        parent.leaves.append(leaf)


class _NoScope:
    """The shared scope of an unobserved request: every call is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NoScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def complete(self, stats=None, plan=None, **facts: Any) -> None:
        return None

    def add_leaf(self, name: str, wall_s: float) -> None:
        return None

    def reject(self, reason: str) -> None:
        return None


_NO_SCOPE = _NoScope()


def request_scope(engine: str, query=None, priority: str = ""):
    """A scope for one request under ``engine`` (the shared no-op scope
    unless a recorder is installed or metrics are on)."""
    if runtime._RECORDER is None and not runtime._METRICS_ENABLED:
        return _NO_SCOPE
    return RequestScope(engine, query, priority)


def _emit(root: RequestScope, spans=()) -> None:
    """The outermost scope closed: one record, one pass over the catalogue."""
    recorder = runtime._RECORDER
    if recorder is not None and recorder.closed:
        recorder = None
    stats, plan = root.resolved("stats"), root.resolved("plan")
    record = build_record(root, stats, plan, recorder)
    if recorder is not None:
        recorder.add(record, stats if plan is not None else None, spans)
    if not runtime._METRICS_ENABLED or root.outcome == "rejected":
        return
    labels = {
        "engine": record.engine,
        "priority": record.priority,
        "outcome": record.outcome,
    }
    if stats is not None:
        publish("query", record, **labels)
    if plan is not None:
        publish("cost_model", record, **labels)
    if record.priority:
        publish("served", record, **labels)
