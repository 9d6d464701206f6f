"""Tracing spans: lightweight, nestable, thread-aware, zero-cost when off.

A :class:`Span` is one timed region of work — a query execution, an engine
phase, a worker thread's share of a phase, an adaptive-daemon cycle — with
monotonic wall-clock timing plus *simulated* io/cpu-time attribution stored
in its attribute dict.  Spans follow the request, not the layout: no span
is opened per partition read, so a trace's size does not grow with the
number of partitions a query touches; a phase span's ``ExecutionStats``
delta carries the reads, bytes and pool hits of every partition it loaded.

Spans nest: the active span is tracked in a
:class:`contextvars.ContextVar`, so nesting follows the call stack, survives
generators, and — crucially for the Jigsaw-L/S protocols — propagates into
worker threads spawned through :func:`contextvars.copy_context`.

Finished spans land in a :class:`TraceCollector`, a thread-safe bounded ring
buffer (oldest spans fall off; a profile run can never exhaust memory).

Observability must never perturb semantics: the tracer only *reads* the
engines' counters, and the default tracer is a :class:`NoopTracer` whose
``span()`` returns one shared do-nothing context manager — a disabled call
site costs an attribute load and a truth test, nothing more.  The
differential-oracle regression in ``tests/obs`` holds a fully traced run to
byte-identical simulated accounting against an untraced one.
"""

from __future__ import annotations

import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from operator import attrgetter, sub
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Span",
    "TraceCollector",
    "Tracer",
    "NoopTracer",
    "NOOP_TRACER",
    "STATS_COUNTER_FIELDS",
]

#: ``ExecutionStats`` fields a phase span snapshots at entry/exit.  Everything
#: additive lives here; ``cpu_time_s`` and ``wall_time_s`` are excluded (the
#: former is derived from the counters once per query, the latter is real
#: time) and ``n_result_tuples`` is a final assignment, not an accumulator.
STATS_COUNTER_FIELDS: Tuple[str, ...] = (
    "bytes_read",
    "io_time_s",
    "n_partition_reads",
    "n_partitions_skipped",
    "n_partitions_pruned",
    "n_partitions_sketch_pruned",
    "n_cache_hits",
    "n_pool_hits",
    "n_retries",
    "cells_scanned",
    "cells_gathered",
    "hash_inserts",
    "hash_updates",
    "materialized_bytes",
    "tuples_iterated",
)

#: one ``ExecutionStats``'s counter fields, as a tuple.
_snapshot = attrgetter(*STATS_COUNTER_FIELDS)


@dataclass(slots=True)
class Span:
    """One finished (or in-flight) traced region.

    ``sim_io_s`` / ``sim_cpu_s`` are *simulated* seconds attributed to this
    span (device model + CPU event model); ``start_s`` / ``end_s`` are real
    monotonic ``perf_counter`` readings.  ``attrs`` carries everything else —
    stats deltas, byte counts, the engine or worker a span belongs to.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    end_s: float = 0.0
    thread_id: int = 0
    sim_io_s: float = 0.0
    sim_cpu_s: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return max(0.0, self.end_s - self.start_s)

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes (chainable)."""
        self.attrs.update(attrs)
        return self

    def as_dict(self) -> Dict[str, Any]:
        """Plain-JSON shape used by the JSONL exporter."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "wall_s": self.wall_s,
            "thread_id": self.thread_id,
            "sim_io_s": self.sim_io_s,
            "sim_cpu_s": self.sim_cpu_s,
            "attrs": dict(self.attrs),
        }


class TraceCollector:
    """Thread-safe bounded ring buffer of finished spans."""

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError("trace collector capacity must be positive")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._next_id = 0
        #: finished spans that fell off the ring (monotonic).
        self.n_dropped = 0

    def next_span_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    def collect(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
            if len(self._spans) > self.capacity:
                overflow = len(self._spans) - self.capacity
                del self._spans[:overflow]
                self.n_dropped += overflow

    def spans(self) -> Tuple[Span, ...]:
        """Finished spans, oldest first (children finish before parents)."""
        with self._lock:
            return tuple(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TraceCollector({len(self)} spans, capacity={self.capacity}, "
            f"dropped={self.n_dropped})"
        )


#: The active span of the current logical context.  ``copy_context().run``
#: in the threaded engines carries it into worker threads, which is what
#: makes worker spans nest under the coordinator's phase span.
_CURRENT_SPAN: ContextVar[Optional[Span]] = ContextVar(
    "obs.current_span", default=None
)


class _SpanContext:
    """The context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("tracer", "span", "_token")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span
        self._token = None

    def __enter__(self) -> Span:
        self._token = _CURRENT_SPAN.set(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        span = self.span
        span.end_s = time.perf_counter()
        if exc_type is not None:
            span.attrs.setdefault("error", exc_type.__name__)
        _CURRENT_SPAN.reset(self._token)
        self.tracer.collector.collect(span)


class _PhaseContext(_SpanContext):
    """A span that also captures one ``ExecutionStats`` ledger's counter
    delta.

    The delta lands in the span's attrs, its ``io_time_s`` component becomes
    ``sim_io_s``, and — when a ``cpu_model`` is given — the event counters
    are priced into ``sim_cpu_s`` exactly as ``ExecutionStats.charge_cpu``
    would price them.
    """

    __slots__ = ("stats", "cpu_model", "_before")

    def __init__(self, tracer: "Tracer", span: Span, stats, cpu_model):
        super().__init__(tracer, span)
        self.stats = stats
        self.cpu_model = cpu_model
        self._before: Tuple[Any, ...] = ()

    def __enter__(self) -> Span:
        self._before = _snapshot(self.stats)
        return super().__enter__()

    def __exit__(self, exc_type, exc, tb) -> None:
        after = _snapshot(self.stats)
        delta = dict(zip(STATS_COUNTER_FIELDS, map(sub, after, self._before)))
        span = self.span
        span.attrs.update(delta)
        span.sim_io_s = delta["io_time_s"]
        if self.cpu_model is not None:
            span.sim_cpu_s = self.cpu_model.cpu_time(
                cells_scanned=delta["cells_scanned"],
                cells_gathered=delta["cells_gathered"],
                hash_inserts=delta["hash_inserts"],
                hash_updates=delta["hash_updates"],
                materialized_bytes=delta["materialized_bytes"],
                tuples_iterated=delta["tuples_iterated"],
            )
        super().__exit__(exc_type, exc, tb)


class Tracer:
    """Creates spans against one collector.  ``enabled`` is always True."""

    enabled = True

    __slots__ = ("collector",)

    def __init__(self, collector: Optional[TraceCollector] = None):
        self.collector = collector if collector is not None else TraceCollector()

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a nested span; use as ``with tracer.span("x", pid=3):``."""
        return _SpanContext(self, self._make_span(name, attrs))

    def phase(self, name: str, stats, cpu_model=None, **attrs: Any):
        """A span that records the counters the region accrues to the
        ``ExecutionStats`` ledger ``stats``."""
        return _PhaseContext(self, self._make_span(name, attrs), stats, cpu_model)

    def _make_span(self, name: str, attrs: Dict[str, Any]) -> Span:
        parent = _CURRENT_SPAN.get()
        return Span(
            span_id=self.collector.next_span_id(),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            start_s=time.perf_counter(),
            thread_id=threading.get_ident(),
            attrs=attrs,
        )


class _NoopContext:
    """Shared do-nothing context manager; yields a shared dead span."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return _NOOP_SPAN

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class NoopTracer:
    """The default tracer: every operation is a no-op.

    One shared context-manager object and one shared span are handed to
    every caller, so a disabled call site allocates nothing.
    """

    enabled = False

    __slots__ = ()

    def span(self, name: str, **attrs: Any) -> _NoopContext:
        return _NOOP_CONTEXT

    def phase(self, name: str, stats, cpu_model=None, **attrs: Any):
        return _NOOP_CONTEXT


class _DeadSpan(Span):
    """The shared span behind the noop context: discards every write, so
    repeated use through different call sites cannot accumulate state."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "Span":
        return self


_NOOP_SPAN = _DeadSpan(span_id=-1, parent_id=None, name="noop", start_s=0.0)
_NOOP_CONTEXT = _NoopContext()
NOOP_TRACER = NoopTracer()
