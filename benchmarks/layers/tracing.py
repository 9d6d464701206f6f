"""Outside-in tracing for the layer benchmark.

Nothing under ``src/`` knows about this file.  The traced pass installs
wrappers around the *public* functions of each layer (the list lives in
``adapters.TRACE_TARGETS``) and a :class:`TimedBlobStore` proxy around the
layout's blob store; every wrapped call records one span

    ``(id, name, start, end, parent, request, thread, label)``

into an in-memory list.  The current span rides a ``ContextVar``, so spans
opened on a scheduler worker parent to the client's request span (the
scheduler copies the context at submit).  A layer's *self* time is its span
minus the part its children cover; per request the self times sum to the
request's latency.  Spans are written as JSONL when the run ends.

Calls made while no request is open (set-up, warm-up, oracle evaluation) are
passed straight through and record nothing.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: index of the span that is open in this logical context, or None.
CURRENT: ContextVar[Optional[int]] = ContextVar("layers_current_span", default=None)

# positions inside one span record
_, NAME, START, END, PARENT, REQUEST, _, _ = range(8)
SPAN_KEYS = ("id", "name", "start", "end", "parent", "request", "thread", "label")


class SpanLog:
    """Append-only span list shared by every wrapper of one traced pass."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()

    def begin(
        self, name: str, start: Optional[float] = None, label: Optional[str] = None
    ) -> int:
        """Open a span under the context's current span; returns its id.
        ``label`` tags a root span with its op class (point, commit, ...)."""
        parent = CURRENT.get()
        with self._lock:
            span_id = next(self._ids)
            request = span_id if parent is None else self.spans[parent][REQUEST]
            self.spans.append([
                span_id, name, perf_counter() if start is None else start,
                None, parent, request, threading.get_ident(), label,
            ])
        return span_id

    def end(self, span_id: int, end: Optional[float] = None) -> None:
        self.spans[span_id][END] = perf_counter() if end is None else end

    def record(self, name: str, start: float, end: float) -> int:
        """A closed span with known bounds (e.g. the scheduler's queue wait,
        which the ticket reports after the fact)."""
        span_id = self.begin(name, start)
        self.end(span_id, end)
        return span_id

    @contextmanager
    def span(self, name: str, label: Optional[str] = None) -> Iterator[int]:
        span_id = self.begin(name, label=label)
        token = CURRENT.set(span_id)
        try:
            yield span_id
        finally:
            CURRENT.reset(token)
            self.end(span_id)

    # ------------------------------------------------------------ analysis

    def self_times(self) -> List[float]:
        """Self time of every span: duration minus its children's."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] is not None:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def by_request(self, inclusive: bool = False) -> Dict[int, Dict[str, float]]:
        """``request id -> {span name -> summed seconds}``: self time by
        default, whole span durations (children included) when asked."""
        seconds = (
            [span[END] - span[START] for span in self.spans]
            if inclusive else self.self_times()
        )
        out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, value in zip(self.spans, seconds):
            out[span[REQUEST]][span[NAME]] += value
        return out

    def calls_by_request(self) -> Dict[int, Dict[str, int]]:
        out: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for span in self.spans:
            out[span[REQUEST]][span[NAME]] += 1
        return out

    def write_jsonl(self, path: str, header: Optional[dict] = None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            if header is not None:
                handle.write(json.dumps({"header": header}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(dict(zip(SPAN_KEYS, span))) + "\n")


def traced(function: Callable, name: str, log: SpanLog) -> Callable:
    """Wrap ``function`` so each call made inside a request records a span."""

    def wrapper(*args, **kwargs):
        if CURRENT.get() is None:
            return function(*args, **kwargs)
        span_id = log.begin(name)
        token = CURRENT.set(span_id)
        try:
            return function(*args, **kwargs)
        finally:
            CURRENT.reset(token)
            log.end(span_id)

    wrapper.__wrapped__ = function
    return wrapper


@contextmanager
def installed(
    targets: Sequence[Tuple[object, str, str]], log: SpanLog
) -> Iterator[SpanLog]:
    """Install span wrappers on ``(owner, attribute, span name)`` targets for
    the duration of the block; the originals come back on exit."""
    originals = []
    try:
        for owner, attribute, name in targets:
            original = getattr(owner, attribute)
            originals.append((owner, attribute, original))
            setattr(owner, attribute, traced(original, name, log))
        yield log
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


class TimedBlobStore:
    """Blob-store proxy the benchmark puts under every layout it builds.

    It always counts calls and bytes (cheap integer adds — the write and
    space metrics of the *untraced* pass come from here), and records
    ``storage.blob_get`` / ``storage.blob_put`` spans only while ``log`` is
    set, i.e. during the traced pass.  Duck-typed to ``repro``'s
    ``BlobStore`` so this file needs no import from the program under test.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.log: Optional[SpanLog] = None
        self.n_gets = 0
        self.get_bytes = 0
        # What the builder stored before the proxy went in was put, too.
        self.n_puts = sum(1 for _ in inner.keys())
        self.put_bytes = inner.total_bytes()
        #: traced pass only: bytes fetched inside each request.
        self.get_bytes_by_request: Dict[int, int] = defaultdict(int)

    def get(self, key: str) -> bytes:
        log = self.log
        if log is None or CURRENT.get() is None:
            data = self.inner.get(key)
        else:
            span_id = log.begin("storage.blob_get")
            try:
                data = self.inner.get(key)
            finally:
                log.end(span_id)
            self.get_bytes_by_request[log.spans[span_id][REQUEST]] += len(data)
        self.n_gets += 1
        self.get_bytes += len(data)
        return data

    def put(self, key: str, data: bytes) -> None:
        log = self.log
        if log is None or CURRENT.get() is None:
            self.inner.put(key, data)
        else:
            span_id = log.begin("storage.blob_put")
            try:
                self.inner.put(key, data)
            finally:
                log.end(span_id)
        self.n_puts += 1
        self.put_bytes += len(data)

    def size(self, key: str) -> int:
        return self.inner.size(key)

    def keys(self):
        return self.inner.keys()

    def delete(self, key: str) -> None:
        self.inner.delete(key)

    def __contains__(self, key: str) -> bool:
        return key in self.inner

    def total_bytes(self) -> int:
        return self.inner.total_bytes()
