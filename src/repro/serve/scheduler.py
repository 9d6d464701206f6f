"""The query scheduler: bounded workers, priorities, admission control.

The engines evaluate one query per call; :class:`QueryScheduler` turns them
into a serving tier.  Clients :meth:`submit` ``(engine, query)`` pairs and
get a :class:`QueryTicket` back immediately; a bounded pool of worker
threads drains the queue through the existing ``execute`` paths.  Three
load-management mechanisms, all plan-level rather than engine-level:

* **Two-level priority with queue-based load leveling** — two FIFO queues
  (``"high"`` and ``"normal"``); workers always prefer the high queue, so
  interactive traffic overtakes batch replays without preempting anything.
* **Per-engine concurrency caps** — each registered engine carries a cap on
  simultaneous in-flight queries.  Engines built from the shared pipeline
  (scan, partition-at-a-time) are safely concurrent — their
  ``execute`` state is per-call, and the storage/catalog layers are locked —
  so they default to the pool width.  :class:`~repro.engine.parallel
  .ThreadedPartitionEngine` spawns ``n_threads`` workers of its own per
  call, so it is capped at 1 unless the caller overrides.  Workers skip
  over queue entries whose engine is saturated (no head-of-line blocking
  across engines).
* **Admission control** — the queue holds at most ``queue_depth`` pending
  requests; beyond that :meth:`submit` raises :class:`AdmissionRejected`
  immediately instead of growing an unbounded backlog (bounded queue =
  bounded wait, the load-leveling contract).

Tickets carry the result, the final ``ExecutionStats``, the queue wait and
total latency; errors raised by the engine re-raise from
:meth:`QueryTicket.wait`.  ``contextvars`` are captured at submit time, so
a :func:`repro.obs.scoped_trace` installed by the client wraps the worker's
spans exactly like a same-thread call would.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Mapping, Optional, Tuple

from ..core.query import Query
from ..obs import TelemetryServer, publish, request_scope
from ..obs import tracer as obs_tracer
from ..plan.result import ResultSet
from ..plan.stats import ExecutionStats

__all__ = [
    "AdmissionRejected",
    "EngineBinding",
    "PRIORITY_HIGH",
    "PRIORITY_NORMAL",
    "QueryScheduler",
    "QueryTicket",
]

PRIORITY_HIGH = "high"
PRIORITY_NORMAL = "normal"
_PRIORITIES = (PRIORITY_HIGH, PRIORITY_NORMAL)


class AdmissionRejected(RuntimeError):
    """The scheduler refused a request: queue full, closed, or unknown
    engine.  Explicit and immediate — the caller sheds load or retries
    later, instead of queueing into unbounded latency."""


@dataclass
class EngineBinding:
    """One registered engine: the executor plus its concurrency cap."""

    name: str
    executor: object
    cap: int
    inflight: int = 0


class QueryTicket:
    """Handle for one submitted query."""

    __slots__ = (
        "engine", "query", "priority", "result", "stats", "error",
        "queue_wait_s", "latency_s", "_submitted", "_done",
    )

    def __init__(self, engine: str, query: Query, priority: str):
        self.engine = engine
        self.query = query
        self.priority = priority
        self.result: Optional[ResultSet] = None
        self.stats: Optional[ExecutionStats] = None
        self.error: Optional[BaseException] = None
        self.queue_wait_s: float = 0.0
        self.latency_s: float = 0.0
        self._submitted = time.perf_counter()
        self._done = threading.Event()

    def done(self) -> bool:
        return self._done.is_set()

    def wait(
        self, timeout: Optional[float] = None
    ) -> Tuple[ResultSet, Optional[ExecutionStats]]:
        """Block for the outcome; engine exceptions re-raise here."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"query on engine {self.engine!r} not done after {timeout}s"
            )
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result, self.stats


@dataclass
class _Pending:
    ticket: QueryTicket
    #: the request's telemetry scope: created at submit, entered by the
    #: worker, so its queue wait is the time between the two.
    scope: object
    context: contextvars.Context = field(
        default_factory=contextvars.copy_context
    )


class QueryScheduler:
    """Bounded worker pool serving queries through registered engines.

    ``engines`` maps names to executors (anything whose ``execute(query)``
    returns ``(result, stats)``).  ``engine_caps`` overrides per-engine
    concurrency; the default caps engines that spawn their own workers per
    call (detected via an ``n_threads`` attribute) at 1 and everything else
    at the pool width.  ``start``/``drain``/``close`` are idempotent;
    ``close`` finishes queued work before joining the (non-daemon) workers.
    """

    def __init__(
        self,
        engines: Mapping[str, object],
        workers: int = 4,
        queue_depth: int = 64,
        engine_caps: Optional[Mapping[str, int]] = None,
    ):
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if queue_depth <= 0:
            raise ValueError(f"queue_depth must be positive, got {queue_depth}")
        self.workers = workers
        self.queue_depth = queue_depth
        caps = dict(engine_caps or {})
        self._engines: Dict[str, EngineBinding] = {}
        for name, executor in engines.items():
            cap = caps.get(name, self._default_cap(executor, workers))
            if cap <= 0:
                raise ValueError(f"cap for engine {name!r} must be positive")
            self._engines[name] = EngineBinding(name, executor, cap)
        self._queues: Dict[str, Deque[_Pending]] = {
            priority: deque() for priority in _PRIORITIES
        }
        self._cond = threading.Condition()
        self._threads: list = []
        self._started = False
        self._closing = False
        self._closed = False
        self._telemetry = None
        self._n_pending = 0
        self._n_inflight = 0
        # lifetime accounting (guarded by the condition's lock)
        self.n_submitted = 0
        self.n_completed = 0
        self.n_errors = 0
        self.n_rejected = 0

    @staticmethod
    def _default_cap(executor: object, workers: int) -> int:
        # ThreadedPartitionEngine (and anything shaped like it) spawns
        # n_threads workers per call: one query at a time per instance keeps
        # the thread count bounded by the pool.
        return 1 if hasattr(executor, "n_threads") else workers

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "QueryScheduler":
        with self._cond:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            if self._started:
                return self
            self._started = True
            for i in range(self.workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"jigsaw-serve-{i}",
                    daemon=False,
                )
                self._threads.append(thread)
                thread.start()
        return self

    def drain(self) -> None:
        """Block until every accepted request has finished."""
        with self._cond:
            self._cond.wait_for(
                lambda: self._n_pending == 0 and self._n_inflight == 0
            )

    def close(self) -> None:
        """Finish queued work, stop the workers, and join them.

        Also tears down a telemetry server started through
        :meth:`start_telemetry` — after the workers drain, so the endpoint
        stays scrapable until the last request finishes.  Idempotent.
        """
        with self._cond:
            if self._closed:
                return
            self._closing = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()
        with self._cond:
            self._closed = True
            self._threads = []
        telemetry, self._telemetry = self._telemetry, None
        if telemetry is not None:
            telemetry.close()

    def start_telemetry(
        self, port: int = 0, host: str = "127.0.0.1", monitor=None
    ):
        """Start (or return) the live telemetry endpoint for this tier.

        ``port=0`` binds a free port; read it back from the returned
        server's ``.port``.  Closed automatically by :meth:`close`.
        """
        if self._telemetry is None:
            self._telemetry = TelemetryServer(
                host=host, port=port, monitor=monitor
            ).start()
        return self._telemetry

    @property
    def telemetry(self):
        """The attached telemetry server, or None."""
        return self._telemetry

    def __enter__(self) -> "QueryScheduler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # --------------------------------------------------------------- submit

    def submit(
        self, engine: str, query: Query, priority: str = PRIORITY_NORMAL
    ) -> QueryTicket:
        """Enqueue one query; returns immediately with a ticket.

        Raises :class:`AdmissionRejected` when the queue is at
        ``queue_depth``, the engine name is unknown, or the scheduler is
        closing — never blocks the caller on backlog.
        """
        if priority not in _PRIORITIES:
            raise ValueError(f"unknown priority {priority!r}")
        scope = request_scope(engine, query, priority)
        ticket = QueryTicket(engine, query, priority)
        try:
            if engine not in self._engines:
                raise AdmissionRejected(f"unknown engine {engine!r}")
            with self._cond:
                if self._closing or self._closed:
                    self.n_rejected += 1
                    raise AdmissionRejected("scheduler is closed")
                if not self._started:
                    raise RuntimeError("scheduler not started")
                if self._n_pending >= self.queue_depth:
                    self.n_rejected += 1
                    raise AdmissionRejected(
                        f"queue full ({self._n_pending}/{self.queue_depth} "
                        "pending)"
                    )
                self._queues[priority].append(_Pending(ticket, scope))
                self._n_pending += 1
                self.n_submitted += 1
                self._cond.notify()
        except AdmissionRejected as rejection:
            scope.reject(str(rejection))
            raise
        publish("serve", self)
        return ticket

    def execute(
        self, engine: str, query: Query, priority: str = PRIORITY_NORMAL
    ) -> Tuple[ResultSet, Optional[ExecutionStats]]:
        """Submit and wait: the drop-in replacement for ``engine.execute``."""
        return self.submit(engine, query, priority).wait()

    # -------------------------------------------------------------- workers

    def _claim(self) -> Optional[_Pending]:
        """Pop the first eligible request (high queue first, skipping
        entries whose engine is at its cap).  Caller holds the lock."""
        for priority in _PRIORITIES:
            queue = self._queues[priority]
            for index, pending in enumerate(queue):
                binding = self._engines[pending.ticket.engine]
                if binding.inflight < binding.cap:
                    del queue[index]
                    binding.inflight += 1
                    self._n_pending -= 1
                    self._n_inflight += 1
                    return pending
        return None

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                pending = self._claim()
                while pending is None:
                    if self._closing and self._n_pending == 0:
                        return
                    self._cond.wait()
                    pending = self._claim()
            try:
                pending.context.run(
                    self._run_one, pending.ticket, pending.scope
                )
            finally:
                with self._cond:
                    self._engines[pending.ticket.engine].inflight -= 1
                    self._n_inflight -= 1
                    if pending.ticket.error is None:
                        self.n_completed += 1
                    else:
                        self.n_errors += 1
                    # a freed cap slot or an emptied queue may unblock
                    # other workers and drain() waiters alike
                    self._cond.notify_all()
                publish("serve", self)

    def _run_one(self, ticket: QueryTicket, scope) -> None:
        started = time.perf_counter()
        ticket.queue_wait_s = started - ticket._submitted
        binding = self._engines[ticket.engine]
        try:
            with obs_tracer().span(
                "serve.request",
                engine=ticket.engine,
                priority=ticket.priority,
                queue_wait_s=ticket.queue_wait_s,
            ), scope:
                ticket.result, ticket.stats = binding.executor.execute(
                    ticket.query
                )
        except BaseException as error:  # noqa: BLE001 - re-raised in wait()
            ticket.error = error
        finally:
            ticket.latency_s = time.perf_counter() - ticket._submitted
            ticket._done.set()

    # ----------------------------------------------------------- inspection

    def pending(self) -> Dict[str, int]:
        """Current queue depth per priority level."""
        with self._cond:
            return {
                priority: len(queue)
                for priority, queue in self._queues.items()
            }

    def occupancy(self) -> Dict[str, int]:
        """In-flight queries per engine."""
        with self._cond:
            return {
                name: binding.inflight
                for name, binding in self._engines.items()
            }

    def engine_names(self) -> Tuple[str, ...]:
        return tuple(self._engines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryScheduler({len(self._engines)} engines, "
            f"workers={self.workers}, queue_depth={self.queue_depth}, "
            f"pending={self._n_pending}, inflight={self._n_inflight})"
        )
