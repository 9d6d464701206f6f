"""Seeded multi-client replay: the serving tier's load generator.

One driver shared by ``jigsaw-bench serve`` and the concurrent stress
tests: N client threads each play a fixed per-client request list (engine,
query, priority) through a running :class:`~repro.serve.QueryScheduler`,
closed-loop (submit, wait, verify, next).  :func:`build_client_mix` derives
the lists from a seed, so a failing CI run reproduced locally replays the
*identical* traffic.

Admission rejections are part of the contract, not failures: a rejected
submit counts, backs off ``BACKOFF_S``, and retries — queue-based load
leveling as the client experiences it.  ``verify`` (typically a closure over
:func:`repro.testing.oracle.run_reference_query`) runs in the client
thread; any mismatch string lands in ``ReplayReport.failures``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.query import Query
from .scheduler import (
    PRIORITY_HIGH,
    PRIORITY_NORMAL,
    AdmissionRejected,
    QueryScheduler,
)

__all__ = ["ReplayReport", "build_client_mix", "run_replay"]

#: One request: (engine name, query, priority).
Request = Tuple[str, Query, str]

#: share of requests that ride the high-priority queue
HIGH_PRIORITY_FRACTION = 0.1
#: real seconds a client sleeps before retrying a rejected submit
BACKOFF_S = 0.001
#: bound on each wait: a wedged request is a failure, not a hung replay
TIMEOUT_S = 120.0


@dataclass
class ReplayReport:
    """Outcome of one replay: throughput, latency tail, and correctness."""

    n_requests: int = 0
    n_completed: int = 0
    n_errors: int = 0
    #: admission rejections absorbed by client backoff (each retried)
    n_rejected: int = 0
    wall_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.n_errors

    @property
    def qps(self) -> float:
        return self.n_completed / self.wall_s if self.wall_s > 0 else 0.0

    def latency_percentile(self, q: float) -> float:
        """Latency at percentile ``q`` (0-100), 0.0 when nothing completed."""
        if not self.latencies_s:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_s), q))

    def summary(self) -> str:
        return (
            f"replay: {self.n_completed}/{self.n_requests} completed, "
            f"{self.n_rejected} rejected (retried), {self.n_errors} errors, "
            f"{self.qps:.1f} QPS, "
            f"p50 {self.latency_percentile(50) * 1e3:.1f} ms, "
            f"p99 {self.latency_percentile(99) * 1e3:.1f} ms"
            + ("" if self.ok else f", {len(self.failures)} FAILURES")
        )


def build_client_mix(
    rng: np.random.Generator,
    engine_names: Sequence[str],
    queries: Sequence[Query],
    n_clients: int = 8,
    requests_per_client: int = 25,
) -> List[List[Request]]:
    """Seeded per-client request lists over a shared query pool.

    Queries are drawn with replacement from a small pool, so many clients
    repeat the same predicates — the overlap the partition cache exists to
    exploit.  A ``HIGH_PRIORITY_FRACTION`` of requests ride the high queue.
    """
    if not engine_names or not queries:
        raise ValueError("need at least one engine and one query")
    mix: List[List[Request]] = []
    for _client in range(n_clients):
        plan: List[Request] = []
        for _ in range(requests_per_client):
            engine = engine_names[int(rng.integers(0, len(engine_names)))]
            query = queries[int(rng.integers(0, len(queries)))]
            priority = (
                PRIORITY_HIGH
                if rng.random() < HIGH_PRIORITY_FRACTION
                else PRIORITY_NORMAL
            )
            plan.append((engine, query, priority))
        mix.append(plan)
    return mix


def run_replay(
    scheduler: QueryScheduler,
    client_plans: Sequence[Sequence[Request]],
    verify: Optional[Callable[[str, Query, object, object], Optional[str]]] = None,
) -> ReplayReport:
    """Play every client plan concurrently; returns the aggregate report.

    ``verify(engine, query, result, stats)`` returns None or a mismatch
    description.  A wait past ``TIMEOUT_S`` is reported as a failure, not
    raised.
    """
    report = ReplayReport(n_requests=sum(len(plan) for plan in client_plans))
    lock = threading.Lock()
    barrier = threading.Barrier(len(client_plans) + 1)

    def client(plan: Sequence[Request]) -> None:
        barrier.wait()
        for engine, query, priority in plan:
            while True:
                try:
                    ticket = scheduler.submit(engine, query, priority)
                    break
                except AdmissionRejected:
                    with lock:
                        report.n_rejected += 1
                    time.sleep(BACKOFF_S)
            try:
                result, stats = ticket.wait(TIMEOUT_S)
            except TimeoutError:
                with lock:
                    report.n_errors += 1
                    report.failures.append(
                        f"{engine}/{query.label or query!r}: timed out"
                    )
                continue
            except Exception as error:  # noqa: BLE001 - recorded, not fatal
                with lock:
                    report.n_errors += 1
                    report.failures.append(
                        f"{engine}/{query.label or query!r}: {error!r}"
                    )
                continue
            problem = verify(engine, query, result, stats) if verify else None
            with lock:
                report.n_completed += 1
                report.latencies_s.append(ticket.latency_s)
                if problem is not None:
                    report.failures.append(problem)

    threads = [
        threading.Thread(target=client, args=(plan,), name=f"replay-client-{i}")
        for i, plan in enumerate(client_plans)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    report.wall_s = time.perf_counter() - started
    return report
