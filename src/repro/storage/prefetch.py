"""Bounded asynchronous read-ahead over the partition manager.

The engines drive their access lists in plan order, paying each partition
load inline before evaluating it.  A :class:`Prefetcher` walks the same
access order ahead of the evaluator on a small thread pool, runs the full
``manager.load`` path (retries, fault drains, buffer-pool admission) in the
background, and stages each outcome — ``(partition, io_delta)`` or the
raised :class:`~repro.errors.PartitionUnreadableError` — until the consuming
:class:`~repro.plan.operators.PlanReader` claims it.

Accounting stays **bit-identical** to the inline path because nothing about
a load changes, only *when* it runs:

* the staged ``io_delta`` is exactly what ``manager.load`` returned for that
  read; the reader accrues it into ``ExecutionStats`` at consumption time,
  inside the same phase the inline load would have billed;
* fault draws are pure functions of ``(seed, key, attempt)`` and injected
  latency drains per key, so concurrent background loads replay the same
  per-key sequences the serial path would;
* a staged exception is re-raised at consumption, so the degrade path
  accrues ``exc.io_delta`` once, exactly as it does inline.

``depth`` bounds staged-but-unconsumed plus in-flight loads, so read-ahead
never runs more than ``depth`` partitions past the evaluator.  An entry the
consumer turns out not to need (a queued pid claimed before any worker
started it) is discarded without a load.  A staged read never goes stale:
a pid names one immutable file, and the query's pinned view keeps it
loadable whatever commits meanwhile.
"""

from __future__ import annotations

import contextvars
import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, Optional, Tuple

from .io_stats import IOStats
from .partition_manager import PartitionManager
from .physical import PhysicalPartition

__all__ = ["Prefetcher", "PrefetchStats"]

#: entry lifecycle: queued -> loading -> staged -> done (consumed/discarded).
_QUEUED, _LOADING, _STAGED, _DONE = range(4)


@dataclass(slots=True)
class PrefetchStats:
    """Lifetime counters of one prefetcher (diagnostics only — never part
    of the simulated accounting)."""

    n_submitted: int = 0
    n_loaded: int = 0
    n_consumed: int = 0
    n_discarded: int = 0


class _Entry:
    __slots__ = (
        "pid", "columns", "ctx", "state", "claimed", "event",
        "partition", "io_delta", "error",
    )

    def __init__(self, pid: int, columns, ctx: contextvars.Context):
        self.pid = pid
        self.columns = columns
        self.ctx = ctx
        self.state = _QUEUED
        self.claimed = False
        self.event = threading.Event()
        self.partition: Optional[PhysicalPartition] = None
        self.io_delta: Optional[IOStats] = None
        self.error: Optional[BaseException] = None


class Prefetcher:
    """Read-ahead pipeline: load partitions ahead of the evaluator.

    One prefetcher serves one query execution (all phases); the engine
    that opened it closes it.  ``start`` enqueues a phase's
    access order; :meth:`take` claims one outcome, blocking only when the
    load is already in flight.  Workers run each load inside a copy of the
    *submitting* context, so ``storage.load`` spans nest under the phase
    span that queued them and a scoped trace collector sees them.
    """

    def __init__(
        self,
        manager: PartitionManager,
        depth: int = 4,
        n_threads: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ):
        self.manager = manager
        self.depth = max(1, int(depth))
        self.chunk_size = chunk_size
        self.stats = PrefetchStats()
        self._cond = threading.Condition()
        self._queue: Deque[_Entry] = deque()
        self._entries: Dict[int, _Entry] = {}
        self._occupied = 0  # in-flight + staged-but-unconsumed entries
        self._closed = False
        count = n_threads if n_threads is not None else min(self.depth, 4)
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"prefetch-{i}", daemon=True
            )
            for i in range(max(1, count))
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------- submit

    def start(self, pids: Iterable[int], columns=None) -> None:
        """Queue read-ahead for ``pids`` in order (a phase's access list).

        A pid already queued, in flight, or staged is left alone; one whose
        previous entry was consumed is re-queued (a later phase may load the
        same partition again, as the inline path would).
        """
        ctx = contextvars.copy_context()
        with self._cond:
            if self._closed:
                return
            for pid in pids:
                existing = self._entries.get(pid)
                if existing is not None and existing.state != _DONE:
                    continue
                # Each entry gets its own copy: a Context cannot be entered
                # by two workers at once.
                entry = _Entry(pid, columns, ctx.copy())
                self._entries[pid] = entry
                self._queue.append(entry)
                self.stats.n_submitted += 1
            self._cond.notify_all()

    # ------------------------------------------------------------ consume

    def take(
        self, pid: int
    ) -> Optional[Tuple[PhysicalPartition, IOStats]]:
        """Claim the staged outcome for ``pid``, or None for an inline load.

        Returns ``(partition, io_delta)`` exactly as ``manager.load`` would
        have, re-raises the load's exception, or returns None when the pid
        was never queued or was claimed before a worker started it.  Blocks
        only while the load is in flight.
        """
        with self._cond:
            entry = self._entries.get(pid)
            if entry is None or entry.state == _DONE or entry.claimed:
                return None
            entry.claimed = True
            if entry.state == _QUEUED:
                # Not started: cheaper (and accounting-exact) to let the
                # caller load inline than to wait for a worker slot.
                entry.state = _DONE
                self.stats.n_discarded += 1
                self._cond.notify_all()
                return None
        entry.event.wait()
        with self._cond:
            entry.state = _DONE
            self._occupied -= 1
            self.stats.n_consumed += 1
            self._cond.notify_all()
        if entry.error is not None:
            raise entry.error
        assert entry.partition is not None and entry.io_delta is not None
        return entry.partition, entry.io_delta

    def close(self) -> None:
        """Stop the workers and drop anything unconsumed.

        Blocks until in-flight loads finish; their outcomes are discarded
        (never accrued — an unconsumed load leaves the execution's
        ``ExecutionStats`` untouched, like a load that never happened).
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()

    # ------------------------------------------------------------ workers

    def _next_entry(self) -> Optional[_Entry]:
        """Claim the next queued entry under a free depth slot (or None on
        close)."""
        with self._cond:
            while True:
                if self._closed:
                    return None
                while self._queue and self._queue[0].state != _QUEUED:
                    self._queue.popleft()  # claimed inline meanwhile
                if self._queue and self._occupied < self.depth:
                    entry = self._queue.popleft()
                    entry.state = _LOADING
                    self._occupied += 1
                    return entry
                self._cond.wait()

    def _worker(self) -> None:
        while True:
            entry = self._next_entry()
            if entry is None:
                return
            try:
                entry.ctx.run(self._load_entry, entry)
            except BaseException as exc:  # pragma: no cover - defensive
                # _load_entry never raises; guard the ctx.run machinery so a
                # waiting take() can never block on a dead worker.
                if entry.error is None:
                    entry.error = exc
            finally:
                with self._cond:
                    entry.state = _STAGED
                    self.stats.n_loaded += 1
                entry.event.set()

    def _load_entry(self, entry: _Entry) -> None:
        try:
            entry.partition, entry.io_delta = self.manager.load(
                entry.pid, chunk_size=self.chunk_size, columns=entry.columns
            )
        except BaseException as exc:  # staged and re-raised at take()
            entry.error = exc
