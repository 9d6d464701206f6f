"""Degraded reads: substituting partitions for unreadable ones.

When a partition load exhausts its retries, the partition's *catalog* entry
is still intact — the catalog lives in memory, not in the failed file.  That
entry says exactly which ``(attribute, tuple)`` cells the dead partition
held, and the attribute index says who else might hold copies: overlapping
primaries (baseline layouts materialized with overlapping specs).
:func:`plan_alternates` turns that into a substitute read set, or proves
none exists.  Both are read from the plan's own pinned
:class:`~repro.storage.partition_manager.CatalogIndex`, so a substitute is
always a partition of the version the query reads — a holder a later swap
retired still serves an ``AS OF`` read, and a partition committed since is
never enlisted.

The guarantee engines get from this module: a query either returns the same
result it would have produced with healthy storage, or raises
:class:`PartitionUnreadableError` — never a silently wrong answer.  One
level of substitution is planned at a time; if an alternate fails too, the
engine re-plans with the grown exclusion set, so cascading failures
terminate (each failure permanently excludes one partition).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..errors import PartitionUnreadableError
from ..storage.partition_manager import CatalogIndex

__all__ = ["FaultContext", "handle_unreadable", "plan_alternates"]


class FaultContext:
    """Per-execution fault memory shared by an engine's phases.

    ``unreadable`` — pids that exhausted their retries; never re-attempted
    within the execution.  ``degraded`` — pids enlisted as substitutes; a
    load of one counts as a degraded read in ``ExecutionStats``.
    """

    __slots__ = ("unreadable", "degraded")

    def __init__(self) -> None:
        self.unreadable: Set[int] = set()
        self.degraded: Set[int] = set()


def plan_alternates(
    index: CatalogIndex,
    failed_pid: int,
    attributes: Iterable[str],
    fctx: FaultContext,
    tids_by_attribute: Optional[Dict[str, np.ndarray]] = None,
) -> Tuple[int, ...]:
    """Partitions that together re-cover every needed cell of ``failed_pid``.

    ``attributes`` restricts the rescue to the attributes the current query
    phase actually needs from the failed partition; ``tids_by_attribute``
    optionally narrows an attribute further to specific tuples (e.g. only
    the still-missing VALID tuples of a projection phase).  Every pid in
    ``fctx.unreadable`` (which must already contain ``failed_pid``) is
    excluded from candidacy.  The chosen pids are recorded in
    ``fctx.degraded`` and returned in deterministic order.

    Raises :class:`PartitionUnreadableError` when some needed cell has no
    readable home — the no-alternative case must abort, not degrade.
    """
    chosen: List[int] = []
    seen: Set[int] = set()
    for attribute in attributes:
        tids = index.attribute_tids(failed_pid, attribute)
        if tids_by_attribute is not None and attribute in tids_by_attribute:
            tids = np.intersect1d(tids, tids_by_attribute[attribute])
        if not len(tids):
            continue
        pids, missing = index.cover_attribute(
            attribute, tids, exclude=fctx.unreadable
        )
        if len(missing):
            raise PartitionUnreadableError(
                f"partition {failed_pid} is unreadable and no other partition "
                f"stores attribute {attribute!r} for {len(missing)} of its "
                f"tuples (first missing tid: {int(missing[0])})",
                pid=failed_pid,
            )
        for pid in pids:
            if pid not in seen:
                seen.add(pid)
                chosen.append(pid)
    fctx.degraded.update(chosen)
    return tuple(chosen)


def handle_unreadable(
    index: CatalogIndex,
    pid: int,
    attributes: Iterable[str],
    fctx: FaultContext,
    stats,
    pending,
    done: Set[int],
    exc: Optional[PartitionUnreadableError] = None,
    tids_by_attribute: Optional[Dict[str, np.ndarray]] = None,
) -> None:
    """Record one unreadable partition and enqueue its substitute reads.

    Shared by the engines' partition loops: marks ``pid`` dead (counting it
    once in ``stats``), folds the failed read's I/O delta in, restricts the
    rescue to the attributes ``pid`` actually stores, and appends the
    substitutes returned by :func:`plan_alternates` onto the engine's
    ``pending`` work queue.  ``exc is None`` means the partition is already
    known dead from an earlier phase — no new I/O to account, only planning.
    """
    if pid not in fctx.unreadable:
        fctx.unreadable.add(pid)
        stats.n_unreadable_partitions += 1
    if exc is not None and exc.io_delta is not None:
        stats.accrue_io(exc.io_delta)
    info = index.info(pid)
    relevant = [a for a in attributes if a in info.attributes]
    for alternate in plan_alternates(index, pid, relevant, fctx, tids_by_attribute):
        if alternate not in done and alternate not in pending:
            pending.append(alternate)
