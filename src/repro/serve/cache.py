"""The semantic partition cache: memoized pruning verdicts per predicate.

Overlapping queries from many clients repeat the same WHERE clauses against
the same catalog.  Classifying a partition — zone probes, then the sketch
pass — is pure metadata work, but at serving rates it is *hot* metadata
work, repeated for every partition of every plan.  :class:`PartitionCache`
memoizes the planner's per-partition verdicts keyed by

* the **normalized-predicate signature** — attribute-sorted ``(attribute,
  lo, hi)`` triples with min/max-normalized bounds plus the pruning policy,
  so two queries spelled differently (reordered conjuncts, flipped bounds)
  share an entry while queries under different soundness rules never do; and
* the **version** of the plan's pinned catalog view — any commit moves
  later views on, so entries computed against one catalog state can never
  be replayed against another.  (This is the cached-provenance idea of
  arXiv:2504.19252 applied at serving time: reuse *which partitions
  survived*, not the data itself.)

A hit hands the stored verdicts to :meth:`~repro.plan.logical.LogicalPlan
.use_cached`; pids the entry does not cover fall back to a full
classification, so an entry recorded for one projection is safely replayed
for another.  Projection never affects a verdict (REQUIRED vs
PROJECTION-ONLY depends on predicate attributes only), which is what makes
the predicate-only key sound.

Coherence: a view is frozen and so is every entry in it (zones and
sketches included), so the verdicts a plan computes against it are exact
under its version whatever commits meanwhile, and entries under another
version are unreachable from it.  The invalidation hook only reclaims
memory: a version bump drops the entries no live or pinned version can
reach.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Mapping, Optional, Tuple

from ..plan.logical import LogicalPlan, PartitionDecision
from ..storage.partition_manager import CatalogSnapshot, PartitionManager

__all__ = [
    "CacheStats",
    "PartitionCache",
    "predicate_signature",
]

#: ``(policy, pruning, ((attribute, lo, hi), ...))`` — hashable,
#: order-free.  One cache per manager, so the key needs no table scope.
Signature = Tuple[str, bool, Tuple[Tuple[str, float, float], ...]]


def predicate_signature(
    ranges: Mapping[str, Tuple[float, float]],
    policy: str,
    pruning: bool,
) -> Signature:
    """Canonical hashable form of a normalized conjunction.

    Bounds are min/max-normalized and attributes sorted, so conjunct order
    and bound spelling never split entries.  The policy and pruning flag are
    part of the key because the scan (any-disjoint) and partition
    (all-disjoint) rules reach *different* verdicts for the same predicates.
    """
    triples = []
    for name, (lo, hi) in ranges.items():
        lo, hi = float(lo), float(hi)
        if hi < lo:
            lo, hi = hi, lo
        triples.append((str(name), lo, hi))
    triples.sort()
    return (policy, bool(pruning), tuple(triples))


class CacheStats:
    """Lifetime counters; reads are approximate under concurrency, which is
    fine for metrics (the cache itself is exact)."""

    __slots__ = ("n_hits", "n_misses", "n_records", "n_invalidated",
                 "n_evicted")

    def __init__(self) -> None:
        self.n_hits = 0
        self.n_misses = 0
        #: entries successfully recorded after a miss
        self.n_records = 0
        #: entries purged by a version-bump invalidation
        self.n_invalidated = 0
        #: entries evicted by the LRU capacity bound
        self.n_evicted = 0

    @property
    def hit_rate(self) -> float:
        total = self.n_hits + self.n_misses
        return self.n_hits / total if total else 0.0


class PartitionCache:
    """LRU map ``(signature, version) -> {pid: PartitionDecision}``.

    Bound to one :class:`PartitionManager`; ``capacity`` bounds the number
    of distinct predicate signatures retained.  Thread-safe: the serving
    tier consults it from every worker concurrently with daemon-side
    invalidations.
    """

    def __init__(self, manager: PartitionManager, capacity: int = 512):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.manager = manager
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[Tuple[Signature, int], Dict[int, PartitionDecision]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        manager.add_invalidation_hook(self._on_invalidate)

    # ------------------------------------------------------------- keying

    def signature(self, logical: LogicalPlan) -> Signature:
        return predicate_signature(
            logical.conjunction.ranges(), logical.policy, logical.pruning
        )

    # ---------------------------------------------------- planner protocol

    def lookup(
        self, logical: LogicalPlan, view: CatalogSnapshot
    ) -> Optional[Dict[int, PartitionDecision]]:
        """Verdicts recorded for this plan's signature under ``view``'s
        version, or None."""
        key = (self.signature(logical), view.version)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.n_hits += 1
                return dict(entry)
            self.stats.n_misses += 1
        return None

    def record(self, logical: LogicalPlan, view: CatalogSnapshot) -> bool:
        """Store a missed plan's verdicts under ``view``'s version."""
        decisions = {
            pid: d for pid, d in logical.decision_map().items() if not d.via_cache
        }
        if not decisions:
            return False
        key = (self.signature(logical), view.version)
        with self._lock:
            self._entries[key] = decisions
            self._entries.move_to_end(key)
            self.stats.n_records += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.n_evicted += 1
        return True

    # ------------------------------------------------------- invalidation

    def _on_invalidate(self, catalog_version: int) -> None:
        # Entries of a still-pinned version stay reachable (an ``AS OF``
        # replay, a query in flight): no commit can stale them while the
        # pin, and thus the partitions they classify, is held.
        pinned = set(self.manager.pinned_versions())
        with self._lock:
            stale = [
                key for key in self._entries
                if key[1] != catalog_version and key[1] not in pinned
            ]
            for key in stale:
                del self._entries[key]
            self.stats.n_invalidated += len(stale)

    def clear(self) -> None:
        with self._lock:
            self.stats.n_invalidated += len(self._entries)
            self._entries.clear()

    # ---------------------------------------------------------- inspection

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionCache({len(self)} entries, capacity={self.capacity}, "
            f"hits={self.stats.n_hits}, misses={self.stats.n_misses})"
        )
