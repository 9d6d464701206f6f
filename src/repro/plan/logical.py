"""The logical plan: predicate normalization, projection pushdown, pruning.

The first of the three planning layers.  A :class:`LogicalPlan` is pure
metadata — built from the query and the catalog only, before any I/O:

* **normalized predicates** — the query's WHERE clause as a canonical
  attribute-sorted :class:`~repro.plan.predicates.Conjunction`;
* **projection-pushdown column sets** — which columns each phase reads
  (``selection_columns`` / ``projection_columns``), as ``explain()``
  reports them; a load decodes a cell on first access, so a phase decodes
  nothing else;
* **the zone verdict** (:meth:`LogicalPlan.verdict`) — every partition the
  catalog's zone maps (and sketches) already refute, computed once per plan
  as array work over the catalog's zone arrays, so executors skip those
  reads at the cost of the survivors;
* **partition classification** — a candidate partition is classified as
  REQUIRED, PRUNED, or PROJECTION_ONLY with the reason, made on demand
  (``explain()``, the adaptive monitor) and memoised per pid.  Its PRUNED
  verdicts are the zone verdict's.

Two pruning policies exist because the engines' correctness arguments
differ.  The *scan* policy (rectangular layouts) may prune a partition as
soon as **any** stored predicate attribute's zone is disjoint from the
query range: every tuple with a predicate cell there fails the conjunction.
The *partition* policy (partition-at-a-time over irregular partitions) may
prune only when **every** stored predicate attribute's zone is disjoint — a
partition whose zone overlaps one predicate must be read, because it may
also store other predicates' cells for tuples that survive.  Either way the
pruned partition's tuples must be explicitly invalidated wherever a later
read could reach them, which is the catalog-only verdict Algorithm 5 would
have reached with I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

from ..core.query import Query
from ..storage.partition_manager import CatalogIndex, PartitionInfo
from ..storage.sketches import SketchSet
from .predicates import Conjunction

__all__ = [
    "PRUNED",
    "PROJECTION_ONLY",
    "REQUIRED",
    "PartitionDecision",
    "Verdict",
    "LogicalPlan",
    "refuted_zones",
    "POLICY_SCAN",
    "POLICY_PARTITION",
]

#: Classification verdicts.
REQUIRED = "REQUIRED"
PRUNED = "PRUNED"
PROJECTION_ONLY = "PROJECTION-ONLY"

#: Pruning policies (see module docstring).
POLICY_SCAN = "scan"
POLICY_PARTITION = "partition"


@dataclass(frozen=True, slots=True)
class PartitionDecision:
    """The planner's verdict on one partition, with its justification.

    ``pruned_attributes`` is only set for partition-policy PRUNED verdicts:
    the predicate attributes whose refuted cells justified the prune.  The
    executor must invalidate the tuples owning those cells (see
    :meth:`~repro.plan.operators.SelectOp.invalidate`) — skipping the read is
    sound precisely because the verdict on those tuples is already known.

    A decision replayed from the serving tier's semantic partition cache
    (:class:`repro.serve.PartitionCache`) is the recorded one with
    ``[partition cache]`` appended to its reason; which structure proved a
    prune (zone or sketch) and whether the cache replayed it live in the
    plan's :class:`Verdict`, which the counters read.
    """

    pid: int
    decision: str
    reason: str = ""
    pruned_attributes: frozenset = frozenset()

    @property
    def is_pruned(self) -> bool:
        return self.decision == PRUNED


@dataclass(frozen=True, slots=True)
class Verdict:
    """A plan's zone verdict over one catalog view: the ``pruned`` pids,
    the ``sketched`` ones among them (a sketch, not a zone, proved the
    prune), and the ``cached`` pids — those a partition cache replayed the
    verdict for, which count in ``n_partitions_cache_pruned`` and carry a
    ``[partition cache]`` reason.  Immutable: a cache entry *is* one."""

    pruned: frozenset = frozenset()
    sketched: frozenset = frozenset()
    cached: frozenset = frozenset()


def refuted_zones(
    index: CatalogIndex, conjunction: Conjunction
) -> Tuple[Set[int], Set[int]]:
    """``(refuting, overlapping)``: the primary holders of a predicate
    attribute whose zone for it misses the predicate's range, and those
    whose zone for one meets it — each predicate's zone arrays
    (:meth:`CatalogIndex.zones`; no bounds is ``(-inf, +inf)``) compared
    at once.  A holder every stored predicate refutes is in the first set
    and not the second."""
    refuting: List[int] = []
    overlapping: List[int] = []
    for p in conjunction.predicates:
        pids, lo, hi = index.zones(p.attribute)
        disjoint = (hi < p.lo) | (lo > p.hi)
        refuting += pids[disjoint].tolist()
        overlapping += pids[~disjoint].tolist()
    return set(refuting), set(overlapping)


class LogicalPlan:
    """Normalized predicates, pushdown sets, and partition classification."""

    __slots__ = (
        "query",
        "conjunction",
        "projected",
        "predicate_attributes",
        "projected_attributes",
        "selection_columns",
        "projection_columns",
        "pruning",
        "policy",
        "_decisions",
        "_cached",
    )

    def __init__(self, query: Query, policy: str = POLICY_PARTITION,
                 pruning: bool = False):
        if policy not in (POLICY_SCAN, POLICY_PARTITION):
            raise ValueError(f"unknown pruning policy {policy!r}")
        self.query = query
        self.conjunction = Conjunction.normalized(query)
        self.projected: Tuple[str, ...] = tuple(query.select)
        self.predicate_attributes: frozenset = self.conjunction.attributes
        self.projected_attributes: frozenset = frozenset(self.projected)
        # Projection pushdown: the scan engine's selection phase reads
        # predicate cells only; the partition-at-a-time family also stashes
        # any co-located projected cell (Algorithm 5 line 16) so a partition
        # is never revisited.
        if policy == POLICY_SCAN:
            self.selection_columns: frozenset = self.predicate_attributes
        else:
            self.selection_columns = (
                self.predicate_attributes | self.projected_attributes
            )
        self.projection_columns: frozenset = self.projected_attributes
        self.pruning = pruning
        self.policy = policy
        self._decisions: Dict[int, PartitionDecision] = {}
        self._cached: frozenset = frozenset()

    # -------------------------------------------------------- classification

    def use_cached(self, pids: frozenset) -> None:
        """Mark ``pids``' decisions as replayed from a partition cache.

        The verdict itself comes from the cache entry
        (:class:`repro.serve.PartitionCache` keys it by the version of the
        plan's pinned view, so zones and sketches are the ones it was
        computed against); a decision made on demand for one of ``pids`` is
        the one the entry's plan made, marked as replayed.
        """
        self._cached = pids

    def classify(self, info: PartitionInfo) -> PartitionDecision:
        """Classify one partition from catalog metadata (cached per pid)."""
        decision = self._decisions.get(info.pid)
        if decision is None:
            decision = self._classify(info)
            if info.pid in self._cached:
                decision = replace(
                    decision, reason=decision.reason + " [partition cache]"
                )
            self._decisions[info.pid] = decision
        return decision

    def verdict(
        self,
        index: CatalogIndex,
        zones: Optional[Tuple[Set[int], Set[int]]] = None,
    ) -> Verdict:
        """Every pid of ``index`` this plan prunes — :meth:`classify`'s
        PRUNED verdicts, as set algebra over :func:`refuted_zones` (``zones``
        when the caller has it): a partition storing no predicate cell is
        never pruned, the scan policy also tests the zones of a predicate
        attribute's replica holders, and only a partition whose zones
        overlap and that carries sketches is classified one by one."""
        if not (self.pruning and self.conjunction):
            return Verdict()
        refuting, overlapping = zones or refuted_zones(index, self.conjunction)
        scan = self.policy == POLICY_SCAN
        pruned = set(refuting) if scan else refuting - overlapping
        survivors = overlapping - pruned
        for p in self.conjunction.predicates if scan else ():
            for pid in index.replica_pids.get(p.attribute, ()):
                if index.info(pid).zone_disjoint(p.attribute, p.lo, p.hi):
                    pruned.add(pid)
                else:
                    survivors.add(pid)
        sketched = frozenset(
            pid for pid in survivors - pruned
            if index.info(pid).sketches is not None
            and self.classify(index.info(pid)).is_pruned
        )
        return Verdict(frozenset(pruned) | sketched, sketched)

    def decisions(self) -> Tuple[PartitionDecision, ...]:
        """Every decision taken so far, in pid order (for explain output)."""
        return tuple(self._decisions[pid] for pid in sorted(self._decisions))

    def decision_map(self) -> Dict[int, PartitionDecision]:
        """Copy of every decision taken so far, keyed by pid."""
        return dict(self._decisions)

    def _classify(self, info: PartitionInfo) -> PartitionDecision:
        if self.pruning and self.conjunction:
            scan = self.policy == POLICY_SCAN
            reason = (
                self._scan_refutation(info) if scan
                else self._partition_refutation(info)
            )
            if reason is not None:
                return PartitionDecision(
                    info.pid, PRUNED, reason,
                    frozenset() if scan else self.predicate_attributes & info.attributes,
                )
        if info.attributes & self.predicate_attributes:
            return PartitionDecision(info.pid, REQUIRED, "stores predicate cells")
        return PartitionDecision(
            info.pid, PROJECTION_ONLY, "stores projected cells only"
        )

    def _scan_refutation(self, info: PartitionInfo) -> Optional[str]:
        """Any-disjoint rule: one refuted predicate excludes every tuple here."""
        for p in self.conjunction.predicates:
            if info.zone_disjoint(p.attribute, p.lo, p.hi):
                return f"zone of {p.attribute!r} disjoint from [{p.lo:g}, {p.hi:g}]"
        sketches = info.sketches
        if sketches is None:
            return None
        # Sketch pass, only after every zone overlapped.  A 1-D sketch refutes
        # one predicate outright (same soundness as the zone rule); a grid
        # refutes the *conjunction* of its attribute pair — sound here because
        # grids are only built when every segment storing either attribute
        # stores both, so each affected tuple's joint (a, b) cell pair lives
        # in this partition and provably misses the query rectangle.
        for p in self.conjunction.predicates:
            kind = sketches.refuting_sketch(p.attribute, p.lo, p.hi)
            if kind is not None:
                return f"{kind} sketch of {p.attribute!r} refutes [{p.lo:g}, {p.hi:g}]"
        return self._grid_refutation(sketches)

    def _partition_refutation(self, info: PartitionInfo) -> Optional[str]:
        """All-disjoint rule: every stored predicate cell must be refuted."""
        stored = [
            p for p in self.conjunction.predicates if p.attribute in info.attributes
        ]
        if not stored:
            return None
        names = ", ".join(p.attribute for p in stored)  # attribute-sorted
        zones = [info.zone_disjoint(p.attribute, p.lo, p.hi) for p in stored]
        if all(zones):
            return f"zones of {names} all disjoint from the query"
        sketches = info.sketches
        if sketches is None:
            return None
        # A zone overlaps (or the attribute has no zone entry): a 1-D sketch
        # refutation carries the same guarantee — every tuple owning a cell
        # of this attribute here fails the predicate.
        if all(
            zone or sketches.refuting_sketch(p.attribute, p.lo, p.hi)
            for zone, p in zip(zones, stored)
        ):
            return f"zones/sketches of {names} all refute the query"
        # The grid fallback is sound only when the stored predicate
        # attributes are exactly the grid's pair: the grid then proves every
        # tuple owning predicate cells here fails the conjunction jointly, so
        # invalidating those tuples reaches the verdict Algorithm 5 would
        # have.  A third stored-but-unrefuted predicate attribute forbids the
        # skip — its cells might belong to surviving tuples.
        return self._grid_refutation(
            sketches, frozenset(p.attribute for p in stored)
        )

    def _grid_refutation(
        self, sketches: SketchSet, stored: Optional[frozenset] = None
    ) -> Optional[str]:
        """The reason a grid sketch refutes the joint query rectangle (over
        exactly the ``stored`` pair, when given), or None."""
        grid = sketches.refuting_grid(self.conjunction.ranges())
        if grid is None or stored not in (None, frozenset(grid.attributes)):
            return None
        name_a, name_b = grid.attributes
        return (
            f"grid sketch over ({name_a!r}, {name_b!r}) refutes the "
            "joint query rectangle"
        )
