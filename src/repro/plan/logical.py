"""The logical plan: predicate normalization, projection pushdown, pruning.

The first of the three planning layers.  A :class:`LogicalPlan` is pure
metadata — built from the query and the catalog only, before any I/O:

* **normalized predicates** — the query's WHERE clause as a canonical
  attribute-sorted :class:`~repro.plan.predicates.Conjunction`;
* **projection-pushdown column sets** — which columns each phase reads
  (``selection_columns`` / ``projection_columns``), as ``explain()``
  reports them; a load decodes a cell on first access, so a phase decodes
  nothing else;
* **partition classification** — a candidate partition is classified as
  REQUIRED, PRUNED, or PROJECTION_ONLY from segment range metadata (the
  catalog zone maps), so executors can skip reads the metadata already
  refutes.  Verdicts are made on demand, where the physical plan's
  consumers ask for them, and memoised per pid.

Two pruning policies exist because the engines' correctness arguments
differ.  The *scan* policy (rectangular layouts) may prune a partition as
soon as **any** stored predicate attribute's zone is disjoint from the
query range: every tuple with a predicate cell there fails the conjunction.
The *partition* policy (partition-at-a-time over irregular partitions) may
prune only when **every** stored predicate attribute's zone is disjoint — a
partition whose zone overlaps one predicate must be read, because it may
also store other predicates' cells for tuples that survive.  Either way the
pruned partition's tuples must be explicitly invalidated, which is the
catalog-only verdict Algorithm 5 would have reached with I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Mapping, Tuple

from ..core.query import Query
from ..storage.partition_manager import PartitionInfo
from .predicates import Conjunction

__all__ = [
    "PRUNED",
    "PROJECTION_ONLY",
    "REQUIRED",
    "PartitionDecision",
    "LogicalPlan",
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
    the predicate attributes whose disjoint zones justified the prune.  The
    executor must invalidate the tuples owning those cells (see
    :meth:`~repro.plan.operators.SelectOp.invalidate`) — skipping the read is
    sound precisely because the verdict on those tuples is already known.

    ``source`` records which catalog structure proved a PRUNED verdict:
    ``"zone"`` when min/max ranges sufficed, ``"sketch"`` when a
    per-partition sketch (dictionary, Bloom, or grid — see
    :mod:`repro.storage.sketches`) was needed.  Executors use it to count
    ``n_partitions_sketch_pruned``.

    ``via_cache`` marks a decision *replayed* from the serving tier's
    semantic partition cache (:class:`repro.serve.PartitionCache`) rather
    than recomputed from zones/sketches.  The verdict and ``source`` are the
    original ones — a replayed sketch prune still counts as a sketch prune —
    so cache-on accounting differs from cache-off only in the dedicated
    ``n_partitions_cache_pruned`` counter.
    """

    pid: int
    decision: str
    reason: str = ""
    pruned_attributes: frozenset = frozenset()
    source: str = "zone"
    via_cache: bool = False

    @property
    def is_pruned(self) -> bool:
        return self.decision == PRUNED


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
        self._cached: Dict[int, PartitionDecision] = {}

    # -------------------------------------------------------- classification

    def use_cached(self, decisions: Mapping[int, PartitionDecision]) -> None:
        """Seed classification with verdicts replayed from a partition cache.

        A replayed verdict short-circuits the zone/sketch probes in
        :meth:`_classify`; it is sound only when the cache key guaranteed the
        catalog state (zones *and* sketches) is the one the verdict was
        computed against — :class:`repro.serve.PartitionCache` keys entries
        by the version of the plan's pinned view for exactly that reason.  Pids
        absent from the seed fall back to a full classification, so a cached
        entry never has to cover the current query's whole access list.
        """
        self._cached = dict(decisions)

    def classify(self, info: PartitionInfo) -> PartitionDecision:
        """Classify one partition from catalog metadata (cached per pid)."""
        decision = self._decisions.get(info.pid)
        if decision is None:
            replayed = self._cached.get(info.pid)
            if replayed is not None:
                decision = replace(
                    replayed,
                    via_cache=True,
                    reason=replayed.reason + " [partition cache]",
                )
            else:
                decision = self._classify(info)
            self._decisions[info.pid] = decision
        return decision

    def decisions(self) -> Tuple[PartitionDecision, ...]:
        """Every decision taken so far, in pid order (for explain output)."""
        return tuple(self._decisions[pid] for pid in sorted(self._decisions))

    def decision_map(self) -> Dict[int, PartitionDecision]:
        """Copy of every decision taken so far, keyed by pid (for caching)."""
        return dict(self._decisions)

    def _classify(self, info: PartitionInfo) -> PartitionDecision:
        if self.pruning and self.conjunction:
            pruned = (
                self._prune_scan(info)
                if self.policy == POLICY_SCAN
                else self._prune_partition(info)
            )
            if pruned is not None:
                return pruned
        if info.attributes & self.predicate_attributes:
            return PartitionDecision(info.pid, REQUIRED, "stores predicate cells")
        return PartitionDecision(
            info.pid, PROJECTION_ONLY, "stores projected cells only"
        )

    def _prune_scan(self, info: PartitionInfo) -> PartitionDecision | None:
        """Any-disjoint rule: one refuted predicate excludes every tuple here."""
        for predicate in self.conjunction.predicates:
            if info.zone_disjoint(predicate.attribute, predicate.lo, predicate.hi):
                return PartitionDecision(
                    info.pid,
                    PRUNED,
                    f"zone of {predicate.attribute!r} disjoint from "
                    f"[{predicate.lo:g}, {predicate.hi:g}]",
                )
        sketches = info.sketches
        if sketches is None:
            return None
        # Sketch pass, only after every zone overlapped.  A 1-D sketch refutes
        # one predicate outright (same soundness as the zone rule); a grid
        # refutes the *conjunction* of its attribute pair — sound here because
        # grids are only built when every segment storing either attribute
        # stores both, so each affected tuple's joint (a, b) cell pair lives
        # in this partition and provably misses the query rectangle.
        for predicate in self.conjunction.predicates:
            kind = sketches.refuting_sketch(
                predicate.attribute, predicate.lo, predicate.hi
            )
            if kind is not None:
                return PartitionDecision(
                    info.pid,
                    PRUNED,
                    f"{kind} sketch of {predicate.attribute!r} refutes "
                    f"[{predicate.lo:g}, {predicate.hi:g}]",
                    source="sketch",
                )
        grid = sketches.refuting_grid(self.conjunction.ranges())
        if grid is not None:
            name_a, name_b = grid.attributes
            return PartitionDecision(
                info.pid,
                PRUNED,
                f"grid sketch over ({name_a!r}, {name_b!r}) refutes the "
                "joint query rectangle",
                source="sketch",
            )
        return None

    def _prune_partition(self, info: PartitionInfo) -> PartitionDecision | None:
        """All-disjoint rule: every stored predicate cell must be refuted."""
        stored = [
            p for p in self.conjunction.predicates if p.attribute in info.attributes
        ]
        if not stored:
            return None
        sketches = info.sketches
        used_sketch = False
        for predicate in stored:
            disjoint = info.zone_disjoint(
                predicate.attribute, predicate.lo, predicate.hi
            )
            if disjoint:
                continue
            # Zone overlaps (or the attribute has no zone entry): a 1-D
            # sketch refutation carries the same guarantee — every tuple
            # owning a cell of this attribute here fails the predicate.
            if sketches is not None and sketches.refuting_sketch(
                predicate.attribute, predicate.lo, predicate.hi
            ):
                used_sketch = True
                continue
            return self._prune_partition_grid(info, stored)
        names = frozenset(p.attribute for p in stored)
        if used_sketch:
            return PartitionDecision(
                info.pid,
                PRUNED,
                "zones/sketches of " + ", ".join(sorted(names))
                + " all refute the query",
                pruned_attributes=names,
                source="sketch",
            )
        return PartitionDecision(
            info.pid,
            PRUNED,
            "zones of " + ", ".join(sorted(names)) + " all disjoint from the query",
            pruned_attributes=names,
        )

    def _prune_partition_grid(
        self, info: PartitionInfo, stored
    ) -> PartitionDecision | None:
        """Grid fallback for the partition policy.

        Sound only when the partition's stored predicate attributes are
        exactly the grid's pair: the grid then proves every tuple owning
        predicate cells here fails the conjunction jointly, so invalidating
        those tuples (``pruned_attributes`` = the pair) reaches the verdict
        Algorithm 5 would have.  A third stored-but-unrefuted predicate
        attribute forbids the skip — its cells might belong to surviving
        tuples.
        """
        sketches = info.sketches
        if sketches is None:
            return None
        stored_names = frozenset(p.attribute for p in stored)
        grid = sketches.refuting_grid(self.conjunction.ranges())
        if grid is None or stored_names != frozenset(grid.attributes):
            return None
        name_a, name_b = grid.attributes
        return PartitionDecision(
            info.pid,
            PRUNED,
            f"grid sketch over ({name_a!r}, {name_b!r}) refutes the "
            "joint query rectangle",
            pruned_attributes=stored_names,
            source="sketch",
        )
