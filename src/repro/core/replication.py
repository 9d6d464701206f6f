"""Limited cell replication (the paper's first future-work item).

Section 8: *"Allowing for limited replication of certain cells could reduce
the tuple reconstruction cost when accessing multiple partitions."*

The idea implemented here: for a query whose predicate attributes live in
different partitions than its projected attributes, copy the predicate cells
into each projection partition (for exactly that partition's tuples).  The
query can then be evaluated **partition-locally** — each partition decides
which of its own tuples qualify and emits their projected cells — skipping
the predicate-only partitions entirely and never touching the global
reconstruction hash table.

The advisor is cost-based and budgeted:

* a query is *localized* only when the estimated I/O of reading its
  projection partitions (grown by the replica cells) plus zero
  reconstruction beats the standard plan's I/O + ``mem()`` reconstruction
  cost (Formulas 1 and 5);
* total replica bytes are capped at ``budget_fraction`` of the table size —
  the "limited" in limited replication;
* replica rows are stored in the partition's canonical tuple order (the
  sorted union of its primary tuple IDs, already derivable from the file),
  so replicas add cell bytes but no tuple-ID bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

import numpy as np

from ..errors import InvalidPartitioningError
from .cost import CostModel
from .query import Query, Workload

__all__ = ["ReplicationConfig", "ReplicationReport", "ReplicationAdvisor"]


@dataclass(frozen=True, slots=True)
class ReplicationConfig:
    """Budget and thresholds for the replication advisor."""

    #: replica bytes may not exceed this fraction of the table's data size.
    budget_fraction: float = 0.25
    #: require at least this much estimated saving (seconds) per query.
    min_benefit_s: float = 0.0
    #: multiply estimated local-plan costs by this factor before comparing.
    #: Zone pruning on unseen query instances is systematically weaker than
    #: the expected-case model (template mixing blurs the zones), so the
    #: advisor errs toward the known-good standard plan.
    local_cost_safety: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.budget_fraction <= 1.0:
            raise InvalidPartitioningError(
                f"budget_fraction must be in [0, 1], got {self.budget_fraction}"
            )
        if self.local_cost_safety < 1.0:
            raise InvalidPartitioningError(
                f"local_cost_safety must be >= 1, got {self.local_cost_safety}"
            )


@dataclass(slots=True)
class ReplicationReport:
    """What the advisor decided."""

    localized_queries: List[str] = field(default_factory=list)
    skipped_queries: List[str] = field(default_factory=list)
    replica_bytes: int = 0
    budget_bytes: int = 0
    #: pid -> attributes replicated into that partition
    replicas: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    @property
    def n_targets(self) -> int:
        return len(self.replicas)


class ReplicationAdvisor:
    """Chooses which predicate cells to replicate into which partitions."""

    def __init__(self, cost_model: CostModel, config: ReplicationConfig | None = None):
        self.cost_model = cost_model
        self.config = config or ReplicationConfig()

    # ------------------------------------------------------------ planning

    def plan(self, manager, table, workload: Workload) -> ReplicationReport:
        """Decide replications for ``workload`` against a materialized layout.

        ``manager`` is the :class:`~repro.storage.partition_manager.
        PartitionManager` holding the irregular layout; ``table`` the
        :class:`~repro.storage.table_data.ColumnTable` it was built from
        (needed to compute the post-replication zone maps that let the local
        plan keep Jigsaw's range pruning).  Returns the chosen replica map;
        :meth:`apply` adds it to the partitions before they are stored.
        """
        report = ReplicationReport()
        report.budget_bytes = int(
            self.config.budget_fraction * self.cost_model.table.sizeof()
        )
        self._zone_cache: Dict[Tuple[int, str], Tuple[float, float]] = {}
        candidates = []
        for query in workload:
            costs = self._query_costs(manager, table, query, {})
            if costs.local_s is None:
                report.skipped_queries.append(query.label or str(query))
                continue
            candidates.append((costs.standard_s - costs.local_s, query, costs))
        candidates.sort(key=lambda item: -item[0])

        # Greedy selection, then a workload-level acceptance loop.  Replicas
        # interact twice: they inflate the partitions *other localized*
        # queries read, and they inflate the partitions that queries staying
        # on the standard plan read.  So after the marginal greedy pass the
        # advisor compares the total expected workload cost (every query
        # priced on its better plan, all partition sizes grown by the full
        # replica map) against the no-replication baseline, and sheds the
        # weakest localized query until replication is a net win.
        ordered = [query for _benefit, query, _e in candidates]
        baseline_total = sum(
            self._query_costs(manager, table, query, {}).standard_s
            for query in workload
        )
        kept: List[Query] = list(ordered)
        chosen: Dict[int, Set[str]] = {}
        localized: List[Query] = []
        while True:
            chosen = {}
            localized = []
            spent = 0
            for query in kept:
                costs = self._query_costs(manager, table, query, chosen)
                if (
                    costs.local_s is None
                    or costs.standard_s - costs.local_s <= self.config.min_benefit_s
                    or spent + costs.new_bytes > report.budget_bytes
                ):
                    continue
                for pid, attrs in costs.needs.items():
                    chosen.setdefault(pid, set()).update(attrs)
                spent += costs.new_bytes
                localized.append(query)
            if not localized:
                chosen = {}
                break
            # Workload objective under the final replica map.
            total = 0.0
            margins = []
            localized_labels = {id(q) for q in localized}
            for query in workload:
                costs = self._query_costs(manager, table, query, chosen)
                if id(query) in localized_labels and costs.local_s is not None:
                    total += min(costs.local_s, costs.standard_s)
                    margins.append((costs.standard_s - costs.local_s, query))
                else:
                    total += costs.standard_s
            if total < baseline_total:
                break
            # Shed the weakest localized query and retry.
            margins.sort(key=lambda item: item[0])
            weakest = margins[0][1]
            kept = [query for query in kept if query is not weakest]
        report.localized_queries = [q.label or str(q) for q in localized]
        kept_ids = {id(q) for q in localized}
        report.skipped_queries.extend(
            q.label or str(q) for q in ordered if id(q) not in kept_ids
        )
        report.replicas = {pid: frozenset(attrs) for pid, attrs in chosen.items()}
        widths = {
            name: self.cost_model.table.schema.byte_width(name)
            for name in self.cost_model.table.attribute_names
        }
        report.replica_bytes = sum(
            manager.info(pid).n_tuples * sum(widths[a] for a in attrs)
            for pid, attrs in chosen.items()
        )
        return report

    # ------------------------------------------------------------ applying

    def apply(self, partitions, table, report: ReplicationReport) -> None:
        """Add the chosen replicas to the not-yet-stored physical partitions
        (``partitions[pid]``): each target gets one appended replica segment
        holding the predicate cells for all of the partition's tuples, and
        is then written once, replicas included."""
        from ..storage.physical import TID_CATALOG, PhysicalSegment

        for pid, attributes in sorted(report.replicas.items()):
            partition = partitions[pid]
            tids = partition.all_tuple_ids()
            ordered = tuple(
                a for a in table.schema.attribute_names if a in attributes
            )
            partition.segments.append(PhysicalSegment(
                attributes=ordered,
                tuple_ids=tids,
                columns=table.gather(ordered, tids),
                tid_storage=TID_CATALOG,
                replica=True,
            ))

    # ----------------------------------------------------------- internals

    @dataclass(slots=True)
    class _QueryCosts:
        """Expected cost of one query under a planned replica map."""

        standard_s: float
        local_s: float | None
        new_bytes: int
        needs: Dict[int, Set[str]]

    def _zone(self, manager, table, pid: int, attribute: str) -> Tuple[float, float]:
        """Post-replication zone of ``attribute`` over the partition's tuples."""
        key = (pid, attribute)
        cached = self._zone_cache.get(key)
        if cached is not None:
            return cached
        tids = manager.info(pid).tuple_ids()
        if not len(tids):
            zone = (0.0, -1.0)  # empty: disjoint with everything
        else:
            cells = table.column(attribute)[tids]
            zone = (float(cells.min()), float(cells.max()))
        self._zone_cache[key] = zone
        return zone

    def _query_costs(self, manager, table, query: Query, already) -> "_QueryCosts":
        """Expected standard and local costs of one query.

        Standard plan: read every predicate partition plus the projection
        partitions expected to hold matching tuples, plus ``mem()``
        reconstruction; partitions the plan reads pay for any replicas
        already planned into them.  Local plan: read the projection
        partitions whose (post-replication) zone maps overlap the predicate
        box — replicas restore the range pruning Jigsaw's access() test
        gives the standard plan — each grown by its replica cells.
        ``local_s`` is None when the query cannot be localized.
        """
        pred_attrs = sorted(query.sigma_attributes)
        index = manager.catalog_index()
        proj_pids = set(index.pids_for_attributes(query.pi_attributes))
        pred_pids = set(index.pids_for_attributes(pred_attrs))
        if not pred_attrs or not proj_pids:
            standard = self._standard_only_cost(manager, query, already, proj_pids, pred_pids)
            return self._QueryCosts(standard, None, 0, {})

        needs: Dict[int, Set[str]] = {}
        new_bytes = 0
        schema = self.cost_model.table.schema
        widths = {a: schema.byte_width(a) for a in schema.attribute_names}
        for pid in proj_pids:
            info = manager.info(pid)
            covered = set(info.full_coverage_attrs)
            if already and pid in already:
                covered |= already[pid]
            missing = [a for a in pred_attrs if a not in covered]
            if missing:
                needs[pid] = set(missing)
                new_bytes += info.n_tuples * sum(widths[a] for a in missing)

        # Expected-case read sets over random instances of the query's
        # template (the predicate windows slide; training constants must not
        # be baked in or the plan overfits).  Per projection partition:
        #
        # * the LOCAL plan reads it when its (post-replication) zone overlaps
        #   the window: P_overlap = (zone_width + window) / span per
        #   predicate attribute;
        # * the STANDARD engine reads it when it holds at least one matching
        #   tuple; given an overlap, the expected matches are
        #   n * window / (zone_width + window), so
        #   P_standard = P_overlap * (1 - exp(-expected_matches)).
        #
        # For partitions value-aligned with a predicate attribute the two
        # probabilities coincide and replication wins the predicate-column
        # reads; for partitions with full-range zones but sparse matches the
        # standard engine's tuple-level index prunes better and the estimate
        # correctly penalizes localization.
        table_meta = self.cost_model.table
        proj_set = set(query.pi_attributes)
        expected_standard_proj = 0.0
        local_io = 0.0
        expected_matches_total = 0.0
        for pid in proj_pids:
            info = manager.info(pid)
            if info.n_tuples == 0:
                continue
            # The standard engine reads this partition only when a *matching*
            # tuple owns one of the query's projected cells here — an
            # irregular partition may store those cells for only a fraction
            # of its tuples.
            n_eff = min(
                info.n_tuples,
                sum(
                    len(tids)
                    for attrs, tids, replica in zip(
                        info.segment_attrs, info.segment_tids, info.segment_replicas
                    )
                    if not replica and proj_set & set(attrs)
                ),
            )
            p_overlap = 1.0
            expected_matches = float(n_eff)
            for name, interval in query.where.items():
                span = table_meta.interval(name).width(1.0)
                window = min(span, interval.hi - interval.lo + 1.0)
                lo, hi = self._zone(manager, table, pid, name)
                zone_width = max(0.0, hi - lo + 1.0)
                p_overlap *= min(1.0, (zone_width + window) / span)
                expected_matches *= window / max(window, zone_width + window)
            p_standard = p_overlap * (1.0 - float(np.exp(-expected_matches)))
            # Reads pay for every replica planned into this partition —
            # other queries' included, not just this query's needs — on
            # BOTH plans: the bytes are in the file either way.
            growth_attrs = set(needs.get(pid, ()))
            if already and pid in already:
                growth_attrs |= already[pid]
            grown = info.n_bytes + info.n_tuples * sum(
                widths[a] for a in growth_attrs
            )
            expected_standard_proj += p_standard * self.cost_model.io(grown)
            expected_matches_total += p_overlap * expected_matches
            local_io += p_overlap * self.cost_model.io(grown)

        standard_io = expected_standard_proj + sum(
            self._grown_bytes_io(manager, pid, already, widths) for pid in pred_pids
        )
        # Reconstruction saved: survivors no longer pass through the global
        # hash table (they are emitted partition-locally).
        recons = self.cost_model.memory_model.mem(expected_matches_total)
        return self._QueryCosts(
            standard_s=standard_io + recons,
            local_s=local_io * self.config.local_cost_safety,
            new_bytes=new_bytes,
            needs=needs,
        )

    def _grown_bytes_io(self, manager, pid: int, already, widths) -> float:
        """io() of a partition grown by the replicas planned into it."""
        info = manager.info(pid)
        grown = info.n_bytes
        if already and pid in already:
            grown += info.n_tuples * sum(widths[a] for a in already[pid])
        return self.cost_model.io(grown)

    def _standard_only_cost(
        self, manager, query: Query, already, proj_pids, pred_pids
    ) -> float:
        """Standard-plan cost for queries that cannot be localized."""
        schema = self.cost_model.table.schema
        widths = {a: schema.byte_width(a) for a in schema.attribute_names}
        table_meta = self.cost_model.table
        total = sum(
            self._grown_bytes_io(manager, pid, already, widths) for pid in pred_pids
        )
        selectivity = 1.0
        units = schema.units()
        for name, interval in query.where.items():
            selectivity *= table_meta.interval(name).overlap_fraction(
                interval, units.get(name, 0.0)
            )
        survivors = 0.0
        for pid in proj_pids - pred_pids:
            info = manager.info(pid)
            if info.n_tuples == 0:
                continue
            expected_matches = info.n_tuples * max(selectivity, 0.0)
            p_read = 1.0 - float(np.exp(-expected_matches))
            total += p_read * self._grown_bytes_io(manager, pid, already, widths)
            survivors += expected_matches
        total += self.cost_model.memory_model.mem(survivors)
        return total
