"""Per-split physical join strategy: partition-wise vs broadcast-build.

"One join order does not fit all": when both sides of an equi-join are
(approximately) partitioned on the join key, the key domain decomposes into
disjoint **splits** — connected components of the union of both sides' zone
map intervals on the key.  Every matching tuple pair has equal keys, so each
pair falls entirely inside exactly one split; joining split-by-split is
correct *regardless* of how the tables are actually partitioned, and
co-partitioning only decides whether it is cheap.

The chooser prices both shapes with the same ingredients the single-table
planner uses — catalog zone maps, per-partition byte sizes, the device's
fitted :class:`~repro.core.cost.IOModel` and the
:class:`~repro.core.cost.MemoryModel`'s ``mem()`` hash-insert cost, plus the
Grace-join spill penalty when a build side would exceed the buffer-pool
budget:

* **partition-wise** — run both scans once per split with the split's key
  bounds pushed down; build the cheaper side *of that split* (so the build
  side may flip between splits).  Pays replicated reads for partitions that
  do not carry the key (their zone maps cannot refute any split).
* **broadcast** — scan each side once, build the smaller whole side.  Pays
  spill I/O when that build side exceeds the budget.

Each decision carries a human-readable reason that EXPLAIN ANALYZE renders
per split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Protocol, Sequence, Tuple

from ..core.cost import IOModel, MemoryModel
from ..core.schema import TableMeta
from ..storage.partition_manager import PartitionManager

__all__ = [
    "JoinSplit",
    "JoinStrategy",
    "SideProfile",
    "choose_join_strategy",
    "profile_side",
]


class TableBinding(Protocol):
    """What the chooser needs from a catalog entry (MaterializedLayout fits):
    the table, its storage, and the engine (for its ``pruning``)."""

    table: TableMeta
    manager: PartitionManager
    executor: Any


@dataclass(slots=True)
class SideProfile:
    """One join side's zone-map view of the key column.

    ``keyed`` holds ``(lo, hi, n_bytes, n_tuples_est)`` for partitions whose
    zone map bounds the key and overlaps the pushed key range; ``unkeyed``
    lists byte sizes of partitions the key range cannot refute (no key
    cells, or no zone entry) — those are re-read by every split.
    """

    table: str
    key: str
    keyed: List[Tuple[float, float, int, float]] = field(default_factory=list)
    unkeyed: List[int] = field(default_factory=list)
    total_bytes: int = 0
    n_tuples: int = 0

    @property
    def unkeyed_bytes(self) -> int:
        return sum(self.unkeyed)


def binding_prunes(binding: TableBinding) -> bool:
    """Whether the bound engine's planner zone-prunes pushed predicates.

    Per-split key bounds only narrow reads when the leaf engine prunes
    refuted partitions; engines built with ``zone_maps=False`` (and the
    threaded engine) re-read every relevant partition in every split, and
    the chooser must price them that way.
    """
    return binding.executor.pruning


def profile_side(
    binding: TableBinding,
    key: str,
    key_range: Tuple[float, float],
    columns: Sequence[str],
) -> SideProfile:
    """Scan the catalog once and bucket partitions by key-zone knowledge."""
    manager = binding.manager
    meta = binding.table
    profile = SideProfile(table=meta.name, key=key, n_tuples=meta.n_tuples)
    lo, hi = key_range
    needed = set(columns) | {key}
    tuple_bytes = max(1, meta.schema.row_width())
    prunes = binding_prunes(binding)
    for pid in manager.pids():
        info = manager.info(pid)
        if not (set(info.attributes) & needed):
            continue  # irrelevant to this scan under projection pushdown
        profile.total_bytes += info.n_bytes
        zone = info.zone_map.get(key) if key in info.attributes else None
        if zone is None:
            profile.unkeyed.append(info.n_bytes)
            continue
        zlo, zhi = zone
        if prunes and (zhi < lo or zlo > hi):
            continue  # zone-pruned by the pushed key range in every shape
        rows_est = info.n_bytes / tuple_bytes
        if prunes:
            profile.keyed.append((zlo, zhi, info.n_bytes, rows_est))
        else:
            # The engine will read this partition regardless of the pushed
            # key bound — cost-wise it behaves like an unkeyed partition,
            # though its zone still contributes to split derivation.
            profile.keyed.append((zlo, zhi, 0, rows_est))
            profile.unkeyed.append(info.n_bytes)
    return profile


@dataclass(slots=True)
class JoinSplit:
    """One disjoint key-range split and its per-split build choice."""

    lo: float
    hi: float
    left_bytes: int
    right_bytes: int
    left_rows_est: float
    right_rows_est: float
    build_side: str  # "left" | "right"
    reason: str

    @property
    def key_range(self) -> Tuple[float, float]:
        return (self.lo, self.hi)


@dataclass(slots=True)
class JoinStrategy:
    """The chosen physical shape for one join node."""

    kind: str  # "partition-wise" | "broadcast" | "naive"
    build_side: str  # broadcast/naive build choice ("left" | "right")
    splits: Tuple[JoinSplit, ...]
    reason: str
    est_cost: float
    est_partition_wise_cost: float
    est_broadcast_cost: float
    #: rows on key-bearing partitions the pushed key range cannot refute,
    #: per side — what aggregate placement prices a partial against.
    left_rows_est: float = 0.0
    right_rows_est: float = 0.0


def _merge_components(
    intervals: Sequence[Tuple[float, float]],
) -> List[Tuple[float, float]]:
    """Connected components of a set of closed intervals.

    Two closed zones merge only when they genuinely share a value
    (``lo <= hi``): integer zones ``[1, 100]`` and ``[101, 200]`` stay
    separate — no key value, hence no join pair, can span them — which is
    exactly what makes contiguously range-partitioned sides decompose into
    per-partition splits.
    """
    if not intervals:
        return []
    ordered = sorted(intervals)
    merged = [list(ordered[0])]
    for lo, hi in ordered[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _overlap(a: Tuple[float, float], b: Tuple[float, float]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def _spill_penalty(
    io_model: IOModel, build_bytes: float, budget: Optional[int]
) -> float:
    """Extra simulated seconds if a build of this size must spill.

    A Grace join writes the build side once and reads it back once."""
    if budget is None or budget <= 0 or build_bytes <= budget:
        return 0.0
    return 2.0 * io_model.io_time(build_bytes)


def choose_join_strategy(
    left: TableBinding,
    right: TableBinding,
    left_key: str,
    right_key: str,
    key_range: Tuple[float, float],
    left_columns: Sequence[str],
    right_columns: Sequence[str],
    spill_budget_bytes: Optional[int] = None,
    memory_model: Optional[MemoryModel] = None,
    force: Optional[str] = None,
) -> JoinStrategy:
    """Pick partition-wise vs broadcast for one join, priced per split.

    ``key_range`` is the pushed-down bound on the join key (after
    equivalence propagation) — the chooser only considers partitions it
    cannot refute.  ``force`` overrides the decision ("partition-wise",
    "broadcast", or "naive") for benchmarking.
    """
    memory = memory_model or MemoryModel()
    io_left = left.manager.device.profile.io_model
    io_right = right.manager.device.profile.io_model

    lp = profile_side(left, left_key, key_range, left_columns)
    rp = profile_side(right, right_key, key_range, right_columns)

    # ---- broadcast pricing: one scan each, build the smaller side -------
    # The engines read partition-at-a-time, so a scan is one I/O request
    # per non-pruned partition (per-request ``beta`` included) — the same
    # accounting :func:`~repro.core.cost.estimate_access_io` uses.
    def scan_io(io_model: IOModel, sizes: Sequence[int]) -> float:
        return sum(io_model.io_time(size) for size in sizes)

    left_sizes = [b for _, _, b, _ in lp.keyed] + lp.unkeyed
    right_sizes = [b for _, _, b, _ in rp.keyed] + rp.unkeyed
    left_in_bytes = sum(left_sizes)
    right_in_bytes = sum(right_sizes)
    left_rows = sum(r for _, _, _, r in lp.keyed)
    right_rows = sum(r for _, _, _, r in rp.keyed)
    build_side = "left" if left_in_bytes <= right_in_bytes else "right"
    build_bytes = left_in_bytes if build_side == "left" else right_in_bytes
    build_rows = left_rows if build_side == "left" else right_rows
    build_io = io_left if build_side == "left" else io_right
    broadcast_cost = (
        scan_io(io_left, left_sizes)
        + scan_io(io_right, right_sizes)
        + memory.mem(build_rows)
        + _spill_penalty(build_io, build_bytes, spill_budget_bytes)
    )

    # ---- split derivation ----------------------------------------------
    all_zones = [(lo_, hi_) for lo_, hi_, _, _ in lp.keyed]
    all_zones += [(lo_, hi_) for lo_, hi_, _, _ in rp.keyed]
    components = _merge_components(all_zones)
    components = [
        (max(lo_, key_range[0]), min(hi_, key_range[1]))
        for lo_, hi_ in components
        if _overlap((lo_, hi_), key_range)
    ]

    splits: List[JoinSplit] = []
    pw_cost = 0.0
    for lo_, hi_ in components:
        split_range = (lo_, hi_)
        lsizes = [
            b for zlo, zhi, b, _ in lp.keyed if _overlap((zlo, zhi), split_range)
        ] + lp.unkeyed
        rsizes = [
            b for zlo, zhi, b, _ in rp.keyed if _overlap((zlo, zhi), split_range)
        ] + rp.unkeyed
        lbytes, rbytes = sum(lsizes), sum(rsizes)
        lrows = sum(
            r for zlo, zhi, _, r in lp.keyed if _overlap((zlo, zhi), split_range)
        )
        rrows = sum(
            r for zlo, zhi, _, r in rp.keyed if _overlap((zlo, zhi), split_range)
        )
        if lbytes <= rbytes:
            split_build, sb_bytes, sb_rows, sb_io = "left", lbytes, lrows, io_left
        else:
            split_build, sb_bytes, sb_rows, sb_io = "right", rbytes, rrows, io_right
        reason = (
            f"build={split_build} ({min(lbytes, rbytes)}B vs "
            f"{max(lbytes, rbytes)}B est)"
        )
        splits.append(
            JoinSplit(
                lo=lo_,
                hi=hi_,
                left_bytes=lbytes,
                right_bytes=rbytes,
                left_rows_est=lrows,
                right_rows_est=rrows,
                build_side=split_build,
                reason=reason,
            )
        )
        pw_cost += (
            scan_io(io_left, lsizes)
            + scan_io(io_right, rsizes)
            + memory.mem(sb_rows)
            + _spill_penalty(sb_io, sb_bytes, spill_budget_bytes)
        )

    # ---- decide ---------------------------------------------------------
    if force is not None:
        kind = force
        if force == "partition-wise" and len(splits) < 2:
            # A single split degenerates to broadcast; keep it honest.
            kind = "partition-wise"
        reason = f"forced {force}"
    elif not splits:
        kind = "broadcast"
        reason = "no key-bearing partitions overlap the pushed key range"
    elif len(splits) < 2:
        kind = "broadcast"
        reason = (
            "key zones form a single connected range — sides are not "
            "co-partitioned on the join key"
        )
    elif pw_cost <= broadcast_cost:
        kind = "partition-wise"
        reason = (
            f"{len(splits)} disjoint key splits; est "
            f"{pw_cost:.3g}s <= broadcast {broadcast_cost:.3g}s"
        )
    else:
        kind = "broadcast"
        reason = (
            f"{len(splits)} splits but replicated reads make partition-wise "
            f"est {pw_cost:.3g}s > broadcast {broadcast_cost:.3g}s"
        )

    est = pw_cost if kind == "partition-wise" else broadcast_cost
    return JoinStrategy(
        kind=kind,
        build_side=build_side,
        splits=tuple(splits),
        reason=reason,
        est_cost=est,
        est_partition_wise_cost=pw_cost,
        est_broadcast_cost=broadcast_cost,
        left_rows_est=left_rows,
        right_rows_est=right_rows,
    )
