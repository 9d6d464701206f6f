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
per split.  Both sides are priced from pinned catalog views — the ones the
DAG executor's leaf scans then read — never from the live catalog, each from
the key zones and sizes memoised on the view's index, so a request visits
only the partitions the pushed key range cannot refute.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Protocol, Sequence, Tuple

from ..core.cost import IOModel, MemoryModel
from ..core.schema import TableMeta
from ..storage.partition_manager import CatalogSnapshot, PartitionManager

__all__ = [
    "JoinSplit",
    "JoinStrategy",
    "choose_join_strategy",
    "pinned",
]


class TableBinding(Protocol):
    """What the chooser needs from a catalog entry (MaterializedLayout fits):
    the table, its storage, and the engine (for its ``pruning``)."""

    table: TableMeta
    manager: PartitionManager
    executor: Any


@contextmanager
def pinned(bindings: Sequence[TableBinding]) -> Iterator[List[CatalogSnapshot]]:
    """One pinned catalog view per binding, released together."""
    with ExitStack() as stack:
        yield [stack.enter_context(b.manager.pin_snapshot()) for b in bindings]


#: One join side as priced: ``(lo, hi, n_bytes, rows_est, io_s)`` per keyed
#: partition the pushed key range meets, in pid order; then the bytes and
#: per-partition I/O seconds of those every split re-reads.
_Entry = Tuple[float, float, int, float, float]
_Side = Tuple[List[_Entry], int, List[float]]


def _side(binding: TableBinding, view: CatalogSnapshot, key: str,
          key_range: Tuple[float, float], columns: Sequence[str]) -> _Side:
    """One side, from the pinned ``view``'s memoised key zones
    (:meth:`CatalogIndex.key_zones`) of the partitions projection pushdown
    keeps: the ones the pushed key range cannot refute."""
    keyed, unkeyed, sizes = view.index.key_zones(key, frozenset((key, *columns)))
    io = binding.manager.device.profile.io_model.io_time
    width = max(1, binding.table.schema.row_width())
    # Per-split key bounds only narrow reads when the leaf engine prunes
    # refuted partitions (``zone_maps=False`` and the threaded engine do not).
    if binding.executor.pruning:
        klo, khi = key_range
        kept = [(lo, hi, n, n / width, io(n)) for lo, hi, n in keyed if not (hi < klo or lo > khi)]
    else:
        # Every partition is read whatever the key bound: each costs as an
        # unkeyed one, though its zone still shapes the splits.
        kept, unkeyed = [(lo, hi, 0, n / width, 0.0) for lo, hi, n in keyed], sizes
    return kept, sum(unkeyed), [io(n) for n in unkeyed]


def _price(side: _Side, keyed: List[_Entry]) -> Tuple[int, float, float]:
    """``(bytes, rows, io seconds)`` of reading the ``keyed`` partitions and
    every unkeyed one of ``side``: keyed first, each a left-to-right sum."""
    _kept, unkeyed_bytes, unkeyed_io = side
    return (
        sum([entry[2] for entry in keyed]) + unkeyed_bytes,
        sum([entry[3] for entry in keyed]),
        sum([entry[4] for entry in keyed] + unkeyed_io),
    )


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
    views: Optional[Sequence[CatalogSnapshot]] = None,
) -> JoinStrategy:
    """Pick partition-wise vs broadcast for one join, priced per split.

    ``key_range`` is the pushed-down bound on the join key (after
    equivalence propagation) — the chooser only considers partitions it
    cannot refute.  ``force`` overrides the decision ("partition-wise",
    "broadcast", or "naive") for benchmarking.  ``views`` are the left and
    right catalog views the scans will read; a plan-only caller passes none
    and the current versions are pinned for the pricing.
    """
    memory = memory_model or MemoryModel()
    io_left = left.manager.device.profile.io_model
    io_right = right.manager.device.profile.io_model

    if views is None:  # a plan-only caller: price the current versions
        with pinned((left, right)) as views:
            return choose_join_strategy(
                left, right, left_key, right_key, key_range, left_columns,
                right_columns, spill_budget_bytes, memory_model, force, views,
            )
    lp = _side(left, views[0], left_key, key_range, left_columns)
    rp = _side(right, views[1], right_key, key_range, right_columns)

    # ---- broadcast pricing: one scan each, build the smaller side -------
    # The engines read partition-at-a-time, so a scan is one I/O request
    # per non-pruned partition (per-request ``beta`` included) — the same
    # accounting :func:`~repro.core.cost.estimate_access_io` uses.
    left_total = left_in_bytes, left_rows, left_io = _price(lp, lp[0])
    right_total = right_in_bytes, right_rows, right_io = _price(rp, rp[0])
    build_side = "left" if left_in_bytes <= right_in_bytes else "right"
    build_bytes = left_in_bytes if build_side == "left" else right_in_bytes
    build_rows = left_rows if build_side == "left" else right_rows
    build_io = io_left if build_side == "left" else io_right
    broadcast_cost = (
        left_io + right_io
        + memory.mem(build_rows)
        + _spill_penalty(build_io, build_bytes, spill_budget_bytes)
    )

    # ---- split derivation ----------------------------------------------
    components = _merge_components([entry[:2] for entry in lp[0] + rp[0]])
    components = [
        (max(lo_, key_range[0]), min(hi_, key_range[1]))
        for lo_, hi_ in components
        if _overlap((lo_, hi_), key_range)
    ]

    splits: List[JoinSplit] = []
    pw_cost = 0.0
    for lo_, hi_ in components:
        # A split meeting every keyed partition of a side costs what a
        # broadcast scan of it does.
        lin = [entry for entry in lp[0] if entry[0] <= hi_ and lo_ <= entry[1]]
        rin = [entry for entry in rp[0] if entry[0] <= hi_ and lo_ <= entry[1]]
        lbytes, lrows, lio = left_total if len(lin) == len(lp[0]) else _price(lp, lin)
        rbytes, rrows, rio = right_total if len(rin) == len(rp[0]) else _price(rp, rin)
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
            lio + rio
            + memory.mem(sb_rows)
            + _spill_penalty(sb_io, sb_bytes, spill_budget_bytes)
        )

    # ---- decide ---------------------------------------------------------
    if force is not None:
        kind = force
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
