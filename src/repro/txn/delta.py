"""Per-version write-path state: what is not folded yet, and what is visible.

A commit's inserted rows are an ordinary catalog partition (one full-schema
segment over the fresh tids, written by
:meth:`~repro.txn.table.TransactionalTable.commit` through the same
``swap_partitions`` every other partition takes), so there is nothing to
store here but bookkeeping.  Each version the write path minted has one
immutable :class:`DeltaState`:

* ``segments`` — the catalog entries of the commit partitions no
  :class:`~repro.txn.compactor.DeltaCompactor` pass has coalesced yet (the
  compaction debt the ``jigsaw_txn_delta_*`` gauges report);
* ``tombstones`` — deleted tids some partition still physically stores;
* ``visible`` — one boolean per tid below the version's watermark, False for
  every tid deleted by then.  Tids are never reused (an update is a
  tombstone plus a fresh tid), so this one mask is the whole visibility
  rule: the engines receive what it hides as ``snapshot.hidden``
  (:meth:`DeltaState.hidden`, derived once per state and domain) and read
  the commit partitions like any other partition.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

import numpy as np

from ..storage.partition_manager import PartitionInfo

__all__ = ["DeltaState"]


class DeltaState:
    """Immutable view of the write path at one version.

    States are persistent-data-structure style: each commit derives the next
    state from the previous one, so older pinned versions keep their exact
    view.  A compaction changes what is outstanding, never what is visible.
    """

    __slots__ = ("segments", "tombstones", "visible", "_tombstone_array",
                 "_hidden")

    def __init__(
        self,
        segments: Tuple[PartitionInfo, ...],
        tombstones: FrozenSet[int],
        visible: np.ndarray,
    ):
        self.segments = segments
        self.tombstones = tombstones
        self.visible = visible
        self._tombstone_array: Optional[np.ndarray] = None
        #: ``(n_tuples, hidden(n_tuples))`` of the last domain asked for.
        self._hidden: Optional[Tuple[int, Optional[np.ndarray]]] = None

    def tombstone_array(self) -> np.ndarray:
        if self._tombstone_array is None:
            self._tombstone_array = np.fromiter(
                sorted(self.tombstones), dtype=np.int64,
                count=len(self.tombstones),
            )
        return self._tombstone_array

    def with_commit(
        self,
        new_segments: Tuple[PartitionInfo, ...],
        new_tombstones: FrozenSet[int],
        n_tuples: int,
    ) -> "DeltaState":
        """The state after a commit that raised the watermark to
        ``n_tuples`` and deleted ``new_tombstones``."""
        visible = np.ones(n_tuples, dtype=bool)
        visible[:len(self.visible)] = self.visible
        if new_tombstones:
            visible[list(new_tombstones)] = False
        return DeltaState(
            self.segments + tuple(new_segments),
            self.tombstones | new_tombstones,
            visible,
        )

    def hidden(self, n_tuples: int) -> Optional[np.ndarray]:
        """What a scan over an ``n_tuples``-row tid domain must not return:
        the ascending tids deleted by this version, then those past
        ``visible``'s end (committed later) — None when that is nothing (the
        read-only engines' exact path).  Memoised per domain size."""
        memo = self._hidden
        if memo is None or memo[0] != n_tuples:
            visible = self.visible[:n_tuples]
            hidden = np.concatenate((
                np.flatnonzero(~visible),
                np.arange(len(visible), n_tuples, dtype=np.int64),
            ))
            hidden.setflags(write=False)  # shared by every read of the state
            memo = self._hidden = (n_tuples, hidden if len(hidden) else None)
        return memo[1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaState({len(self.segments)} segments, "
            f"{len(self.tombstones)} tombstones)"
        )
