"""The head's write-path bookkeeping: what no fold has taken yet.

A commit's inserted rows are an ordinary catalog partition (one full-schema
segment over the fresh tids, written by
:meth:`~repro.txn.table.TransactionalTable.commit` through the same
``swap_partitions`` every other partition takes), and its deletes are
stamped on the catalog (``Catalog.deleted_at``), which is where every
version's visibility lives.  What is left here is the fold debt of the head
version, one immutable :class:`DeltaState`:

* ``segments`` — the catalog entries of the commit partitions no
  :class:`~repro.txn.compactor.DeltaCompactor` pass has coalesced yet (the
  compaction debt the ``jigsaw_txn_delta_*`` gauges report);
* ``tombstones`` — deleted tids some partition still physically stores.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

import numpy as np

from ..storage.partition_manager import PartitionInfo

__all__ = ["DeltaState"]


class DeltaState:
    """Immutable fold debt of the head version.

    Each commit derives the next state from the previous one, and a
    compaction installs what it left outstanding.  Neither changes what any
    version shows: that is the catalog's.
    """

    __slots__ = ("segments", "tombstones", "_tombstone_array")

    def __init__(
        self,
        segments: Tuple[PartitionInfo, ...],
        tombstones: FrozenSet[int],
    ):
        self.segments = segments
        self.tombstones = tombstones
        self._tombstone_array: Optional[np.ndarray] = None

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
    ) -> "DeltaState":
        """The state after a commit that added ``new_segments`` and deleted
        ``new_tombstones``."""
        return DeltaState(
            self.segments + tuple(new_segments),
            self.tombstones | new_tombstones,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaState({len(self.segments)} segments, "
            f"{len(self.tombstones)} tombstones)"
        )
