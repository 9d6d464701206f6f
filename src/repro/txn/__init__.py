"""The write path: WAL, commit partitions, MVCC snapshots, and compaction.

Layering (top to bottom):

* :class:`TransactionalTable` — buffers typed writes, group-commits them
  through the WAL, lands each batch's inserted rows as one ordinary catalog
  partition, stamps each batch's deletes on the catalog, and serves MVCC
  snapshot reads (``AS OF`` time travel) by running the unmodified engines
  on a pinned catalog view, which hides what its version deleted.  It keeps
  the table meta only: the stored partitions are the one copy of the rows.
* :class:`WriteAheadLog` — append-only, CRC-framed batches persisted as
  blobs through :mod:`repro.storage.blob` (one blob put per group commit is
  the simulated fsync); deterministic replay that ignores a torn tail.
* :class:`DeltaState` — the head's fold debt: the commit partitions not
  yet folded and the tombstones not yet resolved.
* :class:`DeltaCompactor` — rewrites tombstone-dirty partitions from
  their stored cells through the same verified, versioned swap the
  adaptive daemon's migrations use, under a bytes-rewritten budget.
"""

from .compactor import CompactionReport, DeltaCompactor
from .delta import DeltaState
from .table import TransactionalTable
from .wal import (
    KIND_DELETE,
    KIND_INSERT,
    KIND_UPDATE,
    WalRecord,
    WalStats,
    WriteAheadLog,
)

__all__ = [
    "CompactionReport",
    "DeltaCompactor",
    "DeltaState",
    "KIND_DELETE",
    "KIND_INSERT",
    "KIND_UPDATE",
    "TransactionalTable",
    "WalRecord",
    "WalStats",
    "WriteAheadLog",
]
