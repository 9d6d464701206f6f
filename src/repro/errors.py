"""Exception hierarchy for the Jigsaw reproduction.

Every error raised by this package derives from :class:`JigsawError` so that
callers can catch library failures without also swallowing programming errors
such as ``TypeError``.
"""

from __future__ import annotations


class JigsawError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(JigsawError):
    """An attribute is unknown, duplicated, or otherwise inconsistent."""


class InvalidQueryError(JigsawError):
    """A query references attributes or bounds that do not exist."""


class InvalidPartitioningError(JigsawError):
    """A partitioning plan violates the validity constraints of Formula 4."""


class StorageError(JigsawError):
    """A partition file is missing, truncated, or corrupt."""


class ChecksumError(StorageError):
    """A partition file's stored checksum does not match its bytes."""


class TransientStorageError(StorageError):
    """A read failed for a (possibly) temporary reason; retrying may help."""


class PartitionUnreadableError(StorageError):
    """A partition stayed unreadable after every retry; the query reading
    it fails with this error.

    Carries ``pid`` (the partition id) and, when raised by
    :meth:`~repro.storage.partition_manager.PartitionManager.load`, an
    ``io_delta`` :class:`~repro.storage.io_stats.IOStats` with whatever the
    failed attempts cost.
    """

    def __init__(self, message: str, pid: int | None = None, io_delta=None):
        super().__init__(message)
        self.pid = pid
        self.io_delta = io_delta


class PartitionNotFoundError(StorageError):
    """The partition manager has no partition with the requested id."""


class SnapshotUnavailableError(StorageError):
    """A requested catalog version cannot be pinned.

    Raised when the version is in the future, or when it fell below the
    manager's *floor* — the oldest version still reconstructible because a
    retired-partition prune already reclaimed blobs it needed.
    """


class TransactionError(JigsawError):
    """A write-path operation (WAL append, commit, compaction) is invalid."""


class CalibrationError(JigsawError):
    """An I/O or memory model could not be fitted from measurements."""


class AdaptationError(JigsawError):
    """Adaptive repartitioning was mis-configured or cannot run on a layout."""
