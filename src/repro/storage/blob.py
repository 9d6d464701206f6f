"""Blob stores: where serialized partition files live.

The partition manager is agnostic to whether partitions live in memory (fast,
for tests and simulations) or on a real filesystem (for inspecting the binary
format).  Both stores expose the same minimal byte-oriented interface.
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from typing import Dict, Iterator

from ..errors import StorageError

__all__ = [
    "BlobStore",
    "MemoryBlobStore",
    "DirectoryBlobStore",
    "StoredBlob",
]


class StoredBlob(bytes):
    """Immutable blob bytes that can carry their own checksum verdict.

    ``bytes`` never change, so a CRC verdict reached on one *object* holds
    for as long as that object lives: :func:`~repro.storage.format
    .deserialize_partition` sets ``crc_verified`` after a full check and
    skips the CRC passes when handed the same object again.  The verdict is
    a property of the object, never of a key or ``(pid, version)``: slicing
    or copying yields plain ``bytes``, every ``put`` stores a fresh
    unverified object, and a pickled copy drops the flag — so a corrupted,
    truncated or rewritten blob is always verified in full.  A store that
    hands out the object it keeps (:class:`MemoryBlobStore`) therefore pays
    for verification once per stored blob; a store that copies on ``get``
    (:class:`DirectoryBlobStore`) returns plain ``bytes`` and pays each time.
    """

    crc_verified = False

    def __reduce__(self):
        return (type(self), (bytes(self),))


class BlobStore(ABC):
    """A flat namespace of immutable byte blobs (partition files)."""

    @abstractmethod
    def put(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key``, replacing any previous blob."""

    @abstractmethod
    def get(self, key: str) -> bytes:
        """Return the blob stored under ``key``; raise StorageError if absent."""

    @abstractmethod
    def size(self, key: str) -> int:
        """Byte size of the blob under ``key``."""

    @abstractmethod
    def keys(self) -> Iterator[str]:
        """All stored keys, in no particular order."""

    @abstractmethod
    def delete(self, key: str) -> None:
        """Remove ``key``; no-op when absent."""

    def __contains__(self, key: str) -> bool:
        try:
            self.size(key)
        except StorageError:
            return False
        return True

    def total_bytes(self) -> int:
        return sum(self.size(key) for key in self.keys())


class MemoryBlobStore(BlobStore):
    """Blobs in a plain dict; the default for simulations and tests."""

    def __init__(self) -> None:
        self._blobs: Dict[str, StoredBlob] = {}

    def put(self, key: str, data: bytes) -> None:
        # Always a new object: a rewrite must never inherit a verdict.
        self._blobs[key] = StoredBlob(data)

    def get(self, key: str) -> bytes:
        try:
            return self._blobs[key]
        except KeyError:
            raise StorageError(f"no blob stored under {key!r}") from None

    def size(self, key: str) -> int:
        try:
            return len(self._blobs[key])
        except KeyError:
            raise StorageError(f"no blob stored under {key!r}") from None

    def keys(self) -> Iterator[str]:
        return iter(tuple(self._blobs))

    def delete(self, key: str) -> None:
        self._blobs.pop(key, None)


class DirectoryBlobStore(BlobStore):
    """Blobs as real files under a directory (keys may contain ``/``).

    ``put`` is atomic against a crash mid-write: the bytes go to a temporary
    file beside the target, which then replaces it in one ``os.replace`` — a
    live key holds either its old blob or the whole new one, never a torn
    file.  Temporary files (one can outlive a killed process) are not keys.
    """

    _TEMP_PREFIX = ".put-"

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        path = os.path.abspath(os.path.join(self.root, key))
        if not path.startswith(self.root + os.sep) and path != self.root:
            raise StorageError(f"key {key!r} escapes the store root")
        return path

    def put(self, key: str, data: bytes) -> None:
        path = self._path(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        # Unique per writer: one thread of one process writes one blob at a time.
        temp = os.path.join(
            directory,
            f"{self._TEMP_PREFIX}{os.getpid()}-{threading.get_ident()}-"
            f"{os.path.basename(path)}",
        )
        try:
            with open(temp, "wb") as handle:
                handle.write(data)
            os.replace(temp, path)
        except BaseException:
            try:
                os.unlink(temp)
            except FileNotFoundError:
                pass
            raise

    def get(self, key: str) -> bytes:
        # Mirror MemoryBlobStore's error contract exactly: any absent or
        # non-blob key (including one that names a key-prefix directory)
        # raises StorageError carrying the key, never a bare OSError.
        try:
            with open(self._path(key), "rb") as handle:
                return handle.read()
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            raise StorageError(f"no blob stored under {key!r}") from None

    def size(self, key: str) -> int:
        path = self._path(key)
        if not os.path.isfile(path):
            raise StorageError(f"no blob stored under {key!r}")
        return os.path.getsize(path)

    def keys(self) -> Iterator[str]:
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for filename in filenames:
                if filename.startswith(self._TEMP_PREFIX):
                    continue
                full = os.path.join(dirpath, filename)
                yield os.path.relpath(full, self.root).replace(os.sep, "/")

    def delete(self, key: str) -> None:
        try:
            os.remove(self._path(key))
        except FileNotFoundError:
            pass
