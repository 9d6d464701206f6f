"""I/O accounting shared by the storage device and the query engines."""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["IOStats"]


@dataclass(slots=True)
class IOStats:
    """Counters for one device or one query execution.

    ``bytes_read`` / ``io_time_s`` only count reads that actually hit the
    (simulated) device; cache hits are tracked separately so the warm-data
    experiment can distinguish the two.  A read the buffer pool serves never
    reaches the device: its hits are the pool's own counters.  ``n_retries``
    counts extra read attempts after storage faults; their simulated backoff
    is folded into ``io_time_s``.
    """

    n_reads: int = 0
    bytes_read: int = 0
    io_time_s: float = 0.0
    n_cache_hits: int = 0
    cache_hit_bytes: int = 0
    n_retries: int = 0
    n_writes: int = 0
    bytes_written: int = 0

    def add(self, other: "IOStats") -> None:
        for name in _FIELD_NAMES:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def diff(self, earlier: "IOStats") -> "IOStats":
        """Counters accumulated since a snapshot ``earlier``."""
        return IOStats(
            *[getattr(self, name) - getattr(earlier, name) for name in _FIELD_NAMES]
        )

    def copy(self) -> "IOStats":
        return IOStats(*[getattr(self, name) for name in _FIELD_NAMES])


#: the counters in declaration order, looked up once instead of per merge.
_FIELD_NAMES = tuple(spec.name for spec in fields(IOStats))
