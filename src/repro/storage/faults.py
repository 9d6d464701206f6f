"""Deterministic fault injection for blob stores, plus the read retry policy.

Real deployments read partition files off flaky media: cloud block stores
throttle, NICs drop connections, disks flip bits.  The
:class:`FaultInjectingBlobStore` wraps any :class:`~repro.storage.blob.BlobStore`
and injects four failure modes per ``get`` — transient errors, latency
spikes, truncations and bit-flips — at configurable rates, **deterministically**:
the decision for attempt ``k`` on key ``key`` is a pure function of
``(seed, key, k)``, so a failing test run replays bit-identically.

Latency spikes are charged in *simulated* seconds (the store never sleeps);
the partition manager drains them via :meth:`consume_injected_latency` into
the read's ``IOStats`` delta so they show up as I/O time like any other
device charge.

:class:`RetryPolicy` describes how the partition manager reacts: up to
``max_attempts`` tries per read with exponential simulated backoff.  Backoff
seconds are likewise charged to the read's ``IOStats`` delta, never slept.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from ..errors import TransientStorageError
from .blob import BlobStore

__all__ = ["FaultConfig", "FaultStats", "FaultInjectingBlobStore", "RetryPolicy"]


@dataclass(frozen=True, slots=True)
class FaultConfig:
    """Per-``get`` fault rates, each an independent probability in [0, 1].

    ``transient_error_rate`` raises :class:`TransientStorageError` before any
    bytes are returned; ``truncation_rate`` returns a prefix of the blob;
    ``corruption_rate`` flips one bit at a deterministic position;
    ``latency_spike_rate`` adds ``latency_spike_s`` simulated seconds to the
    read.  All default to zero: a wrapper with the default config is a
    transparent pass-through.
    """

    transient_error_rate: float = 0.0
    truncation_rate: float = 0.0
    corruption_rate: float = 0.0
    latency_spike_rate: float = 0.0
    latency_spike_s: float = 0.050

    def __post_init__(self) -> None:
        for name in (
            "transient_error_rate",
            "truncation_rate",
            "corruption_rate",
            "latency_spike_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")


@dataclass(slots=True)
class FaultStats:
    """Lifetime injection counters of one store (monotonically increasing)."""

    n_gets: int = 0
    n_transient_errors: int = 0
    n_truncations: int = 0
    n_bit_flips: int = 0
    n_latency_spikes: int = 0
    latency_injected_s: float = 0.0


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How :meth:`PartitionManager.load` reacts to failed reads.

    ``max_attempts`` bounds total tries (1 = no retry).  Retry ``k`` (0-based)
    is preceded by ``backoff_s * multiplier**k`` of *simulated* wait, charged
    to the read's I/O time; nothing actually sleeps.
    """

    max_attempts: int = 3
    backoff_s: float = 0.010
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    def delay_s(self, retry_index: int) -> float:
        return self.backoff_s * self.multiplier**retry_index


def _draws(seed: int, key: str, attempt: int, n: int) -> tuple:
    """``n`` uniform floats in [0, 1), a pure function of (seed, key, attempt)."""
    digest = hashlib.blake2b(
        f"{seed}:{key}:{attempt}".encode(), digest_size=8 * n
    ).digest()
    words = struct.unpack(f"<{n}Q", digest)
    return tuple(word / 2**64 for word in words)


class FaultInjectingBlobStore(BlobStore):
    """Wraps a blob store and injects seeded faults on ``get``.

    ``overrides`` maps specific keys to their own :class:`FaultConfig` —
    e.g. a single always-failing partition (``transient_error_rate=1.0``)
    while the rest of the store behaves.  Faults never touch the stored
    bytes: corruption and truncation are applied to the returned copy (plain
    ``bytes``, which never carry the pristine object's checksum verdict), so
    a later successful attempt sees the pristine blob.
    """

    def __init__(
        self,
        inner: BlobStore,
        config: FaultConfig | None = None,
        seed: int = 0,
        overrides: Optional[Dict[str, FaultConfig]] = None,
    ):
        self.inner = inner
        self.config = config if config is not None else FaultConfig()
        self.seed = seed
        self.overrides: Dict[str, FaultConfig] = dict(overrides or {})
        self.stats = FaultStats()
        self._attempts: Dict[str, int] = {}
        #: injected latency awaiting drain, *per key* — concurrent readers of
        #: different keys must each drain exactly their own spikes.
        self._pending_latency_s: Dict[str, float] = {}
        self._lock = threading.Lock()

    # --------------------------------------------------------- fault engine

    def config_for(self, key: str) -> FaultConfig:
        return self.overrides.get(key, self.config)

    def consume_injected_latency(self, key: str) -> float:
        """Return and reset the simulated seconds injected into reads of
        ``key`` since its last drain — per key, so one reader cannot swallow
        another's pending latency."""
        with self._lock:
            return self._pending_latency_s.pop(key, 0.0)

    def get(self, key: str) -> bytes:
        cfg = self.config_for(key)
        with self._lock:
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
            self.stats.n_gets += 1
        u_err, u_lat, u_trunc, u_flip, u_pos = _draws(self.seed, key, attempt, 5)
        if u_lat < cfg.latency_spike_rate:
            with self._lock:
                self.stats.n_latency_spikes += 1
                self.stats.latency_injected_s += cfg.latency_spike_s
                self._pending_latency_s[key] = (
                    self._pending_latency_s.get(key, 0.0) + cfg.latency_spike_s
                )
        if u_err < cfg.transient_error_rate:
            with self._lock:
                self.stats.n_transient_errors += 1
            raise TransientStorageError(
                f"injected transient fault reading {key!r} (attempt {attempt})"
            )
        data = self.inner.get(key)
        if u_trunc < cfg.truncation_rate and len(data):
            with self._lock:
                self.stats.n_truncations += 1
            data = data[: int(len(data) * u_pos)]
        elif u_flip < cfg.corruption_rate and len(data):
            with self._lock:
                self.stats.n_bit_flips += 1
            position = int(u_pos * len(data) * 8)
            corrupted = bytearray(data)
            corrupted[position // 8] ^= 1 << (position % 8)
            data = bytes(corrupted)
        return data

    # ------------------------------------------------------ pure delegation

    def put(self, key: str, data: bytes) -> None:
        self.inner.put(key, data)

    def size(self, key: str) -> int:
        return self.inner.size(key)

    def keys(self) -> Iterator[str]:
        return self.inner.keys()

    def delete(self, key: str) -> None:
        self.inner.delete(key)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultInjectingBlobStore(seed={self.seed}, {self.config}, "
            f"{len(self.overrides)} overrides)"
        )
