"""Experimental environments (Table 3) and scale-down rules.

The paper's HAP table is 100M x 160 x 4B = 64 GB; this reproduction runs
tables about three orders of magnitude smaller.  To preserve the paper's
time *ratios*, everything with a physical dimension scales together: the
file-segment size, Jigsaw's [MIN_SIZE, MAX_SIZE] window, and the device's
fixed per-request latency ``beta``.  With all three scaled by
``our_bytes / paper_bytes``, simulated times are the paper's times divided by
the scale factor — shapes, crossovers and speedup factors carry over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..core.cost import IOModel, MemoryModel
from ..layouts.base import BuildContext
from ..plan.stats import CpuModel
from ..storage.device import BALOS_HDD, EBS_GP2, EBS_IO1, DeviceProfile

__all__ = [
    "Machine",
    "BALOS",
    "T2_2XLARGE",
    "C5_9XLARGE",
    "MACHINES",
    "PAPER_HAP_TABLE_BYTES",
    "scaled_context",
]

#: 100M tuples x 160 attributes x 4 bytes (the paper's wide HAP table).
PAPER_HAP_TABLE_BYTES = 100_000_000 * 160 * 4


@dataclass(frozen=True, slots=True)
class Machine:
    """One evaluation server (Table 3)."""

    name: str
    cores: int
    memory_gb: int
    device: DeviceProfile

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


BALOS = Machine("balos", 6, 62, BALOS_HDD)
T2_2XLARGE = Machine("t2.2xlarge", 8, 32, EBS_GP2)
C5_9XLARGE = Machine("c5.9xlarge", 36, 72, EBS_IO1)

MACHINES: Dict[str, Machine] = {m.name: m for m in (BALOS, T2_2XLARGE, C5_9XLARGE)}


def scaled_context(
    machine: Machine,
    table_bytes: int,
    paper_table_bytes: int = PAPER_HAP_TABLE_BYTES,
    cache_bytes: int = 0,
    schism_sample_size: int = 1000,
    min_segment_bytes: int = 32 * 1024,
    seed: int = 0,
) -> Tuple[BuildContext, float]:
    """Build a :class:`BuildContext` scaled to the reproduction's table size.

    Returns ``(context, scale)``.  Dividing any simulated time by ``scale``
    yields the paper-equivalent seconds.  ``min_segment_bytes`` floors the
    scaled file segment so small test tables do not shatter into thousands of
    partitions (the paper's 64 GB table really does have ~16K segments, but a
    Python reproduction cannot afford that object count per layout).
    """
    scale = max(table_bytes, 1) / paper_table_bytes
    segment = max(min_segment_bytes, int(round(4 * 1024 * 1024 * scale)))
    # The per-request latency scales with the *realized* segment size, not
    # the raw table ratio: when the floor makes segments relatively larger
    # than pure scaling would, beta must follow, or per-request overhead
    # becomes negligible and every partition-count effect disappears.  This
    # keeps the paper's beta/(alpha*segment) ratio (~16% of a 4 MB read on
    # the HDD) intact at any scale.
    beta_scale = segment / (4 * 1024 * 1024)
    profile = DeviceProfile(
        name=machine.device.name,
        io_model=IOModel(
            alpha=machine.device.io_model.alpha,
            beta=machine.device.io_model.beta * beta_scale,
        ),
        description=f"{machine.device.description} (beta scaled x{beta_scale:.2e})",
    )
    context = BuildContext(
        device_profile=profile,
        cache_bytes=cache_bytes,
        file_segment_bytes=segment,
        jigsaw_min_size=segment,
        jigsaw_max_size=8 * segment,
        cpu_model=CpuModel().scaled(machine.cores),
        memory_model=MemoryModel(),
        schism_sample_size=schism_sample_size,
        seed=seed,
    )
    return context, scale
