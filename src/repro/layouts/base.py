"""Layout framework: builders turn a table + training workload into a
materialized, queryable layout.

A :class:`LayoutBuilder` encapsulates one partitioning strategy (Section
6.1.2's baselines or Jigsaw itself).  Building produces a
:class:`MaterializedLayout`: partition files in a blob store, catalog +
indexes in a partition manager, and the query engine appropriate for the
strategy.

``file_segment_bytes`` plays the role of the paper's 4 MB file segment; the
Jigsaw resizing window defaults to ``[1x, 8x]`` of it (the paper's
4 MB / 32 MB).  Benchmarks shrink it proportionally with table size.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from ..core.cost import CostModel, MemoryModel
from ..core.partition import PartitioningPlan
from ..core.query import Query, Workload
from ..core.schema import TableMeta
from ..plan.result import ResultSet
from ..plan.stats import CpuModel, ExecutionStats
from ..storage.blob import BlobStore, MemoryBlobStore
from ..storage.buffer_pool import BufferPool
from ..storage.device import BALOS_HDD, DeviceProfile, StorageDevice
from ..storage.partition_manager import PartitionManager, Sketcher
from ..storage.sketches import profile_workload, select_sketches
from ..storage.table_data import ColumnTable

__all__ = [
    "BuildContext",
    "MaterializedLayout",
    "LayoutBuilder",
]


@dataclass(slots=True)
class BuildContext:
    """Everything a layout builder needs besides the data and the workload."""

    device_profile: DeviceProfile = BALOS_HDD
    cache_bytes: int = 0
    #: real (not simulated) deserialized-partition cache; 0 disables the
    #: buffer pool so cold benchmarks keep paying full decode cost.
    buffer_pool_bytes: int = 0
    file_segment_bytes: int = 4 * 1024 * 1024
    jigsaw_min_size: int | None = None
    jigsaw_max_size: int | None = None
    cpu_model: CpuModel = field(default_factory=CpuModel)
    memory_model: MemoryModel = field(default_factory=MemoryModel)
    schism_sample_size: int = 2000
    seed: int = 0
    #: read-ahead depth of the engines' prefetch pipeline; 0 keeps every
    #: load inline (the historical behaviour).
    prefetch_depth: int = 0
    #: per-partition byte budget for data-skipping sketches; 0 builds none.
    sketch_budget_bytes: int = 0

    @property
    def min_size(self) -> int:
        """Jigsaw MIN_SIZE; defaults to one file segment (paper: 4 MB)."""
        return self.jigsaw_min_size or self.file_segment_bytes

    @property
    def max_size(self) -> int:
        """Jigsaw MAX_SIZE; defaults to eight segments (paper: 32 MB)."""
        return self.jigsaw_max_size or 8 * self.file_segment_bytes

    def make_device(self) -> StorageDevice:
        return StorageDevice(self.device_profile, cache_bytes=self.cache_bytes)

    def make_manager(
        self, table: TableMeta, store: BlobStore | None = None
    ) -> Tuple[PartitionManager, StorageDevice]:
        device = self.make_device()
        pool = BufferPool(self.buffer_pool_bytes) if self.buffer_pool_bytes > 0 else None
        manager = PartitionManager(
            table.schema,
            device,
            store if store is not None else MemoryBlobStore(),
            buffer_pool=pool,
        )
        return manager, device

    def sketcher(self, table: ColumnTable, train: Workload) -> Sketcher | None:
        """What picks each partition's data-skipping sketches while a layout
        is materialized (``None`` on a zero budget).

        Candidate sketches over the training workload's predicate shapes
        are scored ``frequency x read-cost-saved / bytes`` through the
        existing :class:`~repro.core.cost.CostModel` and admitted greedily
        under ``sketch_budget_bytes`` per partition (see
        :func:`~repro.storage.sketches.select_sketches`); the partition
        manager stores the chosen set in the file's trailer at the
        partition's one put.
        """
        if self.sketch_budget_bytes <= 0:
            return None
        cost_model = CostModel(
            table.meta,
            self.device_profile.io_model,
            memory_model=self.memory_model,
            page_size=self.file_segment_bytes,
        )
        profile = profile_workload(train)
        columns = {name: table.column(name) for name in table.schema.attribute_names}
        return lambda info: select_sketches(
            info, columns, profile, cost_model.io(info.n_bytes),
            self.sketch_budget_bytes,
        )


class MaterializedLayout:
    """A queryable, fully materialized physical layout of one table."""

    def __init__(
        self,
        name: str,
        table: TableMeta,
        manager: PartitionManager,
        executor: Any,
        plan: PartitioningPlan | None = None,
        build_info: Dict[str, Any] | None = None,
        train: Workload | None = None,
    ):
        self.name = name
        self.table = table
        self.manager = manager
        self.executor = executor
        self.plan = plan
        self.build_info = build_info or {}
        #: the workload the layout was fitted to — the adaptive monitor's
        #: drift baseline.  Builders pass their training workload through.
        self.train = train

    def execute(self, query: Query) -> Tuple[ResultSet, ExecutionStats]:
        """Run one query cold-ish: the engine charges simulated device I/O."""
        return self.executor.execute(query)

    def drop_caches(self) -> None:
        """Flush every caching layer (between cold-data queries): the
        simulated OS cache and, when enabled, the real buffer pool."""
        self.manager.device.drop_caches()
        if self.manager.buffer_pool is not None:
            self.manager.buffer_pool.clear()

    def storage_bytes(self) -> int:
        """On-disk footprint of every partition file."""
        return self.manager.total_bytes()

    @property
    def n_partitions(self) -> int:
        return len(self.manager)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MaterializedLayout({self.name!r}, {self.n_partitions} partitions, "
            f"{self.storage_bytes()} bytes)"
        )


class LayoutBuilder(ABC):
    """One partitioning strategy, e.g. Column-H or Irregular."""

    #: Display name used in benchmark output, e.g. ``"Row-H"``.
    name: str = "abstract"

    @abstractmethod
    def build(
        self, table: ColumnTable, train: Workload, ctx: BuildContext
    ) -> MaterializedLayout:
        """Partition ``table`` for the training workload and materialize it."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
