"""Storage substrate: devices, blob stores, the partition file format and the
partition manager."""

from .blob import (
    BlobStore,
    DirectoryBlobStore,
    MemoryBlobStore,
    StoredBlob,
)
from .buffer_pool import BufferPool, BufferPoolStats
from .device import (
    BALOS_HDD,
    EBS_GP2,
    EBS_IO1,
    DeviceProfile,
    StorageDevice,
    synthetic_profile_measurements,
)
from .faults import FaultConfig, FaultInjectingBlobStore, FaultStats, RetryPolicy
from .format import (
    FORMAT_VERSION,
    LazyColumnBlock,
    checksum_overhead,
    deserialize_partition,
    segment_row_dtype,
    serialize_partition,
)
from .io_stats import IOStats
from .partition_manager import CatalogSnapshot, PartitionInfo, PartitionManager
from .sketches import (
    BloomSketch,
    DictSketch,
    GridSketch,
    SketchSet,
    WorkloadProfile,
    profile_workload,
    select_sketches,
)
from .physical import (
    TID_CATALOG,
    TID_EXPLICIT,
    TID_IMPLICIT,
    PhysicalPartition,
    PhysicalSegment,
    SegmentSpec,
    build_physical_partition,
    physical_from_logical,
)
from .table_data import ColumnTable

__all__ = [
    "BALOS_HDD",
    "BlobStore",
    "BloomSketch",
    "BufferPool",
    "BufferPoolStats",
    "ColumnTable",
    "DeviceProfile",
    "DictSketch",
    "DirectoryBlobStore",
    "EBS_GP2",
    "EBS_IO1",
    "FORMAT_VERSION",
    "FaultConfig",
    "FaultInjectingBlobStore",
    "FaultStats",
    "GridSketch",
    "IOStats",
    "LazyColumnBlock",
    "MemoryBlobStore",
    "CatalogSnapshot",
    "PartitionInfo",
    "PartitionManager",
    "PhysicalPartition",
    "PhysicalSegment",
    "RetryPolicy",
    "SegmentSpec",
    "SketchSet",
    "StorageDevice",
    "StoredBlob",
    "TID_CATALOG",
    "TID_EXPLICIT",
    "TID_IMPLICIT",
    "WorkloadProfile",
    "build_physical_partition",
    "checksum_overhead",
    "deserialize_partition",
    "physical_from_logical",
    "profile_workload",
    "segment_row_dtype",
    "select_sketches",
    "serialize_partition",
    "synthetic_profile_measurements",
]
