"""Core of the Jigsaw reproduction: metadata model, cost model, partitioner."""

from .cost import (
    DEFAULT_PAGE_SIZE,
    DEFAULT_TUPLE_ID_BYTES,
    CostModel,
    IOModel,
    MemoryModel,
    fit_io_model,
)
from .partition import Partition, PartitioningPlan, segments_disjoint
from .partitioner import (
    JigsawPartitioner,
    PartitionerConfig,
    PartitionerStats,
    make_columnar_plan,
    partition_segment,
)
from .query import Query, Workload
from .ranges import Interval, RangeMap
from .schema import AttributeSpec, TableMeta, TableSchema
from .segment import Segment, access, horizontal_split
from .statistics import EquiWidthHistogram, TableStatistics

__all__ = [
    "AttributeSpec",
    "CostModel",
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_TUPLE_ID_BYTES",
    "EquiWidthHistogram",
    "IOModel",
    "Interval",
    "JigsawPartitioner",
    "MemoryModel",
    "Partition",
    "PartitionerConfig",
    "PartitionerStats",
    "PartitioningPlan",
    "Query",
    "RangeMap",
    "Segment",
    "TableMeta",
    "TableSchema",
    "TableStatistics",
    "Workload",
    "access",
    "fit_io_model",
    "horizontal_split",
    "make_columnar_plan",
    "partition_segment",
    "segments_disjoint",
]
