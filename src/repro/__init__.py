"""Jigsaw: a data storage and query processing engine for irregular table
partitioning — a from-scratch Python reproduction of Kang, Jiang & Blanas,
SIGMOD 2021.

The public API is re-exported here; see README.md for a quickstart and
DESIGN.md for the full system inventory.
"""

from . import persistence, sql
from .core import (
    AttributeSpec,
    CostModel,
    Interval,
    IOModel,
    JigsawPartitioner,
    MemoryModel,
    Partition,
    PartitionerConfig,
    PartitioningPlan,
    Query,
    RangeMap,
    TableStatistics,
    Segment,
    TableMeta,
    TableSchema,
    Workload,
)
from .errors import (
    CalibrationError,
    InvalidPartitioningError,
    InvalidQueryError,
    JigsawError,
    PartitionNotFoundError,
    SchemaError,
    StorageError,
)

__version__ = "1.0.0"

__all__ = [
    "AttributeSpec",
    "CalibrationError",
    "CostModel",
    "IOModel",
    "Interval",
    "InvalidPartitioningError",
    "InvalidQueryError",
    "JigsawError",
    "JigsawPartitioner",
    "MemoryModel",
    "Partition",
    "PartitionNotFoundError",
    "PartitionerConfig",
    "PartitioningPlan",
    "Query",
    "RangeMap",
    "SchemaError",
    "Segment",
    "StorageError",
    "TableMeta",
    "TableSchema",
    "TableStatistics",
    "Workload",
    "__version__",
    "persistence",
    "sql",
]
