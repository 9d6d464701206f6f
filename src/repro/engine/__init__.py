"""Query engines: one contract, three drivers.

All three executors (serial scan, partition-at-a-time and the threaded
Jigsaw-L/S protocols) extend
:class:`~repro.engine.base.QueryEngine`, which owns construction, the
contract other layers call (``name``, ``planner``, ``pruning``,
``cpu_model``, ``clone``, ``rebind``, ``plan``/``explain``) and the one
``execute`` scaffold of the two vectorised drivers; each driver module
owns only its scheduling — its two phases and their counter rule — and every
``execute`` returns ``(ResultSet, ExecutionStats)``.  Predicates, results,
statistics, the degraded-read machinery and aggregation (``GroupAggOp``)
live in :mod:`repro.plan`."""

from .base import QueryEngine
from .partition_at_a_time import (
    STATUS_INVALID,
    STATUS_NOT_CHECKED,
    STATUS_VALID,
    PartitionAtATimeExecutor,
)
from .parallel import ThreadedPartitionEngine
from .scan import ScanExecutor

__all__ = [
    "PartitionAtATimeExecutor",
    "QueryEngine",
    "STATUS_INVALID",
    "STATUS_NOT_CHECKED",
    "STATUS_VALID",
    "ScanExecutor",
    "ThreadedPartitionEngine",
]
