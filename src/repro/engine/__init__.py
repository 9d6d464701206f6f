"""Query engines: one contract, four drivers.

All four executors (serial scan, partition-at-a-time, the threaded
Jigsaw-L/S protocols, and replica-local) extend
:class:`~repro.engine.base.QueryEngine`, which owns construction, the
contract other layers call (``name``, ``planner``, ``pruning``,
``cpu_model``, ``clone``, ``rebind``, ``plan``/``explain``) and the one
``execute`` scaffold of the three vectorised drivers; each driver module
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
from .replicated import ReplicatedExecutor
from .scan import ScanExecutor

__all__ = [
    "PartitionAtATimeExecutor",
    "QueryEngine",
    "ReplicatedExecutor",
    "STATUS_INVALID",
    "STATUS_NOT_CHECKED",
    "STATUS_VALID",
    "ScanExecutor",
    "ThreadedPartitionEngine",
]
