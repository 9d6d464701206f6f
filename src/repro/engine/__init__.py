"""Query engines: thin drivers over the shared planning layer.

All four executors (serial scan, partition-at-a-time, the threaded
Jigsaw-L/S protocols, and replica-local) plan through
:mod:`repro.plan` and drive its shared operator pipeline; each module here
owns only its scheduling, and every ``execute`` returns
``(ResultSet, ExecutionStats)``.  Predicates, results, statistics, the
degraded-read machinery and aggregation (``GroupAggOp``) live in
:mod:`repro.plan`."""

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
    "ReplicatedExecutor",
    "STATUS_INVALID",
    "STATUS_NOT_CHECKED",
    "STATUS_VALID",
    "ScanExecutor",
    "ThreadedPartitionEngine",
]
