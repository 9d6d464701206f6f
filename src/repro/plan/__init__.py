"""Query planning and the shared operator pipeline.

Three explicit layers between a :class:`~repro.core.query.Query` and the
engines that evaluate it:

1. **Logical plan** (:mod:`repro.plan.logical`, :mod:`repro.plan.predicates`)
   — predicate normalization, projection-pushdown column sets, and
   metadata-based partition pruning from catalog zone maps, before any
   I/O: one zone verdict per plan as array work, and per-partition
   classifications (REQUIRED / PRUNED / PROJECTION-ONLY) on demand.
2. **Physical plan** (:mod:`repro.plan.physical`) — the ascending
   selection and projection pid lists and the zone verdict, with the
   chunking policy baked in as a plan property the engine scaffold
   enforces; cost estimates come from the verdict and
   classified rows for ``explain()`` (:mod:`repro.plan.explain`) are made
   on demand.
3. **Operators** (:mod:`repro.plan.operators`, :mod:`repro.plan.result`,
   :mod:`repro.plan.stats`) — the shared selection / projection-fill
   pipeline the engines drive with their own scheduling (serial scan,
   partition-at-a-time, lock-based and shared-scan threading).

On top of the single-table stack sits the **relational layer**
(:mod:`repro.plan.relational`, :mod:`repro.plan.joins`,
:mod:`repro.plan.relops`, :mod:`repro.plan.dag`): multi-table queries with
hash joins and grouped aggregation, planned as a DAG whose leaves are
ordinary single-table plans and whose joins pick a per-split physical
strategy (partition-wise vs broadcast) from zone maps and the cost model.
"""

from .dag import Catalog, DagExecutor, RelationalResult, explain_relational
from .explain import AccessExplain, ExplainReport
from .joins import JoinSplit, JoinStrategy, choose_join_strategy
from .relational import (
    AggSpec,
    ColumnRef,
    JoinCondition,
    RelationalPlan,
    RelationalQuery,
    build_relational_plan,
)
from .relops import GroupAggOp, HashJoinOp, Relation, SpillConfig
from .logical import (
    POLICY_PARTITION,
    POLICY_SCAN,
    PROJECTION_ONLY,
    PRUNED,
    REQUIRED,
    LogicalPlan,
    PartitionDecision,
    Verdict,
)
from .operators import (
    STATUS_INVALID,
    STATUS_NOT_CHECKED,
    STATUS_VALID,
    PlanReader,
    ProjectFillOp,
    SelectOp,
    finalize_stats,
)
from .physical import PartitionAccess, PhysicalPlan, QueryPlanner
from .predicates import Conjunction, RangePredicate
from .result import ResultSet
from .stats import CpuModel, ExecutionStats

__all__ = [
    "AccessExplain",
    "AggSpec",
    "Catalog",
    "ColumnRef",
    "Conjunction",
    "CpuModel",
    "DagExecutor",
    "ExecutionStats",
    "ExplainReport",
    "GroupAggOp",
    "HashJoinOp",
    "JoinCondition",
    "JoinSplit",
    "JoinStrategy",
    "LogicalPlan",
    "PartitionAccess",
    "PartitionDecision",
    "PhysicalPlan",
    "PlanReader",
    "POLICY_PARTITION",
    "POLICY_SCAN",
    "ProjectFillOp",
    "PROJECTION_ONLY",
    "PRUNED",
    "QueryPlanner",
    "RangePredicate",
    "Relation",
    "RelationalPlan",
    "RelationalQuery",
    "RelationalResult",
    "REQUIRED",
    "ResultSet",
    "SelectOp",
    "SpillConfig",
    "STATUS_INVALID",
    "STATUS_NOT_CHECKED",
    "STATUS_VALID",
    "Verdict",
    "build_relational_plan",
    "choose_join_strategy",
    "explain_relational",
    "finalize_stats",
]
