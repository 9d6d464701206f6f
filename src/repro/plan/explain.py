"""``explain()`` snapshots: every planning decision, inspectable.

An :class:`ExplainReport` is a plain-data snapshot of one query's logical
and physical plan — normalized predicates, pushdown column sets, the
per-partition pruning decisions with their justifications, the fault
policy, and the planner's estimates.  After execution,
:meth:`ExplainReport.record_actuals` folds the
:class:`~repro.plan.stats.ExecutionStats` in so estimated vs. actual
partitions touched render side by side.

``render()`` produces the text the CLI's ``explain`` command and the SQL
front end's ``EXPLAIN <query>`` print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from .stats import ExecutionStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..obs.analyze import AnalyzeNode

__all__ = ["AccessExplain", "ExplainReport"]


@dataclass(frozen=True, slots=True)
class AccessExplain:
    """One planned partition access, rendered."""

    pid: int
    decision: str
    reason: str
    n_bytes: int
    columns: Tuple[str, ...]


@dataclass(slots=True)
class ExplainReport:
    """Snapshot of one query's plan (and, optionally, its execution)."""

    engine: str
    query: str
    policy_name: str
    pruning: bool
    normalized_predicates: Tuple[str, ...]
    selection_columns: Tuple[str, ...]
    projection_columns: Tuple[str, ...]
    max_attempts: int
    selection: Tuple[AccessExplain, ...]
    projection: Tuple[AccessExplain, ...]
    estimated_partition_reads: int
    estimated_bytes: int
    estimated_io_time_s: float
    actual: Optional[ExecutionStats] = field(default=None)
    analyze: Optional["AnalyzeNode"] = field(default=None)

    # ------------------------------------------------------------- actuals

    def record_actuals(self, stats: ExecutionStats) -> None:
        """Attach the executed query's counters for estimate-vs-actual."""
        self.actual = stats

    @property
    def n_pruned(self) -> int:
        return sum(
            1 for access in (*self.selection, *self.projection)
            if access.decision == "PRUNED"
        )

    # -------------------------------------------------------------- render

    def render(self) -> str:
        lines: List[str] = []
        out = lines.append
        out(f"EXPLAIN {self.query}")
        out(f"engine: {self.engine or 'unspecified'}"
            f"  (pruning policy: {self.policy_name},"
            f" pruning {'on' if self.pruning else 'off'})")
        out("logical plan:")
        if self.normalized_predicates:
            out("  predicates (normalized): "
                + " AND ".join(self.normalized_predicates))
        else:
            out("  predicates (normalized): <none — every tuple qualifies>")
        out(f"  selection pushdown columns: "
            f"{', '.join(self.selection_columns) or '<none>'}")
        out(f"  projection pushdown columns: "
            f"{', '.join(self.projection_columns)}")
        out("physical plan:")
        out(f"  fault policy: max_attempts={self.max_attempts}, "
            "an unreadable partition fails the query")
        self._render_accesses(out, "selection accesses", self.selection)
        self._render_accesses(out, "projection candidates", self.projection)
        out(f"  estimate: <= {self.estimated_partition_reads} partition reads, "
            f"{self.estimated_bytes} bytes, "
            f"{self.estimated_io_time_s * 1e3:.3f} ms simulated I/O")
        if self.actual is not None:
            actual = self.actual
            out("actual:")
            cache_note = (
                f", {actual.n_partitions_cache_pruned} via partition cache"
                if actual.n_partitions_cache_pruned
                else ""
            )
            out(f"  {actual.n_partition_reads} partition reads "
                f"({actual.n_partitions_skipped} skipped, "
                f"{actual.n_partitions_pruned} by pruning{cache_note}), "
                f"{actual.bytes_read} bytes, "
                f"{actual.io_time_s * 1e3:.3f} ms simulated I/O")
            out(f"  {actual.n_result_tuples} result tuples, "
                f"cells scanned {actual.cells_scanned}, "
                f"gathered {actual.cells_gathered}, "
                f"hash inserts {actual.hash_inserts}, "
                f"updates {actual.hash_updates}")
            if actual.n_retries:
                out(f"  faults: {actual.n_retries} retries")
        if self.analyze is not None:
            out("analyze (per-operator actuals, simulated io+cpu sums "
                "exactly to the totals):")
            for line in self.analyze.render().splitlines():
                out(f"  {line}")
        return "\n".join(lines)

    @staticmethod
    def _render_accesses(
        out, title: str, accesses: Tuple[AccessExplain, ...]
    ) -> None:
        out(f"  {title}: {len(accesses)}")
        for access in accesses:
            reason = f" — {access.reason}" if access.reason else ""
            out(f"    p{access.pid:<4d} {access.decision:<15s} "
                f"{access.n_bytes:>8d} B{reason}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()
