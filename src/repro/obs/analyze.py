"""EXPLAIN ANALYZE: per-operator actuals from one traced execution.

``explain_analyze`` runs a query under a *scoped* trace collector (no global
switch is flipped; concurrent queries are unaffected), then folds the span
tree into :class:`AnalyzeNode` rows: one row per step of the engine
(``plan.query``, then the phases ``exec.selection`` / ``exec.projection``),
with the threaded engines' ``exec.worker`` rows beneath them, each carrying
partitions read/pruned, cells scanned, bytes read, cache/pool hits,
retries, and simulated io/cpu seconds.  No row is opened per partition: a
phase row's counters are the sum over every partition it loaded.

**Exactness contract.**  The per-operator rows under the root sum *exactly*
(``==`` on floats, not approximately) to the query's ``ExecutionStats``
totals.  Counter sums are exact because phase deltas are integer snapshots.
Time sums are made exact by construction: a synthetic ``(unattributed)`` row
absorbs whatever the phase rows do not cover — work outside any phase plus
float-rounding residue — and its value is fixed up until the left-to-right
sum reproduces the totals bit for bit.  Real profilers keep the same
"self/other" bucket; here it also guarantees the acceptance invariant the
tests sweep across every engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .runtime import scoped_trace
from .trace import STATS_COUNTER_FIELDS, Span

__all__ = [
    "AnalyzeNode",
    "build_analyze_tree",
    "exact_residual",
    "explain_analyze",
]

#: Root span name every engine opens around one execution.
ROOT_SPAN = "exec.query"
#: Counter columns rendered per row (subset of the full stats delta).
_ROW_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("n_partition_reads", "reads"),
    ("n_partitions_pruned", "pruned"),
    ("n_partitions_sketch_pruned", "sketch_pruned"),
    ("cells_scanned", "cells"),
    ("bytes_read", "bytes"),
    ("n_cache_hits", "cache_hits"),
    ("n_pool_hits", "pool_hits"),
    ("n_retries", "retries"),
)
_COUNTER_NAMES = tuple(
    name for name in STATS_COUNTER_FIELDS if name != "io_time_s"
)


@dataclass(slots=True)
class AnalyzeNode:
    """One operator row of the EXPLAIN ANALYZE tree."""

    name: str
    detail: str = ""
    wall_s: float = 0.0
    sim_io_s: float = 0.0
    sim_cpu_s: float = 0.0
    counters: Dict[str, Any] = field(default_factory=dict)
    children: List["AnalyzeNode"] = field(default_factory=list)

    @property
    def sim_total_s(self) -> float:
        return self.sim_io_s + self.sim_cpu_s

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    # -------------------------------------------------------------- render

    def render(self, indent: str = "  ") -> str:
        lines: List[str] = []
        self._render_into(lines, indent, 0)
        return "\n".join(lines)

    def _render_into(self, lines: List[str], indent: str, depth: int) -> None:
        label = f"{self.name} {self.detail}".strip()
        timing = (
            f"sim {self.sim_total_s * 1e3:.3f} ms "
            f"(io {self.sim_io_s * 1e3:.3f} + cpu {self.sim_cpu_s * 1e3:.3f})"
        )
        shown = [
            f"{short}={self.counters[name]}"
            for name, short in _ROW_COUNTERS
            if self.counters.get(name)
        ]
        suffix = f"  [{', '.join(shown)}]" if shown else ""
        lines.append(f"{indent * depth}{label:<34s} {timing}{suffix}")
        for child in self.children:
            child._render_into(lines, indent, depth + 1)


def _span_counters(span: Span) -> Dict[str, Any]:
    return {
        name: span.attrs[name] for name in _COUNTER_NAMES if name in span.attrs
    }


def _span_detail(span: Span) -> str:
    engine = span.attrs.get("engine")
    return f"[{engine}]" if engine is not None else ""


def _node_from_span(span: Span, children_of) -> AnalyzeNode:
    node = AnalyzeNode(
        name=span.name,
        detail=_span_detail(span),
        wall_s=span.wall_s,
        sim_io_s=span.sim_io_s,
        sim_cpu_s=span.sim_cpu_s,
        counters=_span_counters(span),
    )
    for child in children_of(span.span_id):
        node.children.append(_node_from_span(child, children_of))
    return node


def exact_residual(total: float, parts: Sequence[float]) -> float:
    """A residual such that ``sum([*parts, residual])`` (left-to-right
    float addition, exactly how a caller iterating the rows accumulates)
    equals ``total`` bit for bit.  Iterative fix-up converges in one or two
    rounds; float addition is deterministic, so once exact, always exact."""
    parts = list(parts)
    residual = total - sum(parts)
    for _ in range(8):
        accumulated = 0.0
        for part in parts:
            accumulated += part
        accumulated += residual
        if accumulated == total:
            break
        residual += total - accumulated
    return residual


def build_analyze_tree(
    spans: Sequence[Span], stats, engine: str = ""
) -> AnalyzeNode:
    """Fold one traced execution's spans into the per-operator tree.

    ``stats`` is the execution's final :class:`~repro.plan.stats
    .ExecutionStats`; the returned root carries its totals and its direct
    children — the operator rows — sum back to them exactly (times via the
    ``(unattributed)`` row, counters by integer arithmetic).
    """
    by_parent: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        by_parent.setdefault(span.parent_id, []).append(span)

    def children_of(span_id: int) -> List[Span]:
        found = by_parent.get(span_id, [])
        return sorted(found, key=lambda s: (s.start_s, s.span_id))

    roots = [s for s in spans if s.parent_id is None and s.name == ROOT_SPAN]
    root_children: List[AnalyzeNode]
    if roots:
        # The last top-level query span of this collector.
        root_span = roots[-1]
        root_children = [
            _node_from_span(child, children_of)
            for child in children_of(root_span.span_id)
        ]
        wall = root_span.wall_s
    else:  # no spans captured (ring overflow, or an uninstrumented engine)
        root_children = []
        wall = stats.wall_time_s

    root = AnalyzeNode(
        name=ROOT_SPAN,
        detail=f"[{engine}]" if engine else "",
        wall_s=wall,
        sim_io_s=stats.io_time_s,
        sim_cpu_s=stats.cpu_time_s,
        counters={
            name: getattr(stats, name) for name in _COUNTER_NAMES
        },
        children=root_children,
    )

    # The (unattributed) row: totals minus what the operator rows claim —
    # work outside any phase plus float residue.  Counters are exact ints;
    # times are fixed up so the ordered sum reproduces the totals bit for
    # bit.
    residual_counters = {
        name: root.counters.get(name, 0)
        - sum(child.counters.get(name, 0) for child in root_children)
        for name in _COUNTER_NAMES
    }
    residual = AnalyzeNode(
        name="(unattributed)",
        sim_io_s=exact_residual(
            stats.io_time_s, [c.sim_io_s for c in root_children]
        ),
        sim_cpu_s=exact_residual(
            stats.cpu_time_s, [c.sim_cpu_s for c in root_children]
        ),
        counters={k: v for k, v in residual_counters.items() if v},
    )
    root.children.append(residual)
    return root


def explain_analyze(executor, query, engine: str = ""):
    """Run ``query`` traced and return ``(result, stats, report)``.

    The report is the executor's ordinary :class:`~repro.plan.explain
    .ExplainReport` with actuals recorded *and* ``report.analyze`` set to
    the per-operator :class:`AnalyzeNode` tree.  Works with every engine.
    """
    report = executor.explain(query)
    with scoped_trace() as collector:
        result, stats = executor.execute(query)
    report.record_actuals(stats)
    report.analyze = build_analyze_tree(
        collector.spans(), stats, engine=engine or report.engine
    )
    return result, stats, report
