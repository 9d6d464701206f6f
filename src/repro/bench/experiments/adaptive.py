"""Adaptive repartitioning under workload drift.

Not a paper figure: the paper's tuner is strictly offline (Section 7 lists
adaptivity as future work).  This experiment materializes the same irregular
layout twice, lets an :class:`~repro.adaptive.AdaptiveDaemon` watch one copy,
then shifts the workload to a query mix the original training set never
contained.  The static copy keeps paying for a stale layout; the adaptive
copy migrates the drifted region and is measured again.

Three phases are reported per layout (simulated cold I/O seconds and MB):

* ``fitted``  — the training mix on the freshly built layout (both equal);
* ``shifted`` — the new mix before any migration (both equally bad);
* ``adapted`` — the new mix after the adaptive copy migrated.

Every query result in every phase is checked against the dense numpy
reference, with the adaptive copy reading through fault-injecting storage —
a migration is only worth reporting if it is invisible to correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ...adaptive import AdaptiveConfig, AdaptiveDaemon, AdvisorConfig
from ...core import Query, TableSchema, Workload
from ...layouts import BuildContext, IrregularLayout, MaterializedLayout
from ...storage import ColumnTable, FaultConfig, FaultInjectingBlobStore, RetryPolicy
from ...testing.oracle import oracle_check
from ..reporting import ExperimentResult

__all__ = ["AdaptiveBenchConfig", "run"]


@dataclass(slots=True)
class AdaptiveBenchConfig:
    """Drift-scenario knobs."""

    n_tuples: int = 20_000
    n_attrs: int = 16
    #: queries per phase measurement (and per template in the windows).
    n_queries: int = 24
    #: shifted queries observed before the daemon's migration cycle runs.
    n_warmup: int = 48
    window_size: int = 64
    drift_threshold: float = 0.25
    min_improvement: float = 0.02
    bytes_budget_mb: int = 256
    file_segment_kb: int = 32
    #: fault rates on the adaptive copy's store (0 disables injection).
    transient_error_rate: float = 0.1
    corruption_rate: float = 0.02
    seed: int = 13


def _make_table(cfg: AdaptiveBenchConfig) -> ColumnTable:
    rng = np.random.default_rng(cfg.seed)
    schema = TableSchema.uniform([f"a{i}" for i in range(1, cfg.n_attrs + 1)])
    columns = {
        name: rng.integers(0, 10_000, cfg.n_tuples).astype(np.int32)
        for name in schema.attribute_names
    }
    return ColumnTable.build("drift", schema, columns)


def _template_queries(
    table: ColumnTable,
    rng: np.random.Generator,
    attrs: List[str],
    n_queries: int,
    label: str,
    selectivity: float = 0.2,
) -> List[Query]:
    """Range queries confined to ``attrs``: project all, filter on one."""
    queries = []
    span = int(10_000 * selectivity)
    for index in range(n_queries):
        where_attr = attrs[index % len(attrs)]
        lo = int(rng.integers(0, 10_000 - span))
        queries.append(
            Query.build(
                table.meta,
                attrs,
                {where_attr: (lo, lo + span)},
                label=f"{label}{index}",
            )
        )
    return queries


def _measure(
    layout: MaterializedLayout, queries: List[Query], table: ColumnTable
) -> Tuple[float, float]:
    """Cold simulated (io_seconds, mb_read) over ``queries``, oracle-checked."""
    io_s = 0.0
    mb = 0.0
    for query in queries:
        layout.drop_caches()
        mismatch = oracle_check(layout, table, query)
        if mismatch is not None:
            raise AssertionError(f"oracle mismatch: {mismatch}")
        _result, stats = layout.execute(query)
        io_s += stats.io_time_s
        mb += stats.bytes_read / 1e6
    return io_s, mb


def run(cfg: AdaptiveBenchConfig | None = None) -> ExperimentResult:
    cfg = cfg or AdaptiveBenchConfig()
    result = ExperimentResult(
        experiment="adapt",
        title="Adaptive repartitioning under workload drift",
        parameters={
            "n_tuples": cfg.n_tuples,
            "n_attrs": cfg.n_attrs,
            "n_queries": cfg.n_queries,
            "drift_threshold": cfg.drift_threshold,
            "budget_mb": cfg.bytes_budget_mb,
        },
    )
    rng = np.random.default_rng(cfg.seed + 1)
    table = _make_table(cfg)
    names = list(table.schema.attribute_names)
    half = len(names) // 2
    train_attrs, shift_attrs = names[:half], names[half:]

    train_queries = _template_queries(
        table, rng, train_attrs, cfg.n_queries, label="t"
    )
    train = Workload(table.meta, train_queries)
    shifted = _template_queries(
        table, rng, shift_attrs, cfg.n_queries, label="s"
    )

    ctx = BuildContext(file_segment_bytes=cfg.file_segment_kb * 1024)
    static = IrregularLayout().build(table, train, ctx)
    adaptive = IrregularLayout().build(table, train, ctx)
    if cfg.transient_error_rate or cfg.corruption_rate:
        adaptive.manager.retry_policy = RetryPolicy(max_attempts=10)
        adaptive.manager.store = FaultInjectingBlobStore(
            adaptive.manager.store,
            config=FaultConfig(
                transient_error_rate=cfg.transient_error_rate,
                corruption_rate=cfg.corruption_rate,
            ),
            seed=cfg.seed,
        )
    daemon = AdaptiveDaemon(
        adaptive,
        AdaptiveConfig(
            window_size=cfg.window_size,
            advisor=AdvisorConfig(
                drift_threshold=cfg.drift_threshold,
                min_improvement=cfg.min_improvement,
            ),
            bytes_budget_per_cycle=cfg.bytes_budget_mb * 1024 * 1024,
        ),
    )

    for name, layout in (("static", static), ("adaptive", adaptive)):
        io_s, mb = _measure(layout, train_queries, table)
        result.add_row(phase="fitted", layout=name,
                       io_s=round(io_s, 4), mb_read=round(mb, 2))

    # The shift: both copies serve the new mix; only one is being watched.
    for name, layout in (("static", static), ("adaptive", adaptive)):
        io_s, mb = _measure(layout, shifted, table)
        result.add_row(phase="shifted", layout=name,
                       io_s=round(io_s, 4), mb_read=round(mb, 2))

    warmup = _template_queries(
        table, rng, shift_attrs, cfg.n_warmup, label="w"
    )
    for query in warmup:
        mismatch = oracle_check(adaptive, table, query)
        if mismatch is not None:
            raise AssertionError(f"oracle mismatch during warmup: {mismatch}")
    report = daemon.run_cycle()

    for name, layout in (("static", static), ("adaptive", adaptive)):
        io_s, mb = _measure(layout, shifted, table)
        result.add_row(phase="adapted", layout=name,
                       io_s=round(io_s, 4), mb_read=round(mb, 2))

    stats = daemon.stats
    result.parameters["migrated"] = report.fired
    result.parameters["drift"] = round(report.drift, 3)
    result.notes.append(
        f"cycle: fired={report.fired} ({report.reason}); "
        f"scope={len(report.scope_pids)} partitions -> "
        f"{len(report.new_pids)}, rewrote {stats.bytes_rewritten / 1e6:.1f} MB"
    )
    adapted = {row["layout"]: row for row in result.filtered(phase="adapted")}
    if adapted["adaptive"]["io_s"] < adapted["static"]["io_s"]:
        ratio = adapted["static"]["io_s"] / max(adapted["adaptive"]["io_s"], 1e-9)
        result.notes.append(
            f"post-shift simulated I/O: adaptive {ratio:.2f}x lower than the "
            "stale static layout; all results oracle-exact under fault "
            "injection"
        )
    return result
