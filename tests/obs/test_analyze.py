"""EXPLAIN ANALYZE: per-operator sums reproduce ExecutionStats exactly.

The acceptance invariant: across the full 576-entry stats-snapshot sweep
(8 tables x 8 queries x 12 executions — every oracle layout plus every
pruning twin), the simulated io and cpu times of the rows directly under
the EXPLAIN ANALYZE root sum — by left-to-right float addition, ``==`` not
approx — to the execution's ``ExecutionStats`` totals, and every additive
counter sums exactly as integers.
"""

from __future__ import annotations

import pytest

from repro.engine.parallel import ThreadedPartitionEngine
from repro.obs import explain_analyze
from repro.obs.analyze import _COUNTER_NAMES, AnalyzeNode, build_analyze_tree
from repro.testing.snapshot import (
    SNAPSHOT_N_ENTRIES,
    iter_snapshot_cases,
)


def assert_exact_sums(root: AnalyzeNode, stats) -> None:
    io_acc = 0.0
    cpu_acc = 0.0
    for child in root.children:
        io_acc += child.sim_io_s
        cpu_acc += child.sim_cpu_s
    assert io_acc == stats.io_time_s, (
        f"sim io {io_acc!r} != total {stats.io_time_s!r}"
    )
    assert cpu_acc == stats.cpu_time_s, (
        f"sim cpu {cpu_acc!r} != total {stats.cpu_time_s!r}"
    )
    assert root.sim_io_s == stats.io_time_s
    assert root.sim_cpu_s == stats.cpu_time_s
    for name in _COUNTER_NAMES:
        claimed = sum(c.counters.get(name, 0) for c in root.children)
        assert claimed == getattr(stats, name), (
            f"counter {name}: children sum {claimed} "
            f"!= total {getattr(stats, name)}"
        )


def test_exact_sums_across_576_entry_snapshot():
    """Every execution of the deterministic sweep satisfies the invariant."""
    n = 0
    for case in iter_snapshot_cases():
        _result, stats, report = explain_analyze(
            case.executor, case.query, engine=case.label
        )
        assert report.actual is stats
        assert report.analyze is not None
        assert_exact_sums(report.analyze, stats)
        n += 1
    assert n == SNAPSHOT_N_ENTRIES == 576


@pytest.mark.parametrize("strategy", ["locking", "shared"])
def test_exact_sums_threaded_engines(demo, strategy):
    """The invariant also holds for Jigsaw-L/S (per-worker ledgers)."""
    table, workload, layouts = demo
    engine = ThreadedPartitionEngine(
        layouts["irregular"].manager, table.meta, strategy=strategy,
        n_threads=4,
    )
    for query in workload.queries:
        _result, stats, report = explain_analyze(engine, query)
        assert_exact_sums(report.analyze, stats)


def test_tree_structure_and_render(demo):
    table, workload, layouts = demo
    executor = layouts["natural"].executor
    query = workload.queries[0]
    _result, stats, report = explain_analyze(executor, query, engine="scan")
    root = report.analyze
    names = [child.name for child in root.children]
    assert names[-1] == "(unattributed)"
    assert "exec.selection" in names
    assert "exec.projection" in names
    text = report.render()
    assert "analyze (per-operator actuals" in text
    assert "(unattributed)" in text
    assert "exec.query" in text
    # Every rendered row shows the sim io/cpu split.
    assert "(io " in text and "+ cpu " in text


def test_unattributed_absorbs_untraced_work(demo):
    """A span list with no operator rows pushes all totals to the
    (unattributed) row — and the sums still hold."""
    table, workload, layouts = demo
    executor = layouts["natural"].executor
    outcome = executor.execute(workload.queries[0])
    stats = outcome[1]
    root = build_analyze_tree([], stats, engine="scan")
    assert [c.name for c in root.children] == ["(unattributed)"]
    assert_exact_sums(root, stats)
