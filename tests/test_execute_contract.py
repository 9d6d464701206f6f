"""One execute contract: every way to run a query returns ``(result,
stats)`` — a 2-tuple whose second element is an :class:`ExecutionStats`
reporting the result's row count — and one engine contract: every engine is
a :class:`QueryEngine` with ``clone``/``rebind``/``pruning``/``name``."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.cli import _serve_engines
from repro.core import Query
from repro.engine import (
    PartitionAtATimeExecutor,
    QueryEngine,
    ScanExecutor,
    ThreadedPartitionEngine,
)
from repro.layouts import (
    BuildContext,
    ColumnHLayout,
    ColumnLayout,
    HierarchicalLayout,
    IrregularLayout,
    RowHLayout,
    RowLayout,
    RowVLayout,
)
from repro.plan import (
    Catalog,
    ColumnRef,
    CpuModel,
    DagExecutor,
    ExecutionStats,
    RelationalQuery,
)
from repro.serve import PartitionCache, QueryScheduler
from repro.storage import FaultConfig, RetryPolicy
from repro.testing.oracle import inject_faults, run_reference_query
from repro.testing.snapshot import stats_signature
from repro.txn import TransactionalTable


def _irregular(table, workload, ctx):
    return IrregularLayout(selection_enabled=False).build(table, workload, ctx)


def _scan(table, workload, ctx, query):
    layout = ColumnLayout().build(table, workload, ctx)
    return ScanExecutor(layout.manager, table.meta).execute(query)


def _partition_at_a_time(table, workload, ctx, query):
    layout = _irregular(table, workload, ctx)
    return PartitionAtATimeExecutor(layout.manager, table.meta).execute(query)


def _threaded(strategy):
    def run(table, workload, ctx, query):
        layout = _irregular(table, workload, ctx)
        return ThreadedPartitionEngine(
            layout.manager, table.meta, n_threads=2, strategy=strategy
        ).execute(query)

    return run


def _layout(table, workload, ctx, query):
    return _irregular(table, workload, ctx).execute(query)


def _transactional(table, workload, ctx, query):
    return TransactionalTable(_irregular(table, workload, ctx), table).execute(query)


def _dag(table, workload, ctx, query):
    catalog = Catalog({table.meta.name: _irregular(table, workload, ctx)})
    relational = RelationalQuery(
        tables=(table.meta.name,),
        joins=(),
        where={
            ColumnRef(table.meta.name, name): (interval.lo, interval.hi)
            for name, interval in query.where.items()
        },
        select=tuple(ColumnRef(table.meta.name, name) for name in query.select),
    )
    return DagExecutor(catalog).execute(relational)


def _ticket(table, workload, ctx, query):
    layout = _irregular(table, workload, ctx)
    with QueryScheduler({"pat": layout.executor}, workers=1) as scheduler:
        return scheduler.submit("pat", query).wait(timeout=30.0)


PATHS = {
    "scan": _scan,
    "partition-at-a-time": _partition_at_a_time,
    "threaded-locking": _threaded("locking"),
    "threaded-shared": _threaded("shared"),
    "MaterializedLayout.execute": _layout,
    "TransactionalTable.execute": _transactional,
    "DagExecutor.execute": _dag,
    "QueryTicket.wait": _ticket,
}


@pytest.mark.parametrize("path", PATHS)
def test_execute_returns_result_and_stats(path, small_table, small_workload, ctx):
    query = Query.build(small_table.meta, ["a2", "a3"], {"a1": (0, 1999)})
    outcome = PATHS[path](small_table, small_workload, ctx, query)
    assert isinstance(outcome, tuple) and len(outcome) == 2
    result, stats = outcome
    assert isinstance(stats, ExecutionStats)
    n_rows = result.n_rows if hasattr(result, "n_rows") else result.n_tuples
    assert n_rows == int((small_table.column("a1") <= 1999).sum())
    assert stats.n_result_tuples == n_rows


# ------------------------------------------------------- the engine contract


def _threaded_engine(strategy):
    def build(table, workload, ctx):
        layout = _irregular(table, workload, ctx)
        engine = ThreadedPartitionEngine(
            layout.manager, table.meta, n_threads=2, strategy=strategy
        )
        return layout, engine

    return build


def _layout_engine(builder):
    def build(table, workload, ctx):
        layout = builder.build(table, workload, ctx)
        return layout, layout.executor

    return build


ENGINES = {
    "scan": _layout_engine(ColumnLayout()),
    "partition-at-a-time": _layout_engine(IrregularLayout(selection_enabled=False)),
    "threaded-locking": _threaded_engine("locking"),
    "threaded-shared": _threaded_engine("shared"),
}


@pytest.mark.parametrize("kind", ["scan", "partition-at-a-time"])
def test_vectorised_execute_starts_no_thread(kind, small_table, small_workload):
    """A vectorised engine loads every partition inline on the querying
    thread — with the buffer pool on and faults injected too."""
    ctx = BuildContext(
        file_segment_bytes=16 * 1024, schism_sample_size=200,
        buffer_pool_bytes=1 << 20,
    )
    layout, engine = ENGINES[kind](small_table, small_workload, ctx)
    layout.manager.retry_policy = RetryPolicy(max_attempts=8)
    store = inject_faults(
        layout,
        FaultConfig(transient_error_rate=0.2, latency_spike_rate=0.2),
        seed=3,
    )
    query = small_workload.queries[0]
    before = threading.enumerate()
    result, _stats = engine.execute(query)
    assert threading.enumerate() == before
    assert result.equals(run_reference_query(small_table, query))
    assert store.stats.n_gets > 0

#: every layout family, built with a non-default value for each engine
#: option a builder takes from the context (CPU model, chunking via the
#: segment size), so a dropped option changes the stats signature; zone
#: maps and row-major pricing are each builder's own settings.
LAYOUTS = {
    "Row": RowLayout(),
    "Row-H": RowHLayout(),
    "Row-V": RowVLayout(),
    "Column": ColumnLayout(),
    "Column-H": ColumnHLayout(),
    "Hierarchical": HierarchicalLayout(),
    "Irregular": IrregularLayout(selection_enabled=False),
}


@pytest.fixture()
def loaded_ctx() -> BuildContext:
    return BuildContext(
        file_segment_bytes=4 * 1024,
        schism_sample_size=200,
        cpu_model=CpuModel(cell_scan_s=7.0e-9, tuple_overhead_s=9.0e-9),
    )


def _cold(layout, engine, query):
    """(stats signature, result) of ``query`` on cold caches."""
    layout.drop_caches()
    result, stats = engine.execute(query)
    return stats_signature(stats), result


def _hand_built(engine, **override):
    """The engine rebuilt from its public attributes — every option spelled
    out, as a caller without ``clone`` has to — plus ``override``."""
    options = dict(
        cpu_model=engine.cpu_model,
        zone_maps=engine.zone_maps,
        partition_cache=engine.partition_cache,
    )
    if isinstance(engine, ScanExecutor):
        options.update(chunk_size=engine.chunk_size, row_major=engine.row_major)
    options.update(override)
    return type(engine)(engine.manager, engine.table, **options)


@pytest.mark.parametrize("kind", ENGINES)
def test_clone_reproduces_the_engine(kind, small_table, small_workload, ctx):
    layout, engine = ENGINES[kind](small_table, small_workload, ctx)
    assert isinstance(engine, QueryEngine)
    twin = engine.clone()
    assert type(twin) is type(engine) and twin is not engine
    assert twin.manager is engine.manager and twin.table is engine.table
    assert twin.options == engine.options and twin.name == engine.name
    for query in small_workload.queries:
        signature, result = _cold(layout, engine, query)
        twin_signature, twin_result = _cold(layout, twin, query)
        assert twin_signature == signature
        assert twin_result.equals(result)


@pytest.mark.parametrize("kind", ENGINES)
def test_clone_rejects_unknown_options(kind, small_table, small_workload, ctx):
    _layout, engine = ENGINES[kind](small_table, small_workload, ctx)
    with pytest.raises(TypeError):
        engine.clone(no_such_option=1)
    with pytest.raises(TypeError):
        type(engine)(engine.manager, engine.table, pin_pool=True)


@pytest.mark.parametrize("family", LAYOUTS)
def test_clone_override_equals_full_hand_build(
    family, small_table, small_workload, loaded_ctx
):
    """The serve regression: "this engine, but with zone maps and a cache"
    keeps the CPU model, row-major pricing and chunked reads the layout was
    built with."""
    layout = LAYOUTS[family].build(small_table, small_workload, loaded_ctx)
    engine = layout.executor
    # A fresh cache per engine: a shared one would replay the first
    # engine's verdicts to the second (a different attribution counter).
    cases = [
        lambda: {"zone_maps": True},
        lambda: {"zone_maps": False},
        lambda: {"partition_cache": PartitionCache(layout.manager)},
    ]
    for override in cases:
        clone, built = engine.clone(**override()), _hand_built(engine, **override())
        assert {**clone.options, "partition_cache": None} == {
            **built.options, "partition_cache": None
        }
        assert (clone.partition_cache is None) == (built.partition_cache is None)
        assert clone.pruning == built.pruning
        for query in small_workload.queries:
            clone_signature, clone_result = _cold(layout, clone, query)
            built_signature, built_result = _cold(layout, built, query)
            assert clone_signature == built_signature
            assert clone_result.equals(built_result)

    cache = PartitionCache(layout.manager)
    served = _serve_engines(layout, cache)[engine.name]
    assert served.options == {
        **engine.options, "zone_maps": True, "partition_cache": cache
    }
    if engine.zone_maps:  # serving changes nothing but the cache wiring
        for query in small_workload.queries:
            assert (
                _cold(layout, served, query)[0] == _cold(layout, engine, query)[0]
            )


def test_rebind_reaches_the_planner(small_table, small_workload, ctx):
    layout = _irregular(small_table, small_workload, ctx)
    engine = layout.executor
    before = engine.table
    txn = TransactionalTable(layout, small_table)
    txn.insert({
        name: np.arange(3, dtype=np.int32)
        for name in small_table.schema.attribute_names
    })
    txn.commit()
    grown = txn.data.meta
    assert grown is not before and grown.n_tuples == before.n_tuples + 3
    for bound in (layout, engine, engine.planner):
        assert bound.table is grown


def test_execute_can_be_wrapped_per_driver(small_table, small_workload, ctx):
    """What ``benchmarks/layers/tracing.installed`` relies on: ``execute``
    of each driver class can be replaced with ``setattr`` and restored, and
    a wrapper sees its own driver's calls only, once per query."""
    query = small_workload.queries[0]
    column = ColumnLayout().build(small_table, small_workload, ctx)
    irregular = _irregular(small_table, small_workload, ctx)
    calls = []

    def counting(owner, original):
        def wrapper(self, *args, **kwargs):
            calls.append((owner.__name__, type(self).__name__))
            return original(self, *args, **kwargs)

        return wrapper

    owners = (PartitionAtATimeExecutor, ScanExecutor)
    originals = [(owner, getattr(owner, "execute")) for owner in owners]
    try:
        for owner, original in originals:
            setattr(owner, "execute", counting(owner, original))
        column.execute(query)
        irregular.execute(query)
    finally:
        for owner, original in reversed(originals):
            setattr(owner, "execute", original)
    assert calls == [
        ("ScanExecutor", "ScanExecutor"),
        ("PartitionAtATimeExecutor", "PartitionAtATimeExecutor"),
    ]
    calls.clear()
    column.execute(query)
    irregular.execute(query)
    assert calls == []
