"""Tracer, span nesting (including across engine threads), ring buffer."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Query, TableSchema, Workload, obs
from repro.engine import PartitionAtATimeExecutor, ScanExecutor
from repro.engine.parallel import ThreadedPartitionEngine
from repro.layouts import BuildContext, IrregularLayout
from repro.obs.trace import NOOP_TRACER, Span, TraceCollector, Tracer
from repro.plan.stats import CpuModel, ExecutionStats
from repro.storage import ColumnTable


class TestCollector:
    def test_collects_in_order(self):
        collector = TraceCollector(capacity=16)
        tracer = Tracer(collector)
        with tracer.span("outer", k=1):
            with tracer.span("inner"):
                pass
        spans = collector.spans()
        assert [s.name for s in spans] == ["inner", "outer"]  # close order
        outer = spans[1]
        inner = spans[0]
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.attrs["k"] == 1
        assert outer.wall_s >= inner.wall_s >= 0.0

    def test_ring_drops_oldest(self):
        collector = TraceCollector(capacity=4)
        tracer = Tracer(collector)
        for i in range(10):
            with tracer.span("s", i=i):
                pass
        assert len(collector) == 4
        assert collector.n_dropped == 6
        assert [s.attrs["i"] for s in collector.spans()] == [6, 7, 8, 9]

    def test_clear(self):
        collector = TraceCollector(capacity=4)
        tracer = Tracer(collector)
        with tracer.span("s"):
            pass
        collector.clear()
        assert len(collector) == 0

    def test_error_annotated(self):
        collector = TraceCollector(capacity=4)
        tracer = Tracer(collector)
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        (span,) = collector.spans()
        assert span.attrs["error"] == "ValueError"


class TestPhase:
    def test_phase_snapshots_stats_delta(self):
        collector = TraceCollector(capacity=4)
        tracer = Tracer(collector)
        stats = ExecutionStats()
        stats.bytes_read = 100
        with tracer.phase("p", stats, cpu_model=CpuModel()):
            stats.bytes_read += 50
            stats.io_time_s += 0.25
            stats.cells_scanned += 7
        (span,) = collector.spans()
        assert span.attrs["bytes_read"] == 50
        assert span.attrs["cells_scanned"] == 7
        assert span.sim_io_s == 0.25
        assert span.sim_cpu_s == CpuModel().cpu_time(
            cells_scanned=7, cells_gathered=0, hash_inserts=0,
            hash_updates=0, materialized_bytes=0, tuples_iterated=0,
        )

    def test_phase_without_a_cpu_model_prices_no_cpu(self):
        collector = TraceCollector(capacity=4)
        tracer = Tracer(collector)
        stats = ExecutionStats()
        with tracer.phase("p", stats):
            stats.bytes_read += 12
            stats.cells_scanned += 7
        (span,) = collector.spans()
        assert span.attrs["bytes_read"] == 12
        assert span.sim_cpu_s == 0.0  # no cpu model given


class TestNoop:
    def test_default_tracer_is_noop(self):
        assert obs.tracer() is NOOP_TRACER
        assert not obs.tracing_enabled()

    def test_noop_span_discards_everything(self):
        tracer = NOOP_TRACER
        with tracer.span("s", a=1) as span:
            span.set(b=2)
        with tracer.phase("p", ExecutionStats()):
            pass
        # The shared noop span never accumulates attributes.
        with tracer.span("t") as span:
            assert not getattr(span, "attrs", None)

    def test_enable_disable_roundtrip(self):
        collector = obs.enable()
        assert obs.tracing_enabled()
        assert obs.metrics_enabled()
        with obs.tracer().span("s"):
            pass
        assert len(collector) == 1
        obs.disable()
        assert not obs.tracing_enabled()
        assert not obs.metrics_enabled()

    def test_scoped_trace_overrides_and_restores(self):
        with obs.scoped_trace() as collector:
            assert obs.tracing_enabled()
            with obs.tracer().span("s"):
                pass
        assert not obs.tracing_enabled()
        assert [s.name for s in collector.spans()] == ["s"]


class TestSpanModel:
    def test_as_dict_roundtrips_fields(self):
        span = Span(span_id=1, parent_id=None, name="n", start_s=1.0)
        span.end_s = 2.0
        span.sim_io_s = 0.5
        data = span.as_dict()
        assert data["name"] == "n"
        assert data["wall_s"] == 1.0
        assert data["sim_io_s"] == 0.5


def _ancestor_names(span, by_id):
    names = []
    parent = span.parent_id
    while parent is not None:
        names.append(by_id[parent].name)
        parent = by_id[parent].parent_id
    return names


@pytest.mark.parametrize("strategy", ["locking", "shared"])
def test_worker_spans_nest_across_threads(demo, strategy):
    """Jigsaw-L/S worker spans land off the coordinator's thread yet parent
    into the engine's phase spans (ContextVar propagation through threads).

    Nothing is asserted about *how many* distinct worker thread ids appear:
    the OS reuses the id of a worker that exits before the next one starts,
    which a loaded 2-core box does often enough to flake."""
    table, workload, layouts = demo
    layout = layouts["irregular"]
    engine = ThreadedPartitionEngine(
        layout.manager, table.meta, strategy=strategy, n_threads=4
    )
    query = next(
        q for q in workload.queries if q.where
    )
    with obs.scoped_trace() as collector:
        engine.execute(query)
    spans = collector.spans()
    by_id = {s.span_id: s for s in spans}
    workers = [s for s in spans if s.name == "exec.worker"]
    assert workers, "threaded engine produced no worker spans"
    root_thread = next(s for s in spans if s.name == "exec.query").thread_id
    assert all(w.thread_id != root_thread for w in workers)
    for worker in workers:
        ancestors = _ancestor_names(worker, by_id)
        assert "exec.query" in ancestors
        assert any(
            name in ("exec.selection", "exec.projection") for name in ancestors
        )


#: The spans one engine execution may open: one per request step.
_REQUEST_SPANS = {
    "exec.query", "plan.query", "exec.selection", "exec.projection",
    "exec.worker",
}
_PHASES = ("exec.selection", "exec.projection")
#: At most: the root, the plan, the two phases, two workers under the
#: selection and two under each of the projection's two fills.
_MAX_SPANS = 2 + len(_PHASES) + 2 + 2 * 2


@pytest.fixture(scope="module")
def fragmented():
    """A 3 000 x 24 table trained on three narrow templates: its irregular
    layout has 32 partitions and each query below reads all 32, under a
    pool that holds them all."""
    rng = np.random.default_rng(0)
    names = [f"a{i}" for i in range(1, 25)]
    table = ColumnTable.build("T", TableSchema.uniform(names), {
        name: rng.integers(0, 100_000, 3_000).astype(np.int32) for name in names
    })
    meta = table.meta
    wide = ["a2", "a3", "a4", "a5", "a6", "a7", "a9", "a10"]
    train = Workload(meta, [
        Query.build(meta, wide, {"a1": (0, 9_999)}),
        Query.build(meta, wide, {"a8": (90_000, 99_999)}),
        Query.build(meta, ["a15", "a16", "a17", "a18"], {"a20": (40_000, 44_999)}),
    ])
    ctx = BuildContext(file_segment_bytes=2048, buffer_pool_bytes=1 << 20)
    layout = IrregularLayout().build(table, train, ctx)
    queries = [
        Query.build(meta, ["a2", "a5", "a16", "a23"], {"a12": (0, 30_000)}),
        Query.build(meta, names[:12], {"a8": (50_000, 99_999), "a3": (0, 60_000)}),
    ]
    return meta, layout.manager, queries


@pytest.mark.parametrize("engine", ["pat", "scan", "jigsaw-s"])
def test_a_trace_is_sized_by_the_request_not_the_layout(fragmented, engine):
    """A traced execution opens spans per request step, never per partition
    read or catalog probe; its phase spans carry the reads between them."""
    meta, manager, queries = fragmented
    executor = {
        "pat": lambda: PartitionAtATimeExecutor(manager, meta),
        "scan": lambda: ScanExecutor(manager, meta),
        "jigsaw-s": lambda: ThreadedPartitionEngine(
            manager, meta, strategy="shared", n_threads=2
        ),
    }[engine]()
    tids = np.arange(meta.n_tuples, dtype=np.int64)
    n_pool_hits = 0
    for query in queries * 2:  # the second round hits the pool
        with obs.scoped_trace() as collector:
            _result, stats = executor.execute(query)
            assert manager.partitions_with_missing_cells("a1", tids)
        spans = collector.spans()
        assert {span.name for span in spans} <= _REQUEST_SPANS
        assert len(spans) <= _MAX_SPANS < stats.n_partition_reads
        phases = [span for span in spans if span.name in _PHASES]
        for field in ("n_partition_reads", "n_pool_hits", "bytes_read"):
            assert sum(span.attrs[field] for span in phases) == getattr(
                stats, field
            )
        n_pool_hits += stats.n_pool_hits
    assert n_pool_hits > 0
