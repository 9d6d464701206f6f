"""The view's formatters: JSONL dumps, hotspot rows and summaries,
Prometheus snapshots."""

from __future__ import annotations

import io
import json

from repro import obs
from repro.obs.view import dump_jsonl, hotspot_rows, hotspot_summary
from repro.obs.trace import TraceCollector, Tracer


def _collector_with_spans() -> TraceCollector:
    collector = TraceCollector(capacity=64)
    tracer = Tracer(collector)
    for i in range(3):
        with tracer.span("storage.load", pid=i) as span:
            span.sim_io_s = 0.010 * (i + 1)
    with tracer.span("exec.query") as span:
        span.sim_io_s = 0.060
        span.sim_cpu_s = 0.001
    # Hotspots rank by wall time: pin it, so the order is not a race.
    for span in collector.spans():
        span.end_s = span.start_s + (4.0 if span.name == "exec.query" else 1.0)
    return collector


class TestJsonl:
    def test_dump_to_path(self, tmp_path):
        collector = _collector_with_spans()
        out = tmp_path / "trace.jsonl"
        n = dump_jsonl(collector, str(out))
        assert n == 4
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        records = [json.loads(line) for line in lines]
        assert records[0]["name"] == "storage.load"
        assert records[0]["attrs"]["pid"] == 0
        assert records[-1]["name"] == "exec.query"
        assert records[-1]["sim_io_s"] == 0.060

    def test_dump_to_file_object(self):
        collector = _collector_with_spans()
        buffer = io.StringIO()
        n = dump_jsonl(collector, buffer)
        assert n == 4
        assert len(buffer.getvalue().splitlines()) == 4

    def test_accepts_plain_span_iterable(self):
        collector = _collector_with_spans()
        buffer = io.StringIO()
        assert dump_jsonl(list(collector.spans()), buffer) == 4


class TestHotspots:
    def test_grouped_and_ranked(self):
        collector = _collector_with_spans()
        spots = hotspot_rows(collector, n=10)
        assert [s["name"] for s in spots] == ["exec.query", "storage.load"]
        assert spots[0]["count"] == 1
        assert spots[1]["count"] == 3
        assert spots[1]["sim_io_s"] == 0.010 + 0.020 + 0.030

    def test_ranked_by_wall_not_simulated_time(self):
        collector = _collector_with_spans()
        for span in collector.spans():
            if span.name == "storage.load":
                span.end_s = span.start_s + 9.0  # slower, though sim-cheaper
        assert hotspot_rows(collector)[0]["name"] == "storage.load"

    def test_top_n_truncates(self):
        collector = _collector_with_spans()
        assert len(hotspot_rows(collector, n=1)) == 1

    def test_summary_renders_table(self):
        collector = _collector_with_spans()
        text = hotspot_summary(collector, n=5)
        assert "hotspots over 4 spans" in text
        assert "exec.query" in text
        assert "storage.load" in text


class TestPrometheusSnapshot:
    def test_render_uses_shared_registry(self):
        obs.get_registry().counter("jigsaw_test_total", "t").inc(2)
        text = obs.get_registry().render_prometheus()
        assert "jigsaw_test_total 2" in text

    def test_explicit_registry(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.gauge("g", "h").set(1)
        assert "g 1" in registry.render_prometheus()
