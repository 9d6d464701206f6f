"""The in-tree Prometheus text-exposition parser, and the conformance of
our own renderer against it.

Two directions:

* everything ``MetricsRegistry.render_prometheus`` emits must parse — with
  hostile label values (backslashes, quotes, newlines) surviving the
  escape/unescape round trip bit-exactly;
* hand-written violations of the format (duplicate HELP, interleaved
  families, broken histogram invariants, bad escapes) must raise
  :class:`ExpositionError` with the offending line number.
"""

from __future__ import annotations

import pytest

from repro.testing.promparse import ExpositionError, parse_exposition
from repro.obs.metrics import MetricsRegistry


@pytest.fixture()
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestRendererConformance:
    def test_full_registry_round_trip(self, registry):
        counter = registry.counter(
            "jigsaw_reads_total", "Partition reads.", ("engine",)
        )
        counter.inc(3, engine="scan")
        counter.inc(1, engine="jigsaw-l")
        registry.gauge("jigsaw_pool_bytes", "Resident bytes.").set(4096)
        histogram = registry.histogram(
            "jigsaw_latency_s", "Latency.", buckets=(0.1, 1.0)
        )
        for v in (0.05, 0.5, 5.0):
            histogram.observe(v)
        summary = registry.summary(
            "jigsaw_wait_s", "Queue wait.", ("priority",)
        )
        summary.observe(0.25, priority="high")

        families = parse_exposition(registry.render_prometheus())
        assert families["jigsaw_reads_total"].kind == "counter"
        assert families["jigsaw_reads_total"].value(engine="scan") == 3.0
        assert families["jigsaw_pool_bytes"].value() == 4096.0
        assert families["jigsaw_latency_s"].value("_count") == 3.0
        assert families["jigsaw_latency_s"].value("_bucket", le="+Inf") == 3.0
        assert families["jigsaw_wait_s"].value("_count", priority="high") == 1.0

    def test_hostile_label_values_round_trip(self, registry):
        hostile = ['a"b\\c', "x\ny", "\\", 'plain', '"\n\\"']
        gauge = registry.gauge("jigsaw_hostile", "Escaping.", ("q",))
        for i, value in enumerate(hostile):
            gauge.set(float(i), q=value)
        families = parse_exposition(registry.render_prometheus())
        for i, value in enumerate(hostile):
            assert families["jigsaw_hostile"].value(q=value) == float(i)

    def test_help_text_escaped(self, registry):
        registry.gauge("jigsaw_h", "multi\nline \\ help").set(1)
        families = parse_exposition(registry.render_prometheus())
        assert families["jigsaw_h"].help_text == "multi\nline \\ help"


class TestViolations:
    def parse_lines(self, *lines: str):
        return parse_exposition("\n".join(lines) + "\n")

    def err(self, *lines: str) -> ExpositionError:
        with pytest.raises(ExpositionError) as info:
            self.parse_lines(*lines)
        return info.value

    def test_duplicate_help(self):
        err = self.err(
            "# HELP m one",
            "# HELP m two",
            "# TYPE m gauge",
            "m 1",
        )
        assert err.line_no == 2

    def test_duplicate_type(self):
        self.err("# TYPE m gauge", "# TYPE m gauge", "m 1")

    def test_help_after_samples(self):
        self.err("# TYPE m gauge", "m 1", "# HELP m late")

    def test_interleaved_families(self):
        self.err(
            "# TYPE a gauge", "a 1",
            "# TYPE b gauge", "b 1",
            "a 2",
        )

    def test_bad_metric_name(self):
        self.err("9bad 1")

    def test_bad_label_escape(self):
        self.err('m{l="a\\qb"} 1')

    def test_unterminated_label_value(self):
        self.err('m{l="open} 1')

    def test_duplicate_label_name(self):
        self.err('m{l="1",l="2"} 1')

    def test_bad_value(self):
        self.err("m notanumber")

    def test_histogram_without_inf_bucket(self):
        self.err(
            "# TYPE h histogram",
            'h_bucket{le="1.0"} 2',
            "h_sum 2.0",
            "h_count 2",
        )

    def test_histogram_non_monotone(self):
        self.err(
            "# TYPE h histogram",
            'h_bucket{le="1.0"} 3',
            'h_bucket{le="2.0"} 2',
            'h_bucket{le="+Inf"} 3',
            "h_sum 2.0",
            "h_count 3",
        )

    def test_histogram_inf_count_mismatch(self):
        self.err(
            "# TYPE h histogram",
            'h_bucket{le="1.0"} 2',
            'h_bucket{le="+Inf"} 2',
            "h_sum 2.0",
            "h_count 3",
        )

    def test_valid_minimal_exposition_parses(self):
        families = self.parse_lines(
            "# HELP m doc",
            "# TYPE m counter",
            "m 4",
            "# TYPE h histogram",
            'h_bucket{le="+Inf"} 1',
            "h_sum 0.5",
            "h_count 1",
        )
        assert families["m"].value() == 4.0
        assert families["h"].value("_sum") == 0.5

    def test_inf_and_nan_values(self):
        families = self.parse_lines("m +Inf", "n NaN")
        assert families["m"].value() == float("inf")
