"""A metrics registry: named counters, gauges and histograms with labels.

The existing instrumented dataclasses (``IOStats``, ``ExecutionStats``,
``FaultStats``, ``AdaptationStats``, ``BufferPoolStats``) stay the source of
truth for simulated accounting — the registry is a *publication* layer those
figures are copied into at natural boundaries (end of a query, end of an
adaptive cycle), so one scrape shows the whole engine: per-engine query and
byte counters, buffer-pool hit rates, fault/retry totals, adaptive-cycle
outcomes, and cost-model drift (estimated vs. observed bytes per query).

The design follows the Prometheus client-library data model:

* a metric is identified by name + label *names*; a metric plus concrete
  label *values* is a child ("series") with its own value;
* counters only go up, gauges are set, histograms count observations into
  cumulative buckets and track sum/count;
* :meth:`MetricsRegistry.render_prometheus` emits the text exposition format
  (``# HELP`` / ``# TYPE`` / one line per series).

Everything is thread-safe behind one registry lock — updates are tiny and
the engines publish once per query, not per tuple.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .digest import QuantileDigest

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Summary",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "DEFAULT_QUANTILES",
]

#: Default histogram buckets, in simulated seconds — wide enough to span a
#: pool-hit microsecond read through a multi-second cold HDD scan.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default summary quantiles — the SLO trio plus the median.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.95, 0.99)

LabelValues = Tuple[str, ...]


def _format_value(value: float) -> str:
    """Prometheus text format: integers render bare, floats as repr."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format: backslash,
    double-quote and line-feed must be escaped inside the quotes."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def escape_help_text(text: str) -> str:
    """HELP lines escape backslash and line-feed (quotes are legal there)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(
    names: Sequence[str], values: Sequence[str], extra: str = ""
) -> str:
    parts = [
        f'{name}="{escape_label_value(value)}"'
        for name, value in zip(names, values)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Metric:
    """Shared machinery: name, help text, label names, per-series storage.

    Every kind has ``record(key, value)`` — add, set or observe at an already
    resolved label-value tuple — under its labelled ``inc``/``set``/``observe``.
    """

    kind = "untyped"

    def __init__(self, name: str, help_text: str, label_names: Sequence[str]):
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        self._series: Dict[LabelValues, object] = {}

    def _values_for(self, labels: Mapping[str, str]) -> LabelValues:
        names = self.label_names
        try:
            values = tuple([str(labels[name]) for name in names])
        except KeyError:
            values = None
        if values is None or len(labels) != len(names):
            raise ValueError(
                f"metric {self.name!r} expects labels {names}, "
                f"got {tuple(sorted(labels))}"
            )
        return values

    def series(self) -> Dict[LabelValues, object]:
        with self._lock:
            return dict(self._series)


class _Scalar(_Metric):
    """One float per label set: the storage counters and gauges share."""

    def _add(self, key: LabelValues, amount: float) -> None:
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self._add(self._values_for(labels), amount)

    def value(self, **labels: str) -> float:
        key = self._values_for(labels)
        with self._lock:
            return float(self._series.get(key, 0.0))

    def render(self) -> List[str]:
        return [
            f"{self.name}{_format_labels(self.label_names, values)} "
            f"{_format_value(current)}"
            for values, current in sorted(self.series().items())
        ]


class Counter(_Scalar):
    """Monotonically increasing value per label set."""

    kind = "counter"

    def record(self, key: LabelValues, amount: float) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self._add(key, amount)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self.record(self._values_for(labels), amount)


class Gauge(_Scalar):
    """Last-written value per label set (can move either way)."""

    kind = "gauge"

    def record(self, key: LabelValues, value: float) -> None:
        with self._lock:
            self._series[key] = float(value)

    def set(self, value: float, **labels: str) -> None:
        self.record(self._values_for(labels), value)


class _HistogramSeries:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * n_buckets
        self.sum = 0.0
        self.count = 0


class _Distribution(_Metric):
    """Per label set, a series object with ``count`` and ``sum``: what
    histograms and summaries share."""

    def _peek(self, labels: Mapping[str, str], read, empty):
        key = self._values_for(labels)
        with self._lock:
            series = self._series.get(key)
            return read(series) if series is not None else empty

    def observe(self, value: float, **labels: str) -> None:
        self.record(self._values_for(labels), value)

    def count(self, **labels: str) -> int:
        return self._peek(labels, lambda series: series.count, 0)

    def sum(self, **labels: str) -> float:
        return self._peek(labels, lambda series: series.sum, 0.0)

    def _render_totals(self, values: LabelValues, series) -> List[str]:
        plain = _format_labels(self.label_names, values)
        return [
            f"{self.name}_sum{plain} {_format_value(series.sum)}",
            f"{self.name}_count{plain} {series.count}",
        ]


class Histogram(_Distribution):
    """Cumulative-bucket histogram per label set."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help_text, label_names)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")

    def record(self, key: LabelValues, value: float) -> None:
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = _HistogramSeries(len(self.buckets))
                self._series[key] = series
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    series.bucket_counts[i] += 1
            series.sum += value
            series.count += 1

    def render(self) -> List[str]:
        lines = []
        for values, series in sorted(self.series().items()):
            # ``observe`` increments every bucket the value fits, so the
            # stored counts are already cumulative as the format requires.
            for bound, cumulative in zip(
                (*(f"{b:g}" for b in self.buckets), "+Inf"),
                (*series.bucket_counts, series.count),
            ):
                labels = _format_labels(
                    self.label_names, values, extra=f'le="{bound}"'
                )
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            lines += self._render_totals(values, series)
        return lines


class Summary(_Distribution):
    """Streaming quantiles per label set, backed by a mergeable
    :class:`~repro.obs.digest.QuantileDigest`.

    Renders in the Prometheus summary flavor — ``name{quantile="0.99"}``
    series plus ``_sum``/``_count`` — but unlike client-library summaries
    the per-series digests are deterministic and mergeable, so a scrape of
    N workers can be folded into one digest with the same error bound.
    """

    kind = "summary"

    def record(self, key: LabelValues, value: float) -> None:
        with self._lock:
            digest = self._series.get(key)
            if digest is None:
                digest = self._series[key] = QuantileDigest()
            digest.observe(value)

    def quantile(self, q: float, **labels: str) -> float:
        return self._peek(labels, lambda digest: digest.quantile(q), 0.0)

    def merged_digest(self) -> QuantileDigest:
        """All label sets folded into one digest (for cross-series SLOs)."""
        with self._lock:
            digests = [d.copy() for d in self._series.values()]
        return QuantileDigest.merged(digests) if digests else QuantileDigest()

    def render(self) -> List[str]:
        # Copy digests under the lock: quantile() iterates bucket counts,
        # which must not race with a concurrent observe().
        with self._lock:
            snapshot = {k: d.copy() for k, d in self._series.items()}
        lines = []
        for values, digest in sorted(snapshot.items()):
            for q in DEFAULT_QUANTILES:
                labels = _format_labels(
                    self.label_names, values, extra=f'quantile="{q:g}"'
                )
                lines.append(
                    f"{self.name}{labels} {_format_value(digest.quantile(q))}"
                )
            lines += self._render_totals(values, digest)
        return lines


class MetricsRegistry:
    """Owns every metric; the engines publish through one shared instance.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call defines the metric, later calls return the same object (and raise
    if the caller tries to redefine it with a different shape — silent
    divergence is how metric soup happens).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}
        #: memo for callers that resolve their metric objects once (the
        #: catalogue's ``publish``); emptied with the metrics it points at.
        self.bound: Dict[str, object] = {}

    def _get_or_create(self, cls, name, help_text, label_names, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                if existing.label_names != tuple(label_names):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.label_names}, not {tuple(label_names)}"
                    )
                return existing
            metric = cls(name, help_text, label_names, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help_text: str = "", label_names: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help_text, label_names)

    def gauge(
        self, name: str, help_text: str = "", label_names: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, label_names)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, label_names, buckets=buckets
        )

    def summary(
        self, name: str, help_text: str = "", label_names: Sequence[str] = ()
    ) -> Summary:
        return self._get_or_create(Summary, name, help_text, label_names)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._metrics))

    def clear(self) -> None:
        """Drop every metric (tests and profile-run isolation)."""
        with self._lock:
            self._metrics.clear()
            self.bound = {}

    # -------------------------------------------------------------- render

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format, one block per metric."""
        blocks: List[str] = []
        with self._lock:
            metrics: Iterable[_Metric] = [
                self._metrics[name] for name in sorted(self._metrics)
            ]
        for metric in metrics:
            lines = metric.render()
            if not lines:
                continue
            # Exactly one HELP and one TYPE per family, HELP first, both
            # before any sample — the in-tree parser enforces this shape.
            if metric.help_text:
                blocks.append(
                    f"# HELP {metric.name} "
                    f"{escape_help_text(metric.help_text)}"
                )
            blocks.append(f"# TYPE {metric.name} {metric.kind}")
            blocks.extend(lines)
        return "\n".join(blocks) + ("\n" if blocks else "")
