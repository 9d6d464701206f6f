"""Declarative health rules over the metrics registry: WARN/CRIT verdicts.

A production engine does not page an operator on raw gauges; it evaluates
*rules* — "WAL backlog beyond N bytes", "compaction debt above K delta
segments", "pool hit rate below X under real traffic" — each with a WARN
and a CRIT threshold, and exposes the worst verdict at ``/healthz``.  This
module is that rule engine, kept deliberately declarative: a rule is a
*value source* (a metric aggregation or a ratio of two) plus thresholds
and a comparison direction, so tests, the CLI exit code and the HTTP
endpoint all evaluate the same objects.

Value sources read the registry only — the same figures the publish hooks
already copy out of the stats dataclasses — so health evaluation costs a
few dict lookups and can run on every scrape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from . import catalog, runtime
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, Summary

__all__ = [
    "CRIT",
    "HealthMonitor",
    "HealthReport",
    "HealthRule",
    "MetricValue",
    "OK",
    "Ratio",
    "RuleResult",
    "WARN",
    "default_rules",
]

OK = "ok"
WARN = "warn"
CRIT = "crit"
#: Severity order for worst-of aggregation.
_SEVERITY = {OK: 0, WARN: 1, CRIT: 2}
_AGGREGATIONS = {"sum": sum, "max": max, "min": min}


@dataclass(frozen=True)
class MetricValue:
    """One number out of the registry: a metric aggregated across series.

    ``agg`` is ``"sum"``/``"max"``/``"min"`` over series values, or
    ``"pNN"`` against a summary's merged digest.
    Evaluates to None when the metric does not exist yet (a rule over an
    absent metric is *unknown*, not violated).
    """

    metric: str
    labels: Optional[Mapping[str, str]] = None
    agg: str = "sum"

    def read(self, registry: MetricsRegistry) -> Optional[float]:
        metric = registry.get(self.metric)
        if metric is None:
            return None
        if isinstance(metric, Summary):
            return self._read_summary(metric)
        values = self._series_values(metric)
        if not values:
            return None
        if self.agg not in _AGGREGATIONS:
            raise ValueError(
                f"aggregation {self.agg!r} not supported for {metric.kind}"
            )
        return float(_AGGREGATIONS[self.agg](values))

    def _quantile(self) -> float:
        if not self.agg.startswith("p"):
            raise ValueError(
                f"aggregation {self.agg!r} not supported for summaries "
                "(use 'pNN')"
            )
        return float(self.agg[1:]) / 100.0

    def _read_summary(self, metric: Summary) -> Optional[float]:
        q = self._quantile()
        if self.labels:
            if metric.count(**dict(self.labels)) == 0:
                return None
            return metric.quantile(q, **dict(self.labels))
        digest = metric.merged_digest()
        if digest.count == 0:
            return None
        return digest.quantile(q)

    def _series_values(self, metric) -> List[float]:
        wanted: Optional[Tuple[str, ...]] = None
        if self.labels is not None:
            wanted = tuple(
                str(self.labels.get(name, ""))
                for name in metric.label_names
            )
        out: List[float] = []
        for values, stored in metric.series().items():
            if wanted is not None and values != wanted:
                continue
            if isinstance(metric, (Counter, Gauge)):
                out.append(float(stored))  # type: ignore[arg-type]
            elif isinstance(metric, Histogram):
                out.append(float(stored.count))  # type: ignore[union-attr]
        return out


@dataclass(frozen=True)
class Ratio:
    """numerator / denominator, each a :class:`MetricValue` (or a tuple of
    them, summed).  Evaluates to None — unknown, not violated — until the
    denominator reaches ``min_den``: a hit-rate over three lookups is
    noise, not a page."""

    numerator: Union[MetricValue, Tuple[MetricValue, ...]]
    denominator: Union[MetricValue, Tuple[MetricValue, ...]]
    min_den: float = 0.0

    @staticmethod
    def _total(
        source: Union[MetricValue, Tuple[MetricValue, ...]],
        registry: MetricsRegistry,
    ) -> Optional[float]:
        parts = source if isinstance(source, tuple) else (source,)
        values = [p.read(registry) for p in parts]
        known = [v for v in values if v is not None]
        if not known:
            return None
        return float(sum(known))

    def read(self, registry: MetricsRegistry) -> Optional[float]:
        den = self._total(self.denominator, registry)
        if den is None or den <= 0 or den < self.min_den:
            return None
        num = self._total(self.numerator, registry) or 0.0
        return num / den


@dataclass(frozen=True)
class HealthRule:
    """One declarative rule: value source, thresholds, direction.

    ``op`` is the *violation* direction: ``">="`` flags values at or above
    the thresholds (backlogs, error rates), ``"<="`` values at or below
    (hit rates).  CRIT wins over WARN; an unreadable value is OK with
    ``value=None`` (the subsystem has not produced traffic yet).
    """

    name: str
    value: Union[MetricValue, Ratio]
    warn: float
    crit: float
    op: str = ">="
    description: str = ""

    def __post_init__(self) -> None:
        if self.op not in (">=", "<="):
            raise ValueError(f"op must be '>=' or '<=', got {self.op!r}")
        ordered = self.warn <= self.crit if self.op == ">=" else (
            self.warn >= self.crit
        )
        if not ordered:
            raise ValueError(
                f"rule {self.name!r}: warn {self.warn} and crit {self.crit} "
                f"are inverted for op {self.op!r}"
            )

    def evaluate(self, registry: MetricsRegistry) -> "RuleResult":
        observed = self.value.read(registry)
        if observed is None:
            return RuleResult(self.name, OK, None, self)
        sign = 1 if self.op == ">=" else -1
        status = (
            CRIT if sign * observed >= sign * self.crit
            else WARN if sign * observed >= sign * self.warn
            else OK
        )
        return RuleResult(self.name, status, observed, self)


@dataclass
class RuleResult:
    name: str
    status: str
    observed: Optional[float]
    rule: HealthRule

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "observed": self.observed,
            "warn": self.rule.warn,
            "crit": self.rule.crit,
            "op": self.rule.op,
            "description": self.rule.description,
        }


@dataclass
class HealthReport:
    status: str
    results: List[RuleResult] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """0 ok / 1 warn / 2 crit — the ``jigsaw-bench health`` contract."""
        return _SEVERITY[self.status]

    def failing(self) -> List[RuleResult]:
        return [r for r in self.results if r.status != OK]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "status": self.status,
            "results": [r.as_dict() for r in self.results],
        }


class HealthMonitor:
    """Evaluates a rule set against a registry; worst rule wins."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        rules: Optional[Sequence[HealthRule]] = None,
    ):
        self.registry = (
            registry if registry is not None else runtime.get_registry()
        )
        self.rules: List[HealthRule] = list(
            rules if rules is not None else default_rules()
        )

    def evaluate(self) -> HealthReport:
        results = [rule.evaluate(self.registry) for rule in self.rules]
        worst = max(
            (r.status for r in results), key=_SEVERITY.__getitem__, default=OK
        )
        return HealthReport(status=worst, results=results)


def _rate(hits: str, misses: str, min_den: float) -> Ratio:
    return Ratio(
        MetricValue(hits), (MetricValue(hits), MetricValue(misses)), min_den
    )


_MIB = 1024 * 1024

#: The stock rules: (name, value source, warn, crit, op, description), over
#: families named by the catalogue.
_DEFAULT_RULES = (
    ("wal_backlog_bytes", MetricValue(catalog.WAL_BACKLOG_BYTES, agg="max"),
     4 * _MIB, 64 * _MIB, ">=",
     "WAL bytes not yet folded by a compaction checkpoint"),
    ("delta_segments", MetricValue(catalog.TXN_DELTA_SEGMENTS, agg="max"),
     16, 64, ">=", "Unfolded commit partitions at head (compaction debt)"),
    ("delta_bytes", MetricValue(catalog.TXN_DELTA_BYTES, agg="max"),
     8 * _MIB, 128 * _MIB, ">=",
     "Accounted bytes across unfolded commit partitions"),
    ("snapshot_refcount",
     MetricValue(catalog.TXN_SNAPSHOT_REFCOUNT, agg="max"),
     32, 256, ">=", "Pinned MVCC snapshots (leak detector)"),
    ("pool_hit_rate", _rate(catalog.POOL_HITS, catalog.POOL_MISSES, 256),
     0.5, 0.1, "<=", "Buffer-pool lifetime hit rate under real traffic"),
    ("partition_cache_hit_rate",
     _rate(catalog.PARTITION_CACHE_HITS, catalog.PARTITION_CACHE_MISSES, 256),
     0.3, 0.05, "<=", "Semantic partition-cache hit rate under traffic"),
    ("admission_rejection_rate",
     Ratio(MetricValue(catalog.SERVE_REJECTED),
           MetricValue(catalog.SERVE_SUBMITTED), min_den=64),
     0.05, 0.25, ">=", "Requests refused by admission control / submitted"),
    ("serve_p99_latency_s",
     MetricValue(catalog.SERVE_LATENCY_QUANTILES, agg="p99"),
     1.0, 5.0, ">=", "p99 submit-to-done latency across engines"),
)


def default_rules(
    overrides: Optional[Mapping[str, Tuple[float, float]]] = None,
) -> List[HealthRule]:
    """The stock rule set over the gauges the catalogue maintains.

    ``overrides`` remaps ``{rule_name: (warn, crit)}`` so tests and
    deployments tighten or relax individual rules without restating the
    whole list.
    """
    overrides = overrides or {}
    return [
        HealthRule(
            name, value, *overrides.get(name, (warn, crit)), op, description
        )
        for name, value, warn, crit, op, description in _DEFAULT_RULES
    ]
