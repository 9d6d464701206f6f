"""A strict in-tree parser for the Prometheus text exposition format.

Exists so the tests (and the CI ``telemetry`` job) can validate the *full*
rendered output of :meth:`MetricsRegistry.render_prometheus` — not just
spot-check a few lines — and fail loudly on the conformance bugs this
format invites: unescaped quotes/backslashes/newlines in label values,
duplicated or misplaced ``# HELP``/``# TYPE`` comments, interleaved
families, or histograms whose cumulative-bucket invariants don't hold.

The grammar follows the exposition-format spec (text format version
0.0.4).  Parsing is deliberately strict where the spec allows sloppiness:

* ``# TYPE`` and ``# HELP`` may appear at most once per family and must
  precede that family's first sample;
* all samples of one family must be contiguous (no interleaving);
* metric and label names must match ``[a-zA-Z_:][a-zA-Z0-9_:]*`` /
  ``[a-zA-Z_][a-zA-Z0-9_]*``;
* histogram families must carry cumulative ``_bucket`` counts, a
  ``+Inf`` bucket equal to ``_count``, and a ``_sum``; summary families
  only ``quantile`` samples plus ``_sum``/``_count``.

Raises :class:`ExpositionError` with a line number on any violation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["ExpositionError", "Sample", "MetricFamily", "parse_exposition"]

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_KNOWN_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")
#: Suffixes that belong to the base family for composite types.
_FAMILY_SUFFIXES = ("_bucket", "_sum", "_count")


class ExpositionError(ValueError):
    """A conformance violation, annotated with the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class Sample:
    name: str
    labels: Dict[str, str]
    value: float
    line_no: int


@dataclass
class MetricFamily:
    name: str
    kind: str = "untyped"
    help_text: Optional[str] = None
    samples: List[Sample] = field(default_factory=list)

    def sample_values(
        self, suffix: str = "", **labels: str
    ) -> List[Tuple[Dict[str, str], float]]:
        """(labels, value) pairs for ``name+suffix`` matching ``labels``."""
        wanted = self.name + suffix
        out = []
        for s in self.samples:
            if s.name != wanted:
                continue
            if all(s.labels.get(k) == v for k, v in labels.items()):
                out.append((dict(s.labels), s.value))
        return out

    def value(self, suffix: str = "", **labels: str) -> float:
        matches = self.sample_values(suffix, **labels)
        if len(matches) != 1:
            raise KeyError(
                f"{self.name}{suffix} with labels {labels}: "
                f"{len(matches)} matches"
            )
        return matches[0][1]


def _parse_float(token: str, line_no: int) -> float:
    token = token.strip()
    lowered = token.lower()
    if lowered in ("+inf", "inf"):
        return math.inf
    if lowered == "-inf":
        return -math.inf
    if lowered == "nan":
        return math.nan
    try:
        return float(token)
    except ValueError:
        raise ExpositionError(line_no, f"invalid sample value {token!r}")


def _unescape_help(text: str, line_no: int) -> str:
    """HELP text escapes exactly ``\\`` and ``\\n`` (spec 0.0.4)."""
    out: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text):
                raise ExpositionError(line_no, "dangling escape in HELP text")
            nxt = text[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == "n":
                out.append("\n")
            else:
                raise ExpositionError(
                    line_no, f"invalid HELP escape \\{nxt}"
                )
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def _parse_labels(body: str, line_no: int) -> Dict[str, str]:
    """Escape-aware tokenizer for the ``{name="value",...}`` block."""
    labels: Dict[str, str] = {}
    i = 0
    n = len(body)
    while i < n:
        # label name
        j = i
        while j < n and body[j] not in "=":
            j += 1
        if j >= n:
            raise ExpositionError(line_no, f"label without '=' in {body!r}")
        name = body[i:j].strip()
        if not _LABEL_NAME_RE.match(name):
            raise ExpositionError(line_no, f"invalid label name {name!r}")
        if name in labels:
            raise ExpositionError(line_no, f"duplicate label {name!r}")
        i = j + 1
        if i >= n or body[i] != '"':
            raise ExpositionError(
                line_no, f"label value for {name!r} not quoted"
            )
        i += 1
        chars: List[str] = []
        closed = False
        while i < n:
            ch = body[i]
            if ch == "\\":
                if i + 1 >= n:
                    raise ExpositionError(line_no, "dangling escape")
                nxt = body[i + 1]
                if nxt == "\\":
                    chars.append("\\")
                elif nxt == '"':
                    chars.append('"')
                elif nxt == "n":
                    chars.append("\n")
                else:
                    raise ExpositionError(
                        line_no, f"invalid escape \\{nxt} in label value"
                    )
                i += 2
                continue
            if ch == '"':
                closed = True
                i += 1
                break
            if ch == "\n":
                raise ExpositionError(
                    line_no, "raw newline inside label value"
                )
            chars.append(ch)
            i += 1
        if not closed:
            raise ExpositionError(line_no, f"unterminated label value {body!r}")
        labels[name] = "".join(chars)
        # after the closing quote: optional comma (or end)
        while i < n and body[i] in " \t":
            i += 1
        if i < n:
            if body[i] != ",":
                raise ExpositionError(
                    line_no, f"expected ',' between labels in {body!r}"
                )
            i += 1
            while i < n and body[i] in " \t":
                i += 1
    return labels


def _family_name(sample_name: str, families: Dict[str, MetricFamily]) -> str:
    """Map a sample name to its family: strip composite suffixes when the
    base family is typed histogram/summary."""
    for suffix in _FAMILY_SUFFIXES:
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            fam = families.get(base)
            if fam is not None and fam.kind in ("histogram", "summary"):
                return base
    return sample_name


def parse_exposition(text: str) -> Dict[str, MetricFamily]:
    """Parse and validate a full exposition; returns families by name."""
    families: Dict[str, MetricFamily] = {}
    #: name of the family whose samples we are currently inside, used to
    #: reject interleaving; None until the first sample.
    current: Optional[str] = None
    closed: set = set()

    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 2 or parts[1] not in ("HELP", "TYPE"):
                continue  # plain comment
            if len(parts) < 3:
                raise ExpositionError(line_no, f"malformed {parts[1]} line")
            keyword, name = parts[1], parts[2]
            if not _METRIC_NAME_RE.match(name):
                raise ExpositionError(
                    line_no, f"invalid metric name {name!r} in {keyword}"
                )
            fam = families.setdefault(name, MetricFamily(name))
            if fam.samples:
                raise ExpositionError(
                    line_no,
                    f"{keyword} for {name!r} after its samples",
                )
            if keyword == "HELP":
                if fam.help_text is not None:
                    raise ExpositionError(
                        line_no, f"duplicate HELP for {name!r}"
                    )
                fam.help_text = _unescape_help(
                    parts[3] if len(parts) > 3 else "", line_no
                )
            else:
                if fam.kind != "untyped":
                    raise ExpositionError(
                        line_no, f"duplicate TYPE for {name!r}"
                    )
                kind = parts[3].strip() if len(parts) > 3 else ""
                if kind not in _KNOWN_TYPES:
                    raise ExpositionError(
                        line_no, f"unknown metric type {kind!r}"
                    )
                fam.kind = kind
            continue

        # sample line: name[{labels}] value [timestamp]
        match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)", line)
        if not match:
            raise ExpositionError(line_no, f"invalid sample line {line!r}")
        sample_name = match.group(1)
        rest = line[match.end():]
        labels: Dict[str, str] = {}
        if rest.startswith("{"):
            # find the closing brace honoring escapes inside quotes
            i, in_quotes, end = 1, False, -1
            while i < len(rest):
                ch = rest[i]
                if in_quotes:
                    if ch == "\\":
                        i += 2
                        continue
                    if ch == '"':
                        in_quotes = False
                elif ch == '"':
                    in_quotes = True
                elif ch == "}":
                    end = i
                    break
                i += 1
            if end < 0:
                raise ExpositionError(line_no, f"unclosed label block {line!r}")
            labels = _parse_labels(rest[1:end], line_no)
            rest = rest[end + 1:]
        value_tokens = rest.split()
        if not value_tokens or len(value_tokens) > 2:
            raise ExpositionError(line_no, f"malformed sample line {line!r}")
        value = _parse_float(value_tokens[0], line_no)

        family = _family_name(sample_name, families)
        fam = families.setdefault(family, MetricFamily(family))
        if current != family:
            if family in closed:
                raise ExpositionError(
                    line_no,
                    f"samples for family {family!r} are not contiguous",
                )
            if current is not None:
                closed.add(current)
            current = family
        if fam.kind == "counter" and sample_name != family:
            raise ExpositionError(
                line_no, f"counter {family!r} has suffixed sample {sample_name!r}"
            )
        if fam.kind == "histogram":
            if sample_name == family + "_bucket":
                if "le" not in labels:
                    raise ExpositionError(
                        line_no, "histogram bucket without 'le' label"
                    )
            elif sample_name not in (family + "_sum", family + "_count"):
                raise ExpositionError(
                    line_no,
                    f"unexpected sample {sample_name!r} in histogram {family!r}",
                )
        if fam.kind == "summary":
            if sample_name == family and "quantile" not in labels:
                raise ExpositionError(
                    line_no, "summary sample without 'quantile' label"
                )
            if sample_name not in (
                family, family + "_sum", family + "_count"
            ):
                raise ExpositionError(
                    line_no,
                    f"unexpected sample {sample_name!r} in summary {family!r}",
                )
        fam.samples.append(Sample(sample_name, labels, value, line_no))

    _check_histograms(families)
    return families


def _check_histograms(families: Dict[str, MetricFamily]) -> None:
    """Cumulative-bucket invariants: monotone counts, +Inf == _count,
    _sum present — per label set."""
    for fam in families.values():
        if fam.kind != "histogram":
            continue
        by_series: Dict[Tuple[Tuple[str, str], ...], List[Sample]] = {}
        for s in fam.samples:
            if s.name != fam.name + "_bucket":
                continue
            key = tuple(
                sorted((k, v) for k, v in s.labels.items() if k != "le")
            )
            by_series.setdefault(key, []).append(s)
        for key, buckets in by_series.items():
            def bound(sample: Sample) -> float:
                return _parse_float(sample.labels["le"], sample.line_no)

            ordered = sorted(buckets, key=bound)
            last = -1.0
            for s in ordered:
                if s.value < last:
                    raise ExpositionError(
                        s.line_no,
                        f"histogram {fam.name!r} buckets not cumulative",
                    )
                last = s.value
            if not math.isinf(bound(ordered[-1])):
                raise ExpositionError(
                    ordered[-1].line_no,
                    f"histogram {fam.name!r} missing +Inf bucket",
                )
            labels = dict(key)
            counts = fam.sample_values("_count", **labels)
            sums = fam.sample_values("_sum", **labels)
            if len(counts) != 1 or len(sums) != 1:
                raise ExpositionError(
                    ordered[-1].line_no,
                    f"histogram {fam.name!r} needs exactly one _sum/_count "
                    f"per label set",
                )
            if counts[0][1] != ordered[-1].value:
                raise ExpositionError(
                    ordered[-1].line_no,
                    f"histogram {fam.name!r}: +Inf bucket != _count",
                )
