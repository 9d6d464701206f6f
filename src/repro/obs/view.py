"""The one view: telemetry as plain rows, and the formatters over them.

Flight records, hotspots and health verdicts are each produced once, as
plain dicts — :func:`record_rows`, :func:`hotspot_rows`,
``HealthReport.as_dict`` — and every surface is a thin formatter over those
rows: the HTTP routes serialize them as JSON, ``jigsaw-bench profile | serve
| health`` print the text tables below, and the JSONL dumps (trace files,
``--flight-out``) go through :func:`write_jsonl`.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, Iterable, List, Mapping, Optional, Union

from .trace import Span, TraceCollector

__all__ = [
    "dump_jsonl",
    "format_health",
    "hotspot_rows",
    "hotspot_summary",
    "queries_view",
    "record_rows",
    "write_jsonl",
]

SpanSource = Union[TraceCollector, Iterable[Span]]


def _spans_of(source: SpanSource):
    if isinstance(source, TraceCollector):
        return source.spans()
    return tuple(source)


def write_jsonl(
    rows: Iterable[Mapping[str, Any]], destination: Union[str, IO[str]]
) -> int:
    """Write one JSON object per line (stable key order); returns the count.

    ``destination`` is a path or an open text file.
    """
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as fh:
            return write_jsonl(rows, fh)
    n = 0
    for row in rows:
        destination.write(json.dumps(row, sort_keys=True, default=str) + "\n")
        n += 1
    return n


def dump_jsonl(source: SpanSource, destination: Union[str, IO[str]]) -> int:
    """Write every span as one JSON line (see :meth:`Span.as_dict`)."""
    return write_jsonl((s.as_dict() for s in _spans_of(source)), destination)


# ------------------------------------------------------------ flight records


def record_rows(records: Iterable[Any]) -> List[Dict[str, Any]]:
    """Flight records as JSON-ready rows, in the order given."""
    return [record.as_dict() for record in records]


def queries_view(
    recorder,
    engine: Optional[str] = None,
    slow: Optional[bool] = None,
    n: Optional[int] = 50,
) -> Dict[str, Any]:
    """The recorder's aggregate block plus its newest ``n`` matching rows."""
    if recorder is None:
        return {"error": "no flight recorder installed", "records": []}
    return {
        "summary": recorder.summary(),
        "records": record_rows(recorder.records(engine=engine, slow=slow, n=n)),
    }


# ------------------------------------------------------------------ hotspots


def hotspot_rows(source: SpanSource, n: int = 10) -> List[Dict[str, Any]]:
    """Spans grouped by name, heaviest **wall** time first.

    Nested spans each count their own totals (a phase span's figures include
    its children's, as in any cumulative profile) — the ranking answers
    "which span *names* are hot", not "which exclusive regions".  The
    simulated columns ride along; they are the paper-fidelity accounting,
    not evidence of speed.
    """
    groups: Dict[str, Dict[str, Any]] = {}
    for span in _spans_of(source):
        row = groups.get(span.name)
        if row is None:
            row = groups[span.name] = {
                "name": span.name, "count": 0, "wall_s": 0.0,
                "sim_io_s": 0.0, "sim_cpu_s": 0.0,
            }
        row["count"] += 1
        row["wall_s"] += span.wall_s
        row["sim_io_s"] += span.sim_io_s
        row["sim_cpu_s"] += span.sim_cpu_s
    ranked = sorted(
        groups.values(),
        key=lambda r: (-r["wall_s"], -(r["sim_io_s"] + r["sim_cpu_s"]), r["name"]),
    )
    return ranked[: n if n > 0 else len(ranked)]


def hotspot_summary(source: SpanSource, n: int = 10) -> str:
    """Human-readable top-N table for the ``profile`` subcommand."""
    spans = _spans_of(source)
    rows = hotspot_rows(spans, n)
    lines = [
        f"top {len(rows)} hotspots over {len(spans)} spans (by wall time):",
        f"  {'span':<22s} {'count':>7s} {'wall':>10s} {'sim total':>12s} "
        f"{'sim io':>12s} {'sim cpu':>12s}",
    ]
    for row in rows:
        lines.append(
            f"  {row['name']:<22s} {row['count']:>7d} "
            f"{row['wall_s'] * 1e3:>8.2f}ms "
            f"{(row['sim_io_s'] + row['sim_cpu_s']) * 1e3:>10.3f}ms "
            f"{row['sim_io_s'] * 1e3:>10.3f}ms "
            f"{row['sim_cpu_s'] * 1e3:>10.3f}ms"
        )
    return "\n".join(lines)


# -------------------------------------------------------------------- health


def format_health(payload: Mapping[str, Any], title: str = "health") -> str:
    """Text verdict from ``HealthReport.as_dict()`` (local or scraped)."""
    lines = [f"{title}: {payload['status'].upper()}"]
    for rule in payload.get("results", ()):
        observed = rule.get("observed")
        shown = "n/a" if observed is None else f"{observed:.6g}"
        lines.append(
            f"  [{rule['status'].upper():<4s}] {rule['name']:<28s} "
            f"observed={shown} warn{rule['op']}{rule['warn']:g} "
            f"crit{rule['op']}{rule['crit']:g}"
        )
    return "\n".join(lines)
