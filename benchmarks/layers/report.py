"""Printing and comparing the benchmark's numbers."""

from __future__ import annotations

import os
import platform
from typing import Dict, List

import numpy


def environment() -> Dict[str, object]:
    """What the numbers were measured on; saved with every report."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def per_workload_path(path: str, workload: str) -> str:
    """``trace.jsonl`` -> ``trace.<workload>.jsonl``."""
    stem, extension = os.path.splitext(path)
    return f"{stem}.{workload}{extension}"


def print_workload(name: str, timed: dict, traced: dict, spec: dict) -> None:
    """Every metric of one workload, by name, with its unit."""
    print(f"\n== {name}: {timed['attempted']} ops timed, {timed['failed']} failed; "
          f"{traced['attempted']} ops traced, {traced['failed']} failed")
    for error in timed["errors"] + traced["errors"]:
        print(f"   {error}")
    extra = timed["extra"]
    print(f"   rounds {extra.get('rounds')}  samples {extra.get('samples')}  "
          f"timed pass {extra.get('timed_pass_s', 0.0):.1f} s")
    print("   -- end to end (untraced pass)")
    for metric in spec["end_to_end"]:
        _line(metric, timed["metrics"])
    print("   -- the same pass in wall-clock units (reported, not gated)")
    for key, value in extra.get("raw", {}).items():
        if value:
            print(f"   {key:<40} {value:>14.4f}")
    for key in ("fail_ratio", "commits", "compactions", "compaction_stall_max_ms",
                "ru_maxrss_mb"):
        if key in extra:
            print(f"   {key:<40} {extra[key]:>14.4f}")
    print("   -- per layer (traced pass)")
    for metric in spec["per_layer"]:
        _line(metric, traced["metrics"])
    print("   -- where a request's time went (mean self ms per op, traced pass)")
    for kind, row in traced["extra"].get("breakdown_ms", {}).items():
        latency = row["latency"]
        parts = "  ".join(
            f"{span}={value:.3f}" for span, value in sorted(
                row.items(), key=lambda item: -item[1]
            ) if span != "latency" and value >= 0.0005
        )
        print(f"   {kind:<10} {latency:9.3f} ms = {parts}")


def _line(metric: dict, values: dict) -> None:
    entry = values.get(metric["name"])
    if entry is None:
        print(f"   {metric['name']:<40} {'missing':>14}")
        return
    print(f"   {metric['name']:<40} {entry['value']:>14.4f} {entry['unit']}")


def worse_by(metric: dict, first: float, second: float) -> float:
    """By what share of ``first`` the ``second`` value is worse (<= 0: not)."""
    if not first:
        return 0.0 if not second else float("inf")
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def compare(spec: dict, first: Dict[str, dict], second: Dict[str, dict]) -> List[str]:
    """End-to-end metrics of ``second`` that are worse than ``first`` by more
    than the metric's own bound."""
    problems = []
    for metric in spec["end_to_end"]:
        a = first[metric["name"]]["value"]
        b = second[metric["name"]]["value"]
        worse = worse_by(metric, a, b)
        if worse > metric["bound"]:
            problems.append(
                f"{metric['name']}: {a:.4f} -> {b:.4f} "
                f"({worse:+.1%} worse, bound {metric['bound']:.0%})"
            )
    return problems
