"""Figure 9 — end-to-end TPC-H on the denormalized LINEITEM table.

Paper setup: SF30 denormalized table (19 attributes), 500 random training
queries and 10 random evaluation queries from templates Q3/Q6/Q8/Q10/Q14,
cold reads on balos.  Reported: total execution time and data transferred
per layout (9a/9b), plus the per-template I/O contrast (Q3 vs Q10) and
Irregular's tuple-ID storage overhead.

Expected shape: Irregular ~2x faster than the best baseline (Column-H),
transferring ~72.5 GB vs ~125 GB against ~43.8 GB strictly necessary;
Irregular's partitions are fewer and larger than Column-H's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ...core.cost import DEFAULT_TUPLE_ID_BYTES
from ...storage.physical import TID_EXPLICIT
from ...workloads.tpch import denormalize, generate_tpch, tpch_workload
from ..environments import BALOS, MACHINES, scaled_context
from ..reporting import ExperimentResult
from ..runner import build_layouts, run_workload

__all__ = ["Fig09Config", "run"]

#: SF30 denormalized table bytes: ~180M lineitems x 372-byte rows.
PAPER_TPCH_TABLE_BYTES = int(180e6) * 372


@dataclass(slots=True)
class Fig09Config:
    """Scale and scope knobs."""

    scale_factor: float = 0.01
    n_train: int = 100
    n_eval: int = 10
    machine: str = "balos"
    layouts: Tuple[str, ...] | None = None
    schism_sample: int = 800
    seed: int = 13


def run(cfg: Fig09Config | None = None) -> ExperimentResult:
    cfg = cfg or Fig09Config()
    result = ExperimentResult(
        experiment="fig09",
        title="TPC-H denormalized LINEITEM: total time and data transferred",
        parameters={
            "scale_factor": cfg.scale_factor,
            "n_train": cfg.n_train,
            "n_eval": cfg.n_eval,
            "machine": cfg.machine,
        },
    )
    db = generate_tpch(cfg.scale_factor, seed=cfg.seed)
    table = denormalize(db)
    result.parameters["n_tuples"] = table.n_tuples
    machine = MACHINES.get(cfg.machine, BALOS)
    ctx, scale = scaled_context(
        machine,
        table.sizeof(),
        paper_table_bytes=PAPER_TPCH_TABLE_BYTES,
        schism_sample_size=cfg.schism_sample,
        seed=cfg.seed,
    )
    train = tpch_workload(table.meta, cfg.n_train, seed=cfg.seed)
    eval_wl = tpch_workload(table.meta, cfg.n_eval, seed=cfg.seed + 1)

    necessary = _necessary_bytes(table, eval_wl)
    result.parameters["necessary_mb"] = round(necessary / 1e6, 2)

    layouts = build_layouts(table, train, ctx, cfg.layouts)
    per_template_bytes: Dict[str, Dict[str, int]] = {}
    for name, layout in layouts.items():
        run_stats = run_workload(layout, eval_wl)
        template_bytes: Dict[str, int] = {}
        for query, stats in zip(eval_wl, run_stats.per_query):
            template = query.label.split("-")[0]
            template_bytes[template] = template_bytes.get(template, 0) + stats.bytes_read
        per_template_bytes[name] = template_bytes
        info = {
            "layout": name,
            "total_time_s": round(run_stats.total.simulated_time_s, 4),
            "paper_eq_s": round(run_stats.total.simulated_time_s / scale, 1),
            "mb_read": round(run_stats.total.bytes_read / 1e6, 2),
            "partitions": layout.n_partitions,
            "avg_file_mb": round(
                layout.storage_bytes() / max(1, layout.n_partitions) / 1e6, 3
            ),
            "storage_mb": round(layout.storage_bytes() / 1e6, 2),
        }
        if name == "Irregular":
            info["tid_overhead_mb"] = round(_tid_bytes(layout) / 1e6, 2)
        result.add_row(**info)

    # Per-template I/O contrast (the paper's Q3-vs-Q10 discussion).
    for template in ("Q3", "Q6", "Q8", "Q10", "Q14"):
        row = {"layout": f"bytes[{template}]"}
        for name in layouts:
            row[f"{name}_mb"] = round(
                per_template_bytes[name].get(template, 0) / 1e6, 3
            )
        result.add_row(**row)
    result.notes.append(
        "paper: Irregular 2x faster than Column-H; 72.5GB vs 125GB transferred "
        "(43.8GB strictly necessary); tuple IDs dominate Irregular's overhead"
    )
    return result


def _necessary_bytes(table, workload) -> int:
    """The strictly necessary data: predicate columns in full plus the
    projected cells of qualifying tuples (no layout can read less without an
    index)."""
    import numpy as np

    from ...plan.predicates import Conjunction

    schema = table.schema
    total = 0
    for query in workload:
        conjunction = Conjunction.from_query(query)
        for predicate in conjunction.predicates:
            total += table.n_tuples * schema.byte_width(predicate.attribute)
        columns = {
            p.attribute: table.column(p.attribute) for p in conjunction.predicates
        }
        mask, _n = conjunction.evaluate_available(columns, table.n_tuples)
        survivors = int(mask.sum())
        remaining = [a for a in query.select if a not in conjunction.attributes]
        total += survivors * schema.row_width(remaining)
    return total


def _tid_bytes(layout) -> int:
    """Bytes of explicit tuple IDs stored across the layout's files."""
    total = 0
    for pid in layout.manager.pids():
        info = layout.manager.info(pid)
        for tids, mode in zip(info.segment_tids, info.segment_tid_modes):
            if mode == TID_EXPLICIT:
                total += len(tids) * DEFAULT_TUPLE_ID_BYTES
    return total
