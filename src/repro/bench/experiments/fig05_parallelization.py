"""Figure 5 — CPU-cycle breakdown of the two parallelization strategies.

Paper setup: one HAP query on c5.9xlarge, threads swept 8 -> 36, cycles in
the select operator decomposed into I/O, computation and waiting, averaged
over active threads.  Expected shape: Jigsaw-L (locking) beats Jigsaw-S
(shared scans) at 8 threads but its compute grows with threads (false
sharing); Jigsaw-S's compute shrinks while its I/O grows (concurrent reads).

The breakdown comes from the deterministic execution simulator fed with the
*actual* partition sizes and tuple counts of a materialized irregular layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ...engine.parallel import ParallelSimParams, simulate_lock_based, simulate_shared_scan
from ...workloads.hap import hap_workload, make_hap_table
from ..environments import C5_9XLARGE, scaled_context
from ..reporting import ExperimentResult
from ..runner import build_layouts

__all__ = ["Fig05Config", "run"]


@dataclass(slots=True)
class Fig05Config:
    """Scale and sweep knobs."""

    n_tuples: int = 40_000
    n_attrs: int = 160
    selectivity: float = 0.2
    projectivity: int = 16
    n_templates: int = 2
    n_train: int = 40
    thread_counts: Tuple[int, ...] = (8, 16, 24, 36)
    seed: int = 11


def run(cfg: Fig05Config | None = None) -> ExperimentResult:
    cfg = cfg or Fig05Config()
    result = ExperimentResult(
        experiment="fig05",
        title="Shared-scan vs lock-based parallelization (cycle breakdown)",
        parameters={"machine": C5_9XLARGE.name, "n_tuples": cfg.n_tuples},
    )
    table = make_hap_table(cfg.n_tuples, cfg.n_attrs, seed=cfg.seed)
    train, templates = hap_workload(
        table.meta,
        cfg.selectivity,
        cfg.projectivity,
        cfg.n_templates,
        cfg.n_train,
        seed=cfg.seed,
    )
    ctx, scale = scaled_context(C5_9XLARGE, table.sizeof(), seed=cfg.seed)
    # Shrink the resize window so the predicate column spans enough
    # partitions to feed 36 threads, as the paper's 64 GB table does.
    ctx.jigsaw_min_size = 4 * 1024
    ctx.jigsaw_max_size = 16 * 1024
    layout = build_layouts(table, train, ctx, names=("Irregular",))["Irregular"]
    query, _t = hap_workload(
        table.meta, cfg.selectivity, cfg.projectivity, cfg.n_templates, 1,
        seed=cfg.seed + 1, templates=templates,
    )
    pred_attrs = query[0].sigma_attributes
    pred_pids = layout.manager.catalog_index().pids_for_attributes(pred_attrs)
    sizes = [layout.manager.info(pid).n_bytes for pid in pred_pids]
    tuples = [layout.manager.info(pid).n_tuples for pid in pred_pids]
    result.parameters["n_pred_partitions"] = len(sizes)

    params = ParallelSimParams()
    for n_threads in cfg.thread_counts:
        for strategy, simulate in (
            ("Irregular-L", simulate_lock_based),
            ("Irregular-S", simulate_shared_scan),
        ):
            breakdown = simulate(sizes, tuples, n_threads, ctx.device_profile, params)
            result.add_row(
                threads=n_threads,
                strategy=strategy,
                io_s=round(breakdown.io_s, 6),
                compute_s=round(breakdown.compute_s, 6),
                waiting_s=round(breakdown.waiting_s, 6),
                total_s=round(breakdown.total_s, 6),
            )
    result.notes.append(
        "paper: L beats S at 8 threads; with more threads L's compute grows "
        "(false sharing) while S's shrinks and its I/O rises"
    )
    return result
