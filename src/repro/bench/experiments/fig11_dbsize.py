"""Figure 11 — impact of database size with warm data (OS cache enabled).

Paper setup: HAP workload (2 templates, selectivity 10%, 16/160 projected) on
balos (62 GB memory), tables from 25M tuples (16 GB) to 1.6B tuples (1 TB);
caches are NOT flushed and the first query per template is excluded, so
results reflect warm data.

Expected shape: Column is much faster for small tables (everything cached;
Irregular pays reconstruction CPU), the curves cross once the columns the
workload touches stop fitting in memory, and Irregular ends up ~3.5x faster
at the largest table because it reads less cold data.

Scaling: the whole sweep shares one fixed scale factor (the same machine
memory must span the sweep), so simulated cache capacity, file segments and
device latency are all ``paper value x scale``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ...core.cost import IOModel, MemoryModel
from ...layouts.base import BuildContext
from ...plan.stats import CpuModel
from ...storage.device import DeviceProfile
from ...workloads.hap import hap_workload, make_hap_table
from ..environments import BALOS
from ..reporting import ExperimentResult
from ..runner import build_layouts, run_workload

__all__ = ["Fig11Config", "run"]

#: paper cardinality (tuples) that our reference cardinality maps onto
PAPER_REFERENCE_TUPLES = 100_000_000
PAPER_MEMORY_BYTES = 62 * 10**9


@dataclass(slots=True)
class Fig11Config:
    """Scale and sweep knobs.

    ``cardinalities`` maps 1:1 onto the paper's sweep via
    ``reference_tuples -> PAPER_REFERENCE_TUPLES``.
    """

    cardinalities: Tuple[int, ...] = (2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000)
    reference_tuples: int = 8_000
    n_attrs: int = 160
    selectivity: float = 0.10
    projectivity: int = 16
    n_templates: int = 2
    n_train: int = 30
    n_eval: int = 4
    layouts: Tuple[str, ...] = ("Column", "Irregular")
    seed: int = 19


def run(cfg: Fig11Config | None = None) -> ExperimentResult:
    cfg = cfg or Fig11Config()
    # One fixed scale for the whole sweep, computed on BYTES so that narrower
    # test tables still see proportionally sized memory.
    reference_bytes = cfg.reference_tuples * cfg.n_attrs * 4
    paper_bytes = PAPER_REFERENCE_TUPLES * 160 * 4
    scale = reference_bytes / paper_bytes
    cache_bytes = int(PAPER_MEMORY_BYTES * scale)
    segment = max(16 * 1024, int(round(4 * 1024 * 1024 * scale)))
    device = DeviceProfile(
        name=BALOS.device.name,
        io_model=IOModel(
            alpha=BALOS.device.io_model.alpha,
            beta=BALOS.device.io_model.beta * scale,
        ),
    )
    result = ExperimentResult(
        experiment="fig11",
        title="Impact of database size with warm data (OS cache simulated)",
        parameters={
            "selectivity": cfg.selectivity,
            "projectivity": cfg.projectivity,
            "cache_mb": round(cache_bytes / 1e6, 2),
            "machine": BALOS.name,
        },
    )
    for n_tuples in cfg.cardinalities:
        table = make_hap_table(n_tuples, cfg.n_attrs, seed=cfg.seed)
        ctx = BuildContext(
            device_profile=device,
            cache_bytes=cache_bytes,
            file_segment_bytes=segment,
            jigsaw_min_size=segment,
            jigsaw_max_size=8 * segment,
            cpu_model=CpuModel().scaled(BALOS.cores),
            memory_model=MemoryModel(),
            schism_sample_size=500,
            seed=cfg.seed,
        )
        train, templates = hap_workload(
            table.meta,
            cfg.selectivity,
            cfg.projectivity,
            cfg.n_templates,
            cfg.n_train,
            seed=cfg.seed + 1,
        )
        # Warm-up: exactly one (excluded) query per template, as the paper's
        # protocol prescribes — the first query per template is not measured.
        import numpy as np

        warm_rng = np.random.default_rng(cfg.seed + 2)
        warm_queries = [
            template.instantiate(table.meta, cfg.selectivity, warm_rng, "warm")
            for template in templates
        ]
        from repro.core import Workload

        warm = Workload(table.meta, warm_queries)
        eval_wl, _t = hap_workload(
            table.meta, cfg.selectivity, cfg.projectivity, cfg.n_templates,
            cfg.n_eval, seed=cfg.seed + 3, templates=templates,
        )
        layouts = build_layouts(table, train, ctx, cfg.layouts)
        for name, layout in layouts.items():
            # Warm up: one excluded query per template, caches retained.
            run_workload(layout, warm, drop_caches=False)
            run = run_workload(layout, eval_wl, drop_caches=False)
            result.add_row(
                n_tuples=n_tuples,
                paper_tuples=f"{int(n_tuples / scale / 1e6)}M",
                layout=name,
                time_s=round(run.mean_time_s, 6),
                mb_read_cold=round(run.mean_bytes / 1e6, 3),
                cache_hits=run.total.n_cache_hits,
                io_s=round(run.total.io_time_s / max(1, run.n_queries), 6),
                cpu_s=round(run.total.cpu_time_s / max(1, run.n_queries), 6),
            )
    result.notes.append(
        "paper: Column ~11x faster for the smallest table (all cached, "
        "reconstruction dominates); Irregular 3.5x faster at 1.6B tuples"
    )
    return result
