"""Figure 12 — partitioning time of Jigsaw vs the Schism and Peloton
algorithms, varying table cardinality (12a) and workload size (12b).

Expected shape: Peloton (O(Q*A)) is orders of magnitude faster than Jigsaw;
Jigsaw's time grows roughly linearly with cardinality (it partitions value
space, not tuples) while Schism's grows quadratically (tuple-level co-access
graph); Jigsaw's time is quadratic in the number of queries (one partitioning
candidate per query, each costed against every query).

Partitioning time excludes data loading and partition writing, exactly as in
the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ...core.cost import CostModel
from ...core.partitioner import JigsawPartitioner, PartitionerConfig
from ...partitioning.peloton import PelotonPartitioner
from ...partitioning.schism import SchismPartitioner
from ...workloads.hap import hap_workload, make_hap_table
from ..environments import BALOS, scaled_context
from ..reporting import ExperimentResult

__all__ = ["Fig12Config", "run", "time_all"]


@dataclass(slots=True)
class Fig12Config:
    """Scale and sweep knobs."""

    cardinalities: Tuple[int, ...] = (10_000, 20_000, 40_000, 80_000)
    query_counts: Tuple[int, ...] = (50, 100, 200, 400)
    fixed_cardinality: int = 20_000
    fixed_queries: int = 40
    n_attrs: int = 160
    selectivity: float = 0.2
    projectivity: int = 16
    n_templates: int = 2
    #: Schism samples this fraction of the table (paper: 160K of 100M).
    schism_sample_divisor: int = 16
    seed: int = 23


def time_all(
    table, workload, ctx, sample_size: int, result: ExperimentResult, part: str, x: int
):
    """Time the three partitioners on one input and add the row; returns
    them ``(jigsaw, schism, peloton)`` with their work counters filled in."""
    cost_model = CostModel(
        table.meta,
        ctx.device_profile.io_model,
        memory_model=ctx.memory_model,
        page_size=ctx.file_segment_bytes,
    )
    jigsaw = JigsawPartitioner(
        cost_model,
        PartitionerConfig(min_size=ctx.min_size, max_size=ctx.max_size,
                          selection_enabled=False),
    )
    jigsaw.partition(table.meta, workload)

    n_horizontal = max(
        1, int(np.ceil(table.sizeof() / max(1, ctx.file_segment_bytes)))
    )
    schism = SchismPartitioner(
        n_partitions=min(n_horizontal, 64),
        sample_size=max(64, sample_size),
        seed=ctx.seed,
    )
    schism.partition(table, workload)

    peloton = PelotonPartitioner()
    peloton.partition(table.meta, workload)

    result.add_row(
        part=part,
        x=x,
        jigsaw_s=round(jigsaw.stats.elapsed_s, 4),
        schism_s=round(schism.stats.elapsed_s, 4),
        peloton_s=round(peloton.stats.elapsed_s, 6),
        jigsaw_partitions=jigsaw.stats.n_partitions,
        schism_sample=schism.stats.n_sampled,
    )
    return jigsaw, schism, peloton


def run(cfg: Fig12Config | None = None) -> ExperimentResult:
    cfg = cfg or Fig12Config()
    result = ExperimentResult(
        experiment="fig12",
        title="Partitioning time: Jigsaw vs Schism vs Peloton",
        parameters={
            "selectivity": cfg.selectivity,
            "projectivity": cfg.projectivity,
            "n_templates": cfg.n_templates,
        },
    )
    # (a) sensitivity to cardinality, fixed workload size.
    for n_tuples in cfg.cardinalities:
        table = make_hap_table(n_tuples, cfg.n_attrs, seed=cfg.seed)
        workload, _t = hap_workload(
            table.meta, cfg.selectivity, cfg.projectivity, cfg.n_templates,
            cfg.fixed_queries, seed=cfg.seed + 1,
        )
        ctx, _scale = scaled_context(BALOS, table.sizeof(), seed=cfg.seed)
        time_all(
            table, workload, ctx, n_tuples // cfg.schism_sample_divisor,
            result, part="a:cardinality", x=n_tuples,
        )
    # (b) sensitivity to the number of queries, fixed cardinality.
    table = make_hap_table(cfg.fixed_cardinality, cfg.n_attrs, seed=cfg.seed)
    ctx, _scale = scaled_context(BALOS, table.sizeof(), seed=cfg.seed)
    for n_queries in cfg.query_counts:
        workload, _t = hap_workload(
            table.meta, cfg.selectivity, cfg.projectivity, cfg.n_templates,
            n_queries, seed=cfg.seed + 2,
        )
        time_all(
            table, workload, ctx,
            cfg.fixed_cardinality // cfg.schism_sample_divisor,
            result, part="b:queries", x=n_queries,
        )
    result.notes.append(
        "paper: Jigsaw up to 290x faster than Schism (linear vs quadratic in "
        "cardinality); Peloton ~25000x faster than Jigsaw; Jigsaw quadratic "
        "in the number of queries"
    )
    return result
