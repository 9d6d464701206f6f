"""Figure 10 — in-memory arithmetic query vs a MonetDB-style engine.

Paper setup: HAP table resident in memory, the arithmetic query
``SELECT max(a_i + ... + a_k) WHERE C1 <= a_j <= C2``, selectivity swept.
Three engines: MonetDB (operator-at-a-time, intermediate columns
materialized), Jigsaw-Mem (columnar pick of Algorithm 2: reconstruct rows,
then one row-wise pass) and Jigsaw-Disk (irregular partitioning's hash-table
reconstruction).

Expected shape: Jigsaw-Disk slowest at 1% (random hash writes); MonetDB
slowest at high selectivity (materialization dominates); Jigsaw-Mem best
throughout — the result that justifies row-major order inside partitions.
All engines must return the identical maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ...engine.arithmetic import (
    ArithmeticQuery,
    JigsawDiskEngine,
    JigsawMemEngine,
    MonetDBStyleEngine,
)
from ...errors import JigsawError
from ...plan.predicates import RangePredicate
from ...workloads.hap import VALUE_MAX, make_hap_table
from ..reporting import ExperimentResult

__all__ = ["Fig10Config", "run"]


@dataclass(slots=True)
class Fig10Config:
    """Scale and sweep knobs."""

    n_tuples: int = 200_000
    n_attrs: int = 16
    n_summed: int = 8
    selectivities: Tuple[float, ...] = (0.01, 0.1, 0.25, 0.5, 0.75, 1.0)
    seed: int = 17


def run(cfg: Fig10Config | None = None) -> ExperimentResult:
    cfg = cfg or Fig10Config()
    result = ExperimentResult(
        experiment="fig10",
        title="In-memory arithmetic query: Jigsaw vs MonetDB-style engine",
        parameters={
            "n_tuples": cfg.n_tuples,
            "n_attrs": cfg.n_attrs,
            "n_summed": cfg.n_summed,
        },
    )
    table = make_hap_table(cfg.n_tuples, cfg.n_attrs, seed=cfg.seed)
    attrs = table.schema.attribute_names[: cfg.n_summed]
    engines = (
        MonetDBStyleEngine(table),
        JigsawMemEngine(table),
        JigsawDiskEngine(table),
    )
    rng = np.random.default_rng(cfg.seed)
    for selectivity in cfg.selectivities:
        span = VALUE_MAX + 1
        width = max(1, int(round(selectivity * span)))
        c1 = int(rng.integers(0, span - width + 1))
        query = ArithmeticQuery(
            attributes=attrs,
            predicate=RangePredicate(attrs[0], c1, c1 + width - 1),
        )
        answers = {}
        for engine in engines:
            value, stats = engine.execute(query)
            answers[engine.name] = value
            result.add_row(
                selectivity=selectivity,
                engine=engine.name,
                time_s=round(stats.cpu_time_s, 6),
                selected=stats.n_result_tuples,
                materialized_mb=round(stats.materialized_bytes / 1e6, 3),
                hash_ops=stats.hash_inserts + stats.hash_updates,
            )
        if len(set(answers.values())) != 1:
            raise JigsawError(f"engines disagree at selectivity {selectivity}: {answers}")
    result.notes.append(
        "paper: MonetDB degrades with selectivity (94% of time adding "
        "attributes at 100%); Jigsaw-Disk pays random hash writes at 1%"
    )
    return result
