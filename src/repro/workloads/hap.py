"""The HAP benchmark (Athanassoulis et al., "Optimal Column Layout for
Hybrid Workloads", VLDB'19) — Section 6.1.1.

Two tables: a *narrow* one with 16 columns and a *wide* one with 160 columns,
every attribute a 4-byte uniformly distributed integer.  The read-only query
workload is

    SELECT a_i, ..., a_j, ..., a_k FROM T WHERE C1 <= a_j <= C2

parameterized by selectivity, projectivity, the number of query templates and
the number of queries.  A template fixes the projected attribute set and the
predicate attribute (one of the projected ones); each query instantiates a
template with random constants meeting the selectivity requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..core.query import Query, Workload
from ..core.schema import TableMeta, TableSchema
from ..errors import InvalidQueryError
from ..storage.table_data import ColumnTable

__all__ = ["HAPTemplate", "make_hap_table", "hap_templates", "hap_workload"]

#: Attribute values are uniform integers in [0, VALUE_MAX].
VALUE_MAX = 999_999

WIDE_ATTRS = 160
NARROW_ATTRS = 16


def _attribute_names(n_attrs: int) -> List[str]:
    return [f"a{i:03d}" for i in range(n_attrs)]


def make_hap_table(
    n_tuples: int,
    n_attrs: int = WIDE_ATTRS,
    seed: int = 0,
    name: str = "hap",
    distribution: str = "uniform",
) -> ColumnTable:
    """Generate a HAP table: ``n_attrs`` 4-byte integer columns.

    ``distribution`` is ``"uniform"`` (the benchmark's definition) or
    ``"zipf"``, a heavily skewed power-law variant used by the
    histogram-estimation ablation — the uniform-and-independent assumption of
    Algorithm 4 is exact on the former and badly wrong on the latter.
    """
    rng = np.random.default_rng(seed)
    names = _attribute_names(n_attrs)
    schema = TableSchema.uniform(names, byte_width=4, np_dtype="int32")
    if distribution == "uniform":
        columns = {
            attr: rng.integers(0, VALUE_MAX + 1, size=n_tuples, dtype=np.int32)
            for attr in names
        }
    elif distribution == "zipf":
        columns = {}
        for attr in names:
            raw = rng.zipf(1.3, size=n_tuples).astype(np.float64)
            scaled = np.minimum(raw / 5_000.0, 1.0) * VALUE_MAX
            columns[attr] = scaled.astype(np.int32)
    else:
        raise InvalidQueryError(f"unknown distribution {distribution!r}")
    return ColumnTable.build(name, schema, columns)


@dataclass(frozen=True, slots=True)
class HAPTemplate:
    """One query template: projected attributes + the predicate attribute."""

    projected: Tuple[str, ...]
    predicate_attribute: str

    def instantiate(
        self, table: TableMeta, selectivity: float, rng: np.random.Generator, label: str = ""
    ) -> Query:
        """Draw random constants C1, C2 meeting the selectivity requirement."""
        interval = table.interval(self.predicate_attribute)
        span = int(interval.hi - interval.lo) + 1
        width = max(1, min(span, int(round(selectivity * span))))
        c1 = int(interval.lo) + int(rng.integers(0, span - width + 1))
        return Query.build(
            table,
            select=list(self.projected),
            where={self.predicate_attribute: (c1, c1 + width - 1)},
            label=label,
        )


def hap_templates(
    table: TableMeta,
    projectivity: int,
    n_templates: int,
    rng: np.random.Generator,
) -> List[HAPTemplate]:
    """Draw random templates: ``projectivity`` attributes each, the
    predicate attribute one of them (the paper's construction)."""
    names = table.attribute_names
    if projectivity < 1 or projectivity > len(names):
        raise InvalidQueryError(
            f"projectivity must be in [1, {len(names)}], got {projectivity}"
        )
    templates = []
    for _ in range(n_templates):
        chosen = rng.choice(len(names), size=projectivity, replace=False)
        projected = tuple(names[i] for i in sorted(chosen))
        predicate = projected[int(rng.integers(0, len(projected)))]
        templates.append(HAPTemplate(projected, predicate))
    return templates


def hap_workload(
    table: TableMeta,
    selectivity: float,
    projectivity: int,
    n_templates: int,
    n_queries: int,
    seed: int = 0,
    templates: List[HAPTemplate] | None = None,
) -> Tuple[Workload, List[HAPTemplate]]:
    """Build a HAP workload: queries drawn uniformly from random templates.

    Returns ``(workload, templates)`` so that training and evaluation
    workloads can share templates (pass the returned templates back in).
    """
    if not 0.0 < selectivity <= 1.0:
        raise InvalidQueryError(f"selectivity must be in (0, 1], got {selectivity}")
    rng = np.random.default_rng(seed)
    if templates is None:
        templates = hap_templates(table, projectivity, n_templates, rng)
    queries = []
    for index in range(n_queries):
        template = templates[int(rng.integers(0, len(templates)))]
        queries.append(
            template.instantiate(table, selectivity, rng, label=f"hap-{index}")
        )
    return Workload(table, queries), templates
