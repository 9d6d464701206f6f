"""Predicate evaluation: conjunctions of closed-range predicates.

All engines evaluate the same query shape the paper assumes —
``p_1 AND ... AND p_n`` where each ``p_i`` is a range (or equality, a
degenerate range) predicate on one attribute — vectorized over numpy
columns.

This is the first step of the logical plan: :meth:`Conjunction.normalized`
produces the canonical predicate form every engine consumes — one closed
interval per attribute (duplicates were already intersected by
:meth:`~repro.core.query.Query.build`), ordered by attribute name so plans,
explain output and operator traces are deterministic regardless of how the
query's WHERE clause was written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from ..core.query import Query

__all__ = ["RangePredicate", "Conjunction"]


@dataclass(frozen=True, slots=True)
class RangePredicate:
    """``lo <= attribute <= hi`` over one attribute."""

    attribute: str
    lo: float
    hi: float

    def mask(self, column: np.ndarray) -> np.ndarray:
        """Boolean mask of rows whose value falls inside the range."""
        lo, hi = self.lo, self.hi
        if (
            column.dtype.kind in "iu"
            and column.dtype.itemsize <= 4
            and math.isfinite(lo)
            and math.isfinite(hi)
        ):
            # Integer cells up to 32 bits: ``ceil``/``floor`` give the same
            # verdict on every cell, and integer bounds compare in the
            # column's own dtype instead of through a float64 cast.
            lo, hi = math.ceil(lo), math.floor(hi)
        return (column >= lo) & (column <= hi)


class Conjunction:
    """An AND of range predicates, evaluable on any subset of attributes."""

    __slots__ = ("predicates", "attributes")

    def __init__(self, predicates: List[RangePredicate]):
        self.predicates: Tuple[RangePredicate, ...] = tuple(predicates)
        self.attributes: frozenset = frozenset(p.attribute for p in predicates)

    @classmethod
    def from_query(cls, query: Query) -> "Conjunction":
        return cls(
            [RangePredicate(name, iv.lo, iv.hi) for name, iv in query.where.items()]
        )

    @classmethod
    def normalized(cls, query: Query) -> "Conjunction":
        """The canonical (attribute-sorted) conjunction the planner emits.

        Predicate order never changes a result (AND is commutative) or any
        counter (every engine counts per cell visited, not per predicate
        evaluated first), so sorting is free — and it makes plan snapshots
        and explain output independent of WHERE-clause spelling.
        """
        return cls(
            [
                RangePredicate(name, iv.lo, iv.hi)
                for name, iv in sorted(query.where.items())
            ]
        )

    def __len__(self) -> int:
        return len(self.predicates)

    def __bool__(self) -> bool:
        return bool(self.predicates)

    def ranges(self) -> Dict[str, Tuple[float, float]]:
        """``{attribute: (lo, hi)}`` — the shape sketch probes consume."""
        return {p.attribute: (p.lo, p.hi) for p in self.predicates}

    def evaluate_available(
        self, columns: Mapping[str, np.ndarray], n_rows: int
    ) -> Tuple[np.ndarray, int]:
        """AND of the predicates whose attribute appears in ``columns``.

        Returns ``(mask, n_evaluated)``.  Predicates on absent attributes are
        skipped — this is the partition-at-a-time behaviour of checking only
        the cells a partition stores (Algorithm 5 line 8).  With no evaluable
        predicate the mask is all-True (vacuous satisfaction).  The mask is
        the caller's to modify.
        """
        mask = None
        n_evaluated = 0
        for predicate in self.predicates:
            column = columns.get(predicate.attribute)
            if column is None:
                continue
            if mask is None:
                mask = predicate.mask(column)
            else:
                mask &= predicate.mask(column)
            n_evaluated += 1
        if mask is None:
            mask = np.ones(n_rows, dtype=bool)
        return mask, n_evaluated
