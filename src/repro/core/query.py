"""Query and workload metadata (Algorithm 1, ``Struct Query``).

A query is a conjunction of range predicates plus a projection list:

    SELECT a_i, ..., a_k FROM T WHERE lo_1 <= a_j <= hi_1 AND ...

``A_sigma`` is the set of predicate attributes, ``A_pi`` the projected
attributes, and ``range`` is a whole-table box whose intervals are the
predicate bounds for attributes in ``A_sigma`` and the full table range
otherwise — exactly the representation the partitioner consumes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from ..errors import InvalidQueryError
from .ranges import Interval, RangeMap
from .schema import TableMeta

__all__ = ["Query", "Workload"]


@dataclass(frozen=True, eq=False)
class Query:
    """One conjunctive range query over a table.

    Attributes
    ----------
    select:
        The projected attributes ``A_pi`` in declaration order.
    where:
        Mapping of predicate attribute -> closed interval; its key set is
        ``A_sigma``.
    table:
        The table built against; :attr:`ranges` derives from it.
    """

    select: Tuple[str, ...]
    where: Mapping[str, Interval]
    table: TableMeta = field(repr=False)
    label: str = ""
    #: monotonically increasing creation ordinal; gives query sets a
    #: deterministic iteration order (queries hash by identity, and relying
    #: on set order would make tie-breaking in the partitioner vary from run
    #: to run and between processes).
    sequence: int = field(init=False, default=0, repr=False)

    _counter = itertools.count()

    def __post_init__(self) -> None:
        object.__setattr__(self, "sequence", next(Query._counter))
        # Pre-compute the attribute sets: the partitioner's access() test
        # consults them millions of times during tuning.
        object.__setattr__(self, "_sigma", frozenset(self.where))
        object.__setattr__(self, "_pi", frozenset(self.select))
        object.__setattr__(self, "_accessed", self._sigma | self._pi)

    @classmethod
    def build(
        cls,
        table: TableMeta,
        select: Sequence[str],
        where: Mapping[str, Tuple[float, float]] | Mapping[str, Interval] | None = None,
        label: str = "",
    ) -> "Query":
        """Construct a query against ``table``, validating every attribute.

        ``where`` values may be ``(lo, hi)`` pairs or :class:`Interval`
        objects.  Predicate bounds are clipped to the table range so that the
        query box stays inside the table box.
        """
        if not select:
            raise InvalidQueryError("a query must project at least one attribute")
        table.schema.validate_attributes(select)
        predicates: Dict[str, Interval] = {}
        if where:
            table.schema.validate_attributes(where.keys())
            for name, bounds in where.items():
                interval = bounds if isinstance(bounds, Interval) else Interval(*map(float, bounds))
                table_interval = table.interval(name)
                # Inside the table range the intersection is the interval itself.
                clipped = interval if table_interval.covers(interval) else (
                    interval.intersect(table_interval))
                if clipped is None:
                    raise InvalidQueryError(
                        f"predicate on {name!r} ({interval}) lies outside the table "
                        f"range {table_interval}"
                    )
                predicates[name] = clipped
        return cls(
            select=tuple(dict.fromkeys(select)),
            where=predicates,
            table=table,
            label=label,
        )

    @cached_property
    def ranges(self) -> RangeMap:
        """Whole-table box (predicate bounds on ``A_sigma``, table bounds
        elsewhere), derived on first read: the partitioner's, not the engines'."""
        where, table = self.where, self.table
        return RangeMap({
            name: where[name] if name in where else table.interval(name)
            for name in table.attribute_names
        })

    @property
    def sigma_attributes(self) -> frozenset:
        """``A_sigma`` — attributes referenced in the WHERE clause."""
        return self._sigma

    @property
    def pi_attributes(self) -> frozenset:
        """``A_pi`` — attributes referenced in the SELECT clause."""
        return self._pi

    @property
    def accessed_attributes(self) -> frozenset:
        """``A_sigma ∪ A_pi`` — every attribute the query touches."""
        return self._accessed

    def predicate_interval(self, attribute: str) -> Interval:
        try:
            return self.where[attribute]
        except KeyError:
            raise InvalidQueryError(f"{attribute!r} is not a predicate attribute") from None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        preds = " AND ".join(
            f"{iv.lo:g} <= {name} <= {iv.hi:g}" for name, iv in self.where.items()
        )
        clause = f" WHERE {preds}" if preds else ""
        return f"SELECT {', '.join(self.select)}{clause}"


class Workload:
    """An ordered set of training or evaluation queries on one table."""

    __slots__ = ("table", "queries")

    def __init__(self, table: TableMeta, queries: Iterable[Query]):
        self.table = table
        self.queries: Tuple[Query, ...] = tuple(queries)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    def __getitem__(self, index: int) -> Query:
        return self.queries[index]

    def window(self, size: int) -> "Workload":
        """The trailing ``size`` queries as a new workload.

        The shared workload-arithmetic primitive behind the adaptive
        monitor's sliding window: ``size >= len(self)`` returns the whole
        workload, ``size <= 0`` an empty one.
        """
        if size <= 0:
            return Workload(self.table, ())
        return Workload(self.table, self.queries[-size:])

    def merge(self, other: "Workload") -> "Workload":
        """Concatenate two workloads over the *same* table, in order."""
        if other.table.name != self.table.name or other.table.schema != self.table.schema:
            raise InvalidQueryError(
                f"cannot merge workloads over different tables "
                f"({self.table.name!r} vs {other.table.name!r})"
            )
        return Workload(self.table, self.queries + other.queries)

    def accessed_attributes(self) -> frozenset:
        """Union of every attribute any query touches."""
        touched: frozenset = frozenset()
        for query in self.queries:
            touched |= query.accessed_attributes
        return touched

    def predicate_attribute_frequency(self) -> Dict[str, int]:
        """How often each attribute appears in a WHERE clause.

        Used by the resizing phase of Algorithm 2 (line 16) to pick the most
        frequent predicate attribute when splitting an oversized segment.
        """
        frequency: Dict[str, int] = {}
        for query in self.queries:
            for name in query.where:
                frequency[name] = frequency.get(name, 0) + 1
        return frequency

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Workload({self.table.name!r}, {len(self.queries)} queries)"
