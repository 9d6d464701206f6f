"""The relational layer: multi-table queries as a logical operator DAG.

The single-table planner (:mod:`repro.plan.logical`) answers exactly the
paper's query shape — one projection plus a conjunction of range predicates
over one table.  Real workloads (every TPC-H template this repository
replays) join and aggregate; this module widens the *logical* side of the
planner into a small relational algebra without perturbing the single-table
pipeline underneath it:

* :class:`RelationalQuery` — the parsed form of ``SELECT ... FROM a JOIN b
  ON ... WHERE ... GROUP BY ...``: table list, equi-join conditions, range
  predicates on (qualified) columns, and a select list of columns and
  aggregates.
* :class:`RelationalPlan` — the logical DAG built from the query and the
  catalog: one :class:`ScanNode` per table with **predicate pushdown**
  (every WHERE range lands on its owning table's scan) and **join-key
  equivalence propagation** (a range on one member of a join-key equivalence
  class is intersected into every member, so both sides of a join prune with
  the tightest bounds either side knows), a left-deep chain of
  :class:`JoinNode`, and an optional :class:`GroupAggNode` root.

Each scan node compiles to an ordinary single-table
:class:`~repro.core.query.Query`, so the whole existing stack — zone/sketch
pruning, prefetch, degraded reads, tracing — executes the DAG's leaves
unchanged.  Physical join strategy (partition-wise vs
broadcast, per split) lives in :mod:`repro.plan.joins`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..core.query import Query
from ..core.schema import TableMeta
from ..errors import InvalidQueryError

__all__ = [
    "AGG_FUNCTIONS",
    "AggPlacement",
    "AggSpec",
    "ColumnRef",
    "GroupAggNode",
    "JoinCondition",
    "JoinNode",
    "RelationalPlan",
    "RelationalQuery",
    "ScanNode",
    "build_relational_plan",
    "place_aggregate",
    "single_table_query",
]

#: Aggregate functions the grouped-aggregation operator evaluates.
AGG_FUNCTIONS = ("sum", "min", "max", "mean", "count")


@dataclass(frozen=True, slots=True)
class ColumnRef:
    """One table-qualified column reference (``lineitem.l_orderkey``)."""

    table: str
    column: str

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.column}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.qualified


@dataclass(frozen=True, slots=True)
class JoinCondition:
    """One equi-join condition ``left = right`` between two tables."""

    left: ColumnRef
    right: ColumnRef

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.left} = {self.right}"


@dataclass(frozen=True, slots=True)
class AggSpec:
    """One aggregate select item; ``column`` is None for ``count(*)``."""

    func: str
    column: Optional[ColumnRef] = None

    def __post_init__(self) -> None:
        if self.func not in AGG_FUNCTIONS:
            raise InvalidQueryError(
                f"unknown aggregate {self.func!r}; choose from {sorted(AGG_FUNCTIONS)}"
            )
        if self.column is None and self.func != "count":
            raise InvalidQueryError(
                f"{self.func}(*) is not defined; only count(*) may omit a column"
            )

    @property
    def name(self) -> str:
        """The output column name, e.g. ``sum(lineitem.l_extendedprice)``."""
        target = self.column.qualified if self.column is not None else "*"
        return f"{self.func}({target})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


SelectItem = Union[ColumnRef, AggSpec]


@dataclass(frozen=True)
class RelationalQuery:
    """One multi-table query: joins + conjunctive ranges + optional GROUP BY.

    ``tables`` lists the FROM clause in declaration order; ``joins`` chain
    them left-deep (``joins[i]`` connects ``tables[i + 1]`` to one of the
    tables before it).  ``where`` maps qualified columns to closed
    ``(lo, hi)`` bounds — the same conjunctive range shape as the
    single-table :class:`~repro.core.query.Query`.
    """

    tables: Tuple[str, ...]
    joins: Tuple[JoinCondition, ...]
    where: Mapping[ColumnRef, Tuple[float, float]]
    select: Tuple[SelectItem, ...]
    group_by: Tuple[ColumnRef, ...] = ()
    label: str = ""

    @property
    def aggregates(self) -> Tuple[AggSpec, ...]:
        return tuple(i for i in self.select if isinstance(i, AggSpec))

    @property
    def plain_columns(self) -> Tuple[ColumnRef, ...]:
        return tuple(i for i in self.select if isinstance(i, ColumnRef))

    @property
    def is_aggregating(self) -> bool:
        return bool(self.aggregates) or bool(self.group_by)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        from ..sql import relational_to_sql

        return relational_to_sql(self)


# ------------------------------------------------------------- DAG nodes


@dataclass(slots=True)
class ScanNode:
    """One table's leaf: a single-table select/project the engines run.

    ``pushed`` holds the table's WHERE ranges *after* join-key equivalence
    propagation; ``columns`` is every attribute any upstream operator needs
    (join keys, projected columns, aggregate inputs, group keys).  ``empty``
    marks a scan whose propagated ranges became contradictory — the planner
    proved the relation empty without I/O.
    """

    table: str
    meta: TableMeta
    columns: Tuple[str, ...]
    pushed: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: which pushed ranges arrived via equivalence propagation (explain).
    propagated: Dict[str, str] = field(default_factory=dict)
    empty: bool = False

    def compile_query(
        self, extra: Optional[Mapping[str, Tuple[float, float]]] = None,
        label: str = "",
    ) -> Optional[Query]:
        """The single-table :class:`Query` this leaf executes.

        ``extra`` intersects additional bounds in (the physical layer's
        per-split key ranges).  Returns None when the intersected box is
        empty — the caller skips the read entirely.
        """
        where: Dict[str, Tuple[float, float]] = dict(self.pushed)
        if extra:
            for name, (lo, hi) in extra.items():
                cur = where.get(name)
                if cur is not None:
                    lo, hi = max(lo, cur[0]), min(hi, cur[1])
                table_iv = self.meta.interval(name)
                lo, hi = max(lo, table_iv.lo), min(hi, table_iv.hi)
                if hi < lo:
                    return None
                where[name] = (lo, hi)
        return Query.build(self.meta, list(self.columns), where,
                           label=label or f"scan:{self.table}")


@dataclass(slots=True)
class JoinNode:
    """One equi-join: ``left`` (subtree) ⋈ ``right`` (scan) on a key pair.

    The chain is left-deep: ``left`` is either a :class:`ScanNode` or a
    previous :class:`JoinNode`; ``right`` is always a scan.  ``left_key``
    names the key column on the left subtree's output (qualified), matching
    ``right_key`` on the right scan.
    """

    left: Union["JoinNode", ScanNode]
    right: ScanNode
    left_key: ColumnRef
    right_key: ColumnRef

    def scans(self) -> List[ScanNode]:
        left = (
            self.left.scans() if isinstance(self.left, JoinNode) else [self.left]
        )
        return left + [self.right]


@dataclass(frozen=True, slots=True)
class AggPlacement:
    """Where a plan's aggregate may run — the logical half of the rule.

    ``ordered`` is the reason the aggregate must consume rows in canonical
    order (``""`` when the aggregate list is order-insensitive).
    ``partial_sides`` names the sides of a scan ⋈ scan top join (the only
    join the chooser profiles) that own every aggregate input: either may
    be grouped by its join key plus its own GROUP BY columns *below* the
    join, the root combining the partials.  Whether that pays is priced
    against the catalog by the executor.
    """

    ordered: str = ""
    partial_sides: Tuple[str, ...] = ()


@dataclass(slots=True)
class GroupAggNode:
    """Grouped (or scalar) aggregation over the subtree's output."""

    child: Union[JoinNode, ScanNode]
    keys: Tuple[ColumnRef, ...]
    aggs: Tuple[AggSpec, ...]
    placement: AggPlacement = AggPlacement()

    def partial_keys(self, table: str) -> Tuple[ColumnRef, ...]:
        """Group keys of ``table``'s partial: its join key, then its own
        GROUP BY columns."""
        assert isinstance(self.child, JoinNode)
        key = (
            self.child.right_key if table == self.child.right.table
            else self.child.left_key
        )
        own = tuple(k for k in self.keys if k.table == table and k != key)
        return (key,) + own


@dataclass(slots=True)
class RelationalPlan:
    """The logical DAG: scans per table, a join chain, an optional agg root.

    ``output`` is the final column naming in select-list order.  ``root`` is
    the top node; ``scans`` indexes the leaves by table name.
    """

    query: RelationalQuery
    root: Union[GroupAggNode, JoinNode, ScanNode]
    scans: Dict[str, ScanNode]
    output: Tuple[str, ...]
    #: human-readable notes from planning (propagated ranges, empties).
    notes: Tuple[str, ...] = ()

    @property
    def join_nodes(self) -> Tuple[JoinNode, ...]:
        nodes: List[JoinNode] = []
        node = self.root.child if isinstance(self.root, GroupAggNode) else self.root
        while isinstance(node, JoinNode):
            nodes.append(node)
            node = node.left
        return tuple(reversed(nodes))


# ------------------------------------------------------- plan construction


class _EquivClasses:
    """Union-find over join-key columns, for range propagation."""

    def __init__(self) -> None:
        self._parent: Dict[ColumnRef, ColumnRef] = {}

    def find(self, ref: ColumnRef) -> ColumnRef:
        parent = self._parent.setdefault(ref, ref)
        if parent != ref:
            parent = self.find(parent)
            self._parent[ref] = parent
        return parent

    def union(self, a: ColumnRef, b: ColumnRef) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb

    def classes(self) -> Dict[ColumnRef, List[ColumnRef]]:
        groups: Dict[ColumnRef, List[ColumnRef]] = {}
        for ref in self._parent:
            groups.setdefault(self.find(ref), []).append(ref)
        return groups


def _validate_ref(
    ref: ColumnRef, metas: Mapping[str, TableMeta], context: str
) -> None:
    meta = metas.get(ref.table)
    if meta is None:
        raise InvalidQueryError(
            f"{context} references unknown table {ref.table!r}"
        )
    if ref.column not in meta.schema:
        raise InvalidQueryError(
            f"{context} references unknown column {ref.qualified!r}"
        )


#: float64 represents every integer of magnitude below 2**53, so a sum whose
#: partial results all stay under it is exact in any evaluation order.
_EXACT_FLOAT_INT = 2.0 ** 53


def place_aggregate(
    query: RelationalQuery,
    metas: Mapping[str, TableMeta],
    child: Union[JoinNode, ScanNode],
) -> AggPlacement:
    """The one applicability rule for reordering an aggregate's input.

    ``count``/``min``/``max`` never depend on row order; ``sum``/``mean``
    do not when the input is an integer attribute and ``rows x max|value|``
    (``rows`` bounded by the product of the joined tables' cardinalities)
    stays below 2**53.  Only then may the executor drop the canonical sort,
    aggregate split by split, or group one join side before the join.
    """
    rows = prod(metas[name].n_tuples for name in query.tables)
    for spec in query.aggregates:
        if spec.func not in ("sum", "mean"):
            continue
        assert spec.column is not None
        meta = metas[spec.column.table]
        attribute = meta.schema[spec.column.column]
        if not attribute.integer or np.dtype(attribute.np_dtype).kind not in "iub":
            return AggPlacement(ordered=f"{spec.name} is not integer-exact")
        interval = meta.interval(spec.column.column)
        peak = max(abs(interval.lo), abs(interval.hi))
        if rows * peak >= _EXACT_FLOAT_INT:
            return AggPlacement(
                ordered=f"{spec.name} may exceed 2^53 "
                f"({rows} rows x |{peak:g}|)"
            )
    sides: Tuple[str, ...] = ()
    if isinstance(child, JoinNode) and isinstance(child.left, ScanNode):
        inputs = {s.column.table for s in query.aggregates if s.column is not None}
        sides = tuple(
            scan.table for scan in (child.left, child.right)
            if inputs <= {scan.table}
        )
    return AggPlacement(partial_sides=sides)


def build_relational_plan(
    query: RelationalQuery, metas: Mapping[str, TableMeta]
) -> RelationalPlan:
    """Build the logical DAG: validate, push down, propagate, chain joins.

    ``metas`` maps table name -> :class:`TableMeta` (the catalog's logical
    side; no storage needed at this layer).
    """
    if not query.tables:
        raise InvalidQueryError("a relational query must name at least one table")
    if len(set(query.tables)) != len(query.tables):
        raise InvalidQueryError(
            "self-joins are not supported: each table may appear once in FROM"
        )
    for name in query.tables:
        if name not in metas:
            raise InvalidQueryError(f"unknown table {name!r} in FROM")
    if len(query.joins) != len(query.tables) - 1:
        raise InvalidQueryError(
            f"{len(query.tables)} tables need {len(query.tables) - 1} "
            f"JOIN ... ON conditions, got {len(query.joins)}"
        )

    # --- validate references -------------------------------------------
    for condition in query.joins:
        _validate_ref(condition.left, metas, "JOIN condition")
        _validate_ref(condition.right, metas, "JOIN condition")
    for ref in query.where:
        _validate_ref(ref, metas, "WHERE predicate")
    for item in query.select:
        if isinstance(item, ColumnRef):
            _validate_ref(item, metas, "select list")
        elif item.column is not None:
            _validate_ref(item.column, metas, "aggregate")
    for ref in query.group_by:
        _validate_ref(ref, metas, "GROUP BY")

    # --- aggregate shape rules -----------------------------------------
    if query.aggregates and not query.group_by:
        if query.plain_columns:
            raise InvalidQueryError(
                "plain columns and aggregates mix only under GROUP BY: "
                "add GROUP BY "
                + ", ".join(c.qualified for c in query.plain_columns)
            )
    if query.group_by:
        keys = set(query.group_by)
        for column in query.plain_columns:
            if column not in keys:
                raise InvalidQueryError(
                    f"column {column.qualified!r} must appear in GROUP BY "
                    "or inside an aggregate"
                )
        if not query.aggregates:
            raise InvalidQueryError(
                "GROUP BY without aggregates is not supported: add an "
                "aggregate (e.g. count(*)) to the select list"
            )

    # --- join connectivity: left-deep over the FROM order ---------------
    joined = {query.tables[0]}
    chain: List[JoinCondition] = []
    pending = list(query.joins)
    for next_table in query.tables[1:]:
        found = None
        for condition in pending:
            left, right = condition.left, condition.right
            if right.table == next_table and left.table in joined:
                found = condition
            elif left.table == next_table and right.table in joined:
                found = JoinCondition(left=right, right=left)
            if found is not None:
                pending.remove(condition)
                break
        if found is None:
            raise InvalidQueryError(
                f"table {next_table!r} is not connected to the preceding "
                "tables by any JOIN ... ON condition"
            )
        joined.add(next_table)
        chain.append(found)

    # --- predicate pushdown + join-key equivalence propagation ----------
    equiv = _EquivClasses()
    for condition in chain:
        equiv.union(condition.left, condition.right)
    bounds: Dict[ColumnRef, Tuple[float, float]] = {}
    for ref, (lo, hi) in query.where.items():
        lo, hi = float(lo), float(hi)
        if hi < lo:
            raise InvalidQueryError(
                f"predicate bounds on {ref.qualified!r} are inverted"
            )
        bounds[ref] = (lo, hi)
    notes: List[str] = []
    propagated: Dict[ColumnRef, str] = {}
    for _root, members in equiv.classes().items():
        # Intersect every member's predicate *and* table range: a join key
        # can only match inside the intersection of both tables' domains.
        lo, hi = float("-inf"), float("inf")
        origin: List[str] = []
        for member in members:
            interval = metas[member.table].interval(member.column)
            lo, hi = max(lo, interval.lo), min(hi, interval.hi)
            member_bounds = bounds.get(member)
            if member_bounds is not None:
                lo, hi = max(lo, member_bounds[0]), min(hi, member_bounds[1])
                origin.append(member.qualified)
        for member in members:
            had = bounds.get(member)
            if had is None or (lo, hi) != had:
                source = (
                    " ∩ ".join(origin) if origin else "join-key domain overlap"
                )
                propagated[member] = source
                notes.append(
                    f"propagated [{lo:g}, {hi:g}] to {member.qualified} "
                    f"(from {source})"
                )
            bounds[member] = (lo, hi)

    # --- per-scan column sets ------------------------------------------
    needed: Dict[str, List[str]] = {name: [] for name in query.tables}

    def need(ref: ColumnRef) -> None:
        if ref.column not in needed[ref.table]:
            needed[ref.table].append(ref.column)

    for condition in chain:
        need(condition.left)
        need(condition.right)
    for item in query.select:
        if isinstance(item, ColumnRef):
            need(item)
        elif item.column is not None:
            need(item.column)
    for ref in query.group_by:
        need(ref)
    for name in query.tables:
        if not needed[name]:
            # A table must project at least one column for the engines; use
            # the first schema attribute (count(*) over a single table).
            needed[name].append(metas[name].schema.attribute_names[0])

    scans: Dict[str, ScanNode] = {}
    for name in query.tables:
        meta = metas[name]
        pushed: Dict[str, Tuple[float, float]] = {}
        prop: Dict[str, str] = {}
        empty = False
        for ref, (lo, hi) in bounds.items():
            if ref.table != name:
                continue
            interval = meta.interval(ref.column)
            clo, chi = max(lo, interval.lo), min(hi, interval.hi)
            if chi < clo:
                empty = True
                notes.append(
                    f"scan of {name} is provably empty: bounds on "
                    f"{ref.column!r} are contradictory after propagation"
                )
                continue
            pushed[ref.column] = (clo, chi)
            if ref in propagated:
                prop[ref.column] = propagated[ref]
        scans[name] = ScanNode(
            table=name,
            meta=meta,
            columns=tuple(needed[name]),
            pushed=pushed,
            propagated=prop,
            empty=empty,
        )
    # An empty scan empties every inner join it participates in.
    if any(scan.empty for scan in scans.values()) and len(query.tables) > 1:
        for scan in scans.values():
            scan.empty = True

    # --- assemble the DAG ----------------------------------------------
    node: Union[JoinNode, ScanNode] = scans[query.tables[0]]
    for condition in chain:
        node = JoinNode(
            left=node,
            right=scans[condition.right.table],
            left_key=condition.left,
            right_key=condition.right,
        )
    root: Union[GroupAggNode, JoinNode, ScanNode] = node
    if query.is_aggregating:
        root = GroupAggNode(
            child=node,
            keys=tuple(query.group_by),
            aggs=query.aggregates,
            placement=place_aggregate(query, metas, node),
        )

    output: List[str] = []
    for item in query.select:
        output.append(item.qualified if isinstance(item, ColumnRef) else item.name)
    return RelationalPlan(
        query=query,
        root=root,
        scans=scans,
        output=tuple(output),
        notes=tuple(notes),
    )


def single_table_query(
    plan: RelationalPlan,
) -> Optional[Query]:
    """The plain single-table :class:`Query` a trivial DAG reduces to.

    A one-table, no-aggregate relational query is exactly the paper's query
    shape; returning it lets callers keep byte-identical single-table
    behaviour (same planner, same stats) instead of paying the DAG driver.
    Returns None when the DAG genuinely joins or aggregates.
    """
    if isinstance(plan.root, (GroupAggNode, JoinNode)):
        return None
    scan = plan.root
    select = [item.column for item in plan.query.select
              if isinstance(item, ColumnRef)]
    return Query.build(
        scan.meta, select, scan.pushed, label=plan.query.label or "relational"
    )
