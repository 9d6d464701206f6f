"""A small SQL front end for the query model.

One grammar, one tokenizer, one parser, parsed against a catalog of tables
(:func:`parse_relational_statement`)::

    SELECT <item [, item ...] | *>
    FROM <table> [AS OF <version>] [JOIN <table> ON <col> = <col> ...]
    [WHERE <predicate> [AND <predicate> ...]]
    [GROUP BY <column [, column ...]>]

where an *item* is a (possibly ``table.column``-qualified) column, an
aggregate ``SUM|MIN|MAX|AVG|MEAN|COUNT(<column>)``, or ``COUNT(*)``; bare
column names resolve against the FROM tables when unambiguous.

The **single-table** query (the paper's shape — a projection plus a
conjunction of range predicates) is the one-table reduction of that parse:
:func:`parse_statement` parses against a one-entry catalog and lowers the
result to a :class:`~repro.core.query.Query`, rejecting JOIN, GROUP BY and
aggregates with a pointer to the relational entry.  ``AS OF`` (time travel)
is a single-table read, so the relational entry rejects it in turn.
Predicates take the forms::

    a = 5          a < 5       a <= 5      a > 5       a >= 5
    a BETWEEN 1 AND 20

A statement may be prefixed with ``EXPLAIN [ANALYZE]``; the query is then
planned (and for ANALYZE, executed with tracing) and the caller renders the
explain report instead of a bare result.

Strict-inequality bounds are converted to closed bounds using the
attribute's integer unit (``a < 5`` on an integer column is ``a <= 4``; on a
continuous column it is the nearest representable float below 5).  Anything
outside the grammar — OR, arithmetic, subqueries, outer joins — raises
:class:`~repro.errors.InvalidQueryError` with a pointed message naming the
nearest supported syntax.

Parsing is paid per statement shape: the text less its number literals (and
each table's name and schema; for a relational statement, each table's meta)
keys a template one full parse builds, a relational one with its prepared
plan skeleton; a repeat binds its literals by the parser's rules, and what a
bind cannot take runs the full parse, so every error is the full parse's.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, replace
from typing import Dict, Generic, List, Mapping, Optional, Tuple, TypeVar, Union

from .core.query import Query
from .core.schema import TableMeta
from .errors import InvalidQueryError
from .plan.relational import (
    AggSpec,
    ColumnRef,
    JoinCondition,
    PreparedPlan,
    RelationalQuery,
)

__all__ = [
    "Statement",
    "parse_query",
    "parse_relational_query",
    "parse_relational_statement",
    "parse_statement",
    "relational_to_sql",
    "to_sql",
]

_NUMBER = r"-?\d+(?:\.\d+)?"
_TOKEN = re.compile(
    rf"""
    \s*(?:
        (?P<number>{_NUMBER})
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op><=|>=|=|<|>)
      | (?P<comma>,)
      | (?P<star>\*)
      | (?P<dot>\.)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<other>\S)
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "BETWEEN", "OR", "NOT",
    "EXPLAIN", "ANALYZE", "JOIN", "ON", "GROUP", "BY", "AS", "OF",
    # Recognized only to reject with a pointed message.
    "ORDER", "LIMIT", "HAVING", "LEFT", "RIGHT", "OUTER", "INNER",
    "FULL", "CROSS", "UNION", "DISTINCT",
}

#: Aggregate spellings accepted in select lists -> canonical function name.
_AGG_NAMES = {
    "SUM": "sum", "MIN": "min", "MAX": "max",
    "AVG": "mean", "MEAN": "mean", "COUNT": "count",
}


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        assert kind is not None  # every alternative of _TOKEN is named
        value = match.group(kind)
        if kind == "name" and value.upper() in _KEYWORDS:
            tokens.append(("keyword", value.upper()))
        elif kind == "other":
            raise InvalidQueryError(f"unexpected character {value!r} in query")
        else:
            tokens.append((kind, value))
    return tokens


class _Parser:
    """Recursive-descent parser for the grammar in the module docstring."""

    _REJECTED = {
        "LEFT": "LEFT JOIN", "RIGHT": "RIGHT JOIN", "OUTER": "OUTER JOIN",
        "FULL": "FULL JOIN", "CROSS": "CROSS JOIN",
    }

    def __init__(
        self, tokens: List[Tuple[str, str]], metas: Mapping[str, TableMeta]
    ):
        self.tokens = tokens
        self.position = 0
        self.metas = metas
        self.from_tables: List[str] = []
        #: catalog version from a ``FROM t AS OF <version>`` clause.
        self.as_of: Optional[int] = None
        #: for a template: the number literals as consumed (AS OF's first),
        #: and each predicate's column, form and literal slots.
        self.literals: List[str] = []
        self.predicates: List[Tuple[ColumnRef, str, Tuple[int, ...]]] = []

    # -------------------------------------------------------- token stream

    def _peek(self) -> Tuple[str, str] | None:
        if self.position < len(self.tokens):
            return self.tokens[self.position]
        return None

    def _peek_kind(self) -> Optional[str]:
        token = self._peek()
        return None if token is None else token[0]

    def _next(self) -> Tuple[str, str]:
        token = self._peek()
        if token is None:
            raise InvalidQueryError("unexpected end of query")
        self.position += 1
        return token

    def _expect_keyword(self, keyword: str) -> None:
        kind, value = self._next()
        if kind != "keyword" or value != keyword:
            raise InvalidQueryError(f"expected {keyword}, found {value!r}")

    def _expect(self, kind: str) -> str:
        token_kind, value = self._next()
        if token_kind != kind:
            raise InvalidQueryError(f"expected {kind}, found {value!r}")
        if kind == "number":
            self.literals.append(value)
        return value

    # ------------------------------------------------------------- parsing

    def parse(self) -> RelationalQuery:
        self._expect_keyword("SELECT")
        select_tokens_start = self.position
        # FROM must be parsed before select items can resolve bare names;
        # skip ahead, parse FROM/JOIN, then return for the select list.
        self._skip_select_list()
        self._expect_keyword("FROM")
        joins = self._parse_from_joins()
        after_from = self.position
        self.position = select_tokens_start
        select = self._parse_select_list()
        self.position = after_from
        where: Dict[ColumnRef, Tuple[float, float]] = {}
        if self._peek() == ("keyword", "WHERE"):
            self._next()
            where = self._parse_predicates()
        group_by: Tuple[ColumnRef, ...] = ()
        if self._peek() == ("keyword", "GROUP"):
            self._next()
            self._expect_keyword("BY")
            group_by = self._parse_column_list()
        token = self._peek()
        if token is not None:
            if token[0] == "keyword" and token[1] in ("ORDER", "LIMIT", "HAVING"):
                raise InvalidQueryError(
                    f"{token[1]} is not supported: the relational grammar "
                    "ends at GROUP BY (results are canonically ordered; "
                    "filter aggregates client-side)"
                )
            raise InvalidQueryError(
                f"trailing input starting at {token[1]!r}"
            )
        return RelationalQuery(
            tables=tuple(self.from_tables),
            joins=joins,
            where=where,
            select=tuple(select),
            group_by=group_by,
            label="sql",
        )

    # -------------------------------------------------------- FROM / JOIN

    def _parse_from_joins(self) -> Tuple[JoinCondition, ...]:
        first = self._expect("name")
        if first not in self.metas:
            raise InvalidQueryError(
                f"unknown table {first!r}; catalog has {sorted(self.metas)}"
            )
        self.from_tables.append(first)
        if self._peek() == ("keyword", "AS"):
            self._next()
            self._expect_keyword("OF")
            self.as_of = _version(self._expect("number"))
        joins: List[JoinCondition] = []
        while True:
            token = self._peek()
            if token is None:
                break
            if token[0] == "keyword" and token[1] in self._REJECTED:
                raise InvalidQueryError(
                    f"{self._REJECTED[token[1]]} is not supported: only "
                    "inner equi-joins (JOIN t ON a.x = b.y) are evaluated"
                )
            if token[0] == "comma":
                raise InvalidQueryError(
                    "comma joins are not supported: use explicit "
                    "JOIN <table> ON <left.col> = <right.col>"
                )
            if token != ("keyword", "JOIN"):
                break
            self._next()
            table = self._expect("name")
            if table not in self.metas:
                raise InvalidQueryError(
                    f"unknown table {table!r}; catalog has {sorted(self.metas)}"
                )
            if table in self.from_tables:
                raise InvalidQueryError(
                    f"table {table!r} appears twice in FROM: self-joins are "
                    "not supported"
                )
            self.from_tables.append(table)
            if self._peek() != ("keyword", "ON"):
                raise InvalidQueryError(
                    f"JOIN {table} needs an ON condition "
                    f"(JOIN {table} ON <left.col> = <right.col>)"
                )
            self._next()
            left = self._parse_column_ref()
            kind, op = self._next()
            if kind != "op" or op != "=":
                raise InvalidQueryError(
                    f"JOIN ... ON supports equality only, found {op!r} "
                    "(equi-join: ON a.x = b.y)"
                )
            right = self._parse_column_ref()
            joins.append(JoinCondition(left=left, right=right))
        return tuple(joins)

    # -------------------------------------------------------- select list

    def _skip_select_list(self) -> None:
        depth = 0
        while True:
            token = self._peek()
            if token is None:
                raise InvalidQueryError("unexpected end of query (no FROM)")
            if token == ("keyword", "FROM") and depth == 0:
                return
            if token[0] == "lparen":
                depth += 1
            elif token[0] == "rparen":
                depth -= 1
            self._next()

    def _parse_select_list(self) -> List[Union[ColumnRef, AggSpec]]:
        if self._peek_kind() == "star":
            self._next()
            return [
                ColumnRef(table, column)
                for table in self.from_tables
                for column in self.metas[table].schema.attribute_names
            ]
        items = [self._parse_select_item()]
        while self._peek_kind() == "comma":
            self._next()
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> Union[ColumnRef, AggSpec]:
        kind, value = self._next()
        if kind == "keyword" and value == "DISTINCT":
            raise InvalidQueryError(
                "DISTINCT is not supported: use GROUP BY over the "
                "projected columns instead"
            )
        if kind != "name":
            raise InvalidQueryError(
                f"expected a column or aggregate in the select list, "
                f"found {value!r}"
            )
        if self._peek_kind() == "lparen":
            func = _AGG_NAMES.get(value.upper())
            if func is None:
                raise InvalidQueryError(
                    f"unknown function {value!r}: supported aggregates are "
                    + ", ".join(sorted(_AGG_NAMES))
                )
            self._next()  # (
            if self._peek_kind() == "star":
                if func != "count":
                    raise InvalidQueryError(
                        f"{value.upper()}(*) is not defined; only COUNT(*) "
                        "may aggregate over *"
                    )
                self._next()
                self._expect("rparen")
                return AggSpec("count", None)
            column = self._parse_column_ref()
            self._expect("rparen")
            return AggSpec(func, column)
        # Plain (possibly qualified) column.
        self.position -= 1
        return self._parse_column_ref()

    # ------------------------------------------------------------ columns

    def _parse_column_ref(self) -> ColumnRef:
        first = self._expect("name")
        if self._peek_kind() == "dot":
            self._next()
            column = self._expect("name")
            if first not in self.metas:
                raise InvalidQueryError(
                    f"unknown table {first!r} in {first}.{column}"
                )
            if first not in self.from_tables:
                raise InvalidQueryError(
                    f"table {first!r} is not in the FROM clause"
                )
            if column not in self.metas[first].schema:
                raise InvalidQueryError(
                    f"unknown column {first}.{column}"
                )
            return ColumnRef(first, column)
        owners = [
            table for table in self.from_tables
            if first in self.metas[table].schema
        ]
        if not owners:
            raise InvalidQueryError(
                f"unknown column {first!r} in the FROM tables "
                f"{self.from_tables}"
            )
        if len(owners) > 1:
            raise InvalidQueryError(
                f"column {first!r} is ambiguous (in {owners}): qualify it "
                f"as <table>.{first}"
            )
        return ColumnRef(owners[0], first)

    def _parse_column_list(self) -> Tuple[ColumnRef, ...]:
        refs = [self._parse_column_ref()]
        while self._peek_kind() == "comma":
            self._next()
            refs.append(self._parse_column_ref())
        return tuple(refs)

    # --------------------------------------------------------- predicates

    def _parse_predicates(self) -> Dict[ColumnRef, Tuple[float, float]]:
        bounds: Dict[ColumnRef, Tuple[float, float]] = {}
        while True:
            ref, (lo, hi) = self._parse_predicate()
            _conjoin(bounds, ref, lo, hi)
            token = self._peek()
            if token is None or token == ("keyword", "GROUP"):
                return bounds
            if token == ("keyword", "AND"):
                self._next()
                continue
            if token[0] == "keyword" and token[1] in ("OR", "NOT"):
                raise InvalidQueryError(
                    f"{token[1]} is not supported: the engine evaluates "
                    "conjunctions of range predicates (the paper's query shape)"
                )
            _kind, value = self._next()
            raise InvalidQueryError(f"unexpected {value!r} in WHERE clause")

    def _parse_predicate(self) -> Tuple[ColumnRef, Tuple[float, float]]:
        ref = self._parse_column_ref()
        token = self._next()
        first = len(self.literals)
        if token == ("keyword", "BETWEEN"):
            op = "BETWEEN"
            self._expect("number")
            self._expect_keyword("AND")
            self._expect("number")
        else:
            kind, op = token
            if kind != "op":
                raise InvalidQueryError(
                    f"expected a comparison after {ref.qualified!r}, found {op!r}"
                )
            self._expect("number")
        slots = tuple(range(first, len(self.literals)))
        self.predicates.append((ref, op, slots))
        return ref, _bounds(self.metas[ref.table], ref, op, [*map(float, self.literals[first:])])


def _version(literal: str) -> int:
    """The catalog version an ``AS OF`` literal names."""
    version = float(literal)
    if version != int(version) or version < 0:
        raise InvalidQueryError(
            f"AS OF takes a non-negative integer catalog version, "
            f"got {literal!r}"
        )
    return int(version)


def _bounds(meta: TableMeta, ref: ColumnRef, op: str, values: List[float]) -> Tuple[float, float]:
    """One predicate's closed bounds: a strict bound steps one unit (or float),
    a one-sided bound takes the open end from the table's interval."""
    if op == "BETWEEN":
        lo, hi = values
        if hi < lo:
            raise InvalidQueryError(
                f"BETWEEN bounds on {ref.qualified!r} are inverted"
            )
        return lo, hi
    (value,) = values
    if op == "=":
        return value, value
    interval = meta.interval(ref.column)
    if op == "<=":
        return interval.lo, value
    if op == ">=":
        return value, interval.hi
    unit = meta.schema[ref.column].unit
    if op == "<":
        return interval.lo, (value - unit if unit else math.nextafter(value, -math.inf))
    # op == ">"
    return (value + unit if unit else math.nextafter(value, math.inf)), interval.hi


def _conjoin(
    bounds: Dict[ColumnRef, Tuple[float, float]], ref: ColumnRef, lo: float, hi: float
) -> None:
    """AND one predicate into the WHERE clause: a repeated column's bounds
    intersect."""
    if ref in bounds:
        old_lo, old_hi = bounds[ref]
        lo, hi = max(lo, old_lo), min(hi, old_hi)
        if hi < lo:
            raise InvalidQueryError(
                f"predicates on {ref.qualified!r} are contradictory"
            )
    bounds[ref] = (lo, hi)


# ---------------------------------------------------------------- rendering


def to_sql(query: Query, table_name: str) -> str:
    """Render a :class:`Query` back to the supported SQL subset.

    ``parse_query(table, to_sql(q, table.name))`` reproduces the query's
    projection and predicate bounds (asserted property-based in the tests).
    """

    def number(value: float) -> str:
        return str(int(value)) if float(value).is_integer() else repr(value)

    text = f"SELECT {', '.join(query.select)} FROM {table_name}"
    if query.where:
        predicates = " AND ".join(
            f"{name} BETWEEN {number(interval.lo)} AND {number(interval.hi)}"
            for name, interval in query.where.items()
        )
        text += f" WHERE {predicates}"
    return text


def relational_to_sql(query: RelationalQuery) -> str:
    """Render a :class:`RelationalQuery` back to the relational subset.

    ``parse_relational_query(metas, relational_to_sql(q))`` reproduces the
    tables, join conditions, predicate bounds, select list, and GROUP BY
    keys (asserted property-based in the tests).
    """

    def number(value: float) -> str:
        return str(int(value)) if float(value).is_integer() else repr(value)

    def item(entry: Union[ColumnRef, AggSpec]) -> str:
        if isinstance(entry, ColumnRef):
            return entry.qualified
        target = entry.column.qualified if entry.column is not None else "*"
        return f"{entry.func}({target})"

    text = "SELECT " + ", ".join(item(entry) for entry in query.select)
    text += f" FROM {query.tables[0]}"
    for condition in query.joins:
        # Render each join against the table it introduces, in FROM order.
        text += (
            f" JOIN {condition.right.table} "
            f"ON {condition.left.qualified} = {condition.right.qualified}"
        )
    if query.where:
        predicates = " AND ".join(
            f"{ref.qualified} BETWEEN {number(lo)} AND {number(hi)}"
            for ref, (lo, hi) in query.where.items()
        )
        text += f" WHERE {predicates}"
    if query.group_by:
        text += " GROUP BY " + ", ".join(
            ref.qualified for ref in query.group_by
        )
    return text


# --------------------------------------------------------------- statements


_Q = TypeVar("_Q", Query, RelationalQuery)


@dataclass(frozen=True)
class Statement(Generic[_Q]):
    """One parsed statement: the query, plus its ``EXPLAIN [ANALYZE]`` mode.

    ``query`` is a :class:`Query` from :func:`parse_statement` and a
    :class:`RelationalQuery` from :func:`parse_relational_statement`.
    """

    query: _Q
    explain: bool = False
    analyze: bool = False
    #: catalog version pinned by ``FROM t AS OF <version>`` (time travel);
    #: None reads the current version.
    as_of: Optional[int] = None


#: ``(keyword, construct, example)``: what only the relational entry parses.
_RELATIONAL_ONLY = (
    ("JOIN", "JOIN", "SELECT ... FROM a JOIN b ON a.x = b.y ..."),
    ("GROUP", "GROUP BY", "SELECT key, SUM(value) FROM t ... GROUP BY key"),
)


def _strip_explain(tokens: List[Tuple[str, str]]) -> Tuple[List[Tuple[str, str]], bool, bool]:
    if not tokens:
        raise InvalidQueryError("empty query")
    explain = tokens[0] == ("keyword", "EXPLAIN")
    analyze = False
    if explain:
        tokens = tokens[1:]
        if tokens and tokens[0] == ("keyword", "ANALYZE"):
            analyze = True
            tokens = tokens[1:]
        if not tokens:
            raise InvalidQueryError(
                "EXPLAIN [ANALYZE] must be followed by a SELECT"
            )
    elif tokens[0] == ("keyword", "ANALYZE"):
        raise InvalidQueryError(
            "ANALYZE is only valid after EXPLAIN (EXPLAIN ANALYZE SELECT ...)"
        )
    return tokens, explain, analyze


def parse_statement(table: TableMeta, sql: str) -> Statement[Query]:
    """Parse one single-table statement (``[EXPLAIN [ANALYZE]] SELECT ...``).

    The one-table reduction of the grammar: ``table`` is the whole catalog
    and the parse is lowered to a :class:`Query`.

    ``EXPLAIN`` marks the statement for planning only: the caller should
    build the executor's plan and render its
    :class:`~repro.plan.explain.ExplainReport` instead of executing.
    ``EXPLAIN ANALYZE`` additionally asks for a traced execution — the
    caller runs the query through :func:`repro.obs.explain_analyze` and
    the report gains the per-operator actuals tree.
    """
    return _parse(_parse_single, {table.name: table}, sql)


def _parse_single(metas: Mapping[str, TableMeta], sql: str):
    (table,) = metas.values()
    tokens, explain, analyze = _strip_explain(_tokenize(sql))
    for keyword, construct, example in _RELATIONAL_ONLY:
        if ("keyword", keyword) in tokens:
            raise InvalidQueryError(
                f"{construct} is not supported in single-table queries: "
                f"parse it with parse_relational_statement() ({example})"
            )
    parser = _Parser(tokens, metas)
    relational = parser.parse()
    if relational.aggregates:
        raise InvalidQueryError(
            f"aggregate {relational.aggregates[0].func.upper()}(...) is not "
            "supported in single-table queries: parse it with "
            "parse_relational_statement() (SELECT SUM(column) FROM t ...)"
        )
    query = Query.build(
        table,
        [ref.column for ref in relational.plain_columns],
        {ref.column: bounds for ref, bounds in relational.where.items()},
        label="sql",
    )
    return Statement(query, explain=explain, analyze=analyze, as_of=parser.as_of), parser


def parse_query(table: TableMeta, sql: str) -> Query:
    """Parse one SELECT statement against ``table`` into a :class:`Query`.

    >>> query = parse_query(meta, "SELECT a, b FROM t WHERE a BETWEEN 1 AND 9")
    """
    statement = parse_statement(table, sql)
    if statement.explain:
        raise InvalidQueryError(
            "EXPLAIN statements carry no result; parse them with "
            "parse_statement() and render the executor's explain report"
        )
    return statement.query


def parse_relational_statement(
    metas: Mapping[str, TableMeta], sql: str
) -> Statement[RelationalQuery]:
    """Parse one relational statement against a catalog of tables.

    ``metas`` maps table name -> :class:`TableMeta` (e.g.
    ``Catalog.metas()``).  ``EXPLAIN [ANALYZE]`` marks the statement for
    :func:`repro.plan.dag.explain_relational` rendering, mirroring the
    single-table convention.
    """
    return _parse(_parse_relational, metas, sql)


def _parse_relational(metas: Mapping[str, TableMeta], sql: str):
    tokens, explain, analyze = _strip_explain(_tokenize(sql))
    parser = _Parser(tokens, metas)
    query = parser.parse()
    if parser.as_of is not None:
        raise InvalidQueryError(
            "AS OF is not supported in relational statements: time travel "
            "reads one table — parse it with parse_statement() and run "
            "TransactionalTable.execute(query, as_of=version)"
        )
    try:  # the shape's plan skeleton, bound to by every repeat of it
        query = replace(query, prepared=PreparedPlan(query, metas))
    except InvalidQueryError:
        pass  # planning raises it again, for this statement
    return Statement(query=query, explain=explain, analyze=analyze), parser


def parse_relational_query(
    metas: Mapping[str, TableMeta], sql: str
) -> RelationalQuery:
    """Parse one relational SELECT into a :class:`RelationalQuery`."""
    statement = parse_relational_statement(metas, sql)
    if statement.explain:
        raise InvalidQueryError(
            "EXPLAIN statements carry no result; parse them with "
            "parse_relational_statement() and render the DAG explain report"
        )
    return statement.query


# --------------------------------------------------------------- statements

#: A number literal as the tokenizer reads one: no name or dot runs into it.
_LITERAL = re.compile(rf"(?<![\w.])({_NUMBER})")

#: Statement shapes kept, oldest dropped first; a fixed bound, not an option.
_STATEMENT_LIMIT = 256

#: ``(entry, text between literals, (table, schema) pairs)`` -> the shape's
#: ``(first statement, predicates)``, or None for a shape only the full
#: parse answers.  A relational key also holds each meta's identity, and the
#: first statement's query carries the shape's prepared plan.  Shared by
#: both entries; written under the lock.
_statements: Dict[tuple, Optional[tuple]] = {}
_statements_lock = threading.Lock()


def _parse(full, metas: Mapping[str, TableMeta], sql: str) -> Statement:
    """Bind ``sql``'s literals into its shape's template by the parser's own
    rules against the current ``metas``; on a first-seen shape, or a bind
    that raises, run the ``full`` parse — so every error is the full
    parse's — and keep the shape it parsed (a relational one prepared)."""
    parts = _LITERAL.split(sql)
    literals = parts[1::2]
    key: tuple = (full, tuple(parts[::2]), tuple((n, m.schema) for n, m in metas.items()))
    if full is _parse_relational:
        key += tuple(map(id, metas.values()))
    template = _statements.get(key)
    if template is not None:
        first, predicates = template
        try:
            where: Dict[ColumnRef, Tuple[float, float]] = {}
            for ref, op, slots in predicates:
                lo, hi = _bounds(metas[ref.table], ref, op, [float(literals[i]) for i in slots])
                _conjoin(where, ref, lo, hi)
            shape = first.query
            if isinstance(shape, RelationalQuery):
                query = RelationalQuery(shape.tables, shape.joins, where, shape.select,
                                        shape.group_by, shape.label, shape.prepared)
            else:
                (table,) = metas.values()
                query = Query.build(table, shape.select, {
                    ref.column: bounds for ref, bounds in where.items()
                }, label="sql")
            as_of = None if first.as_of is None else _version(literals[0])
            return Statement(query, first.explain, first.analyze, as_of)
        except (InvalidQueryError, ValueError, ArithmeticError):
            pass  # the full parse raises this statement's own error
    statement, parser = full(metas, sql)
    with _statements_lock:
        if key not in _statements:
            if len(_statements) >= _STATEMENT_LIMIT:
                del _statements[next(iter(_statements))]
            # Lifted literals that are not the parser's number tokens, one
            # for one, leave the shape to the full parse.
            ok = parser.literals == literals
            _statements[key] = (statement, tuple(parser.predicates)) if ok else None
    return statement
