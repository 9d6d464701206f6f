"""Tests for the SQL front end."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import sql
from repro.core import AttributeSpec, Query, TableMeta, TableSchema
from repro.errors import InvalidQueryError
from repro.sql import parse_query, parse_relational_statement, parse_statement


class TestParsing:
    def test_basic_select_where(self, paper_table):
        query = parse_query(
            paper_table, "SELECT a2, a3 FROM T WHERE a1 BETWEEN 11 AND 13"
        )
        assert query.select == ("a2", "a3")
        assert query.predicate_interval("a1").lo == 11
        assert query.predicate_interval("a1").hi == 13

    def test_select_star(self, paper_table):
        query = parse_query(paper_table, "SELECT * FROM T")
        assert query.select == paper_table.attribute_names
        assert not query.where

    def test_qualified_column_names(self, paper_table):
        # One grammar: the single-table entry takes table.column too.
        query = parse_query(paper_table, "SELECT T.a1, a2 FROM T WHERE T.a4 >= 43")
        assert query.select == ("a1", "a2")
        assert query.predicate_interval("a4").lo == 43
        with pytest.raises(InvalidQueryError, match="not in the FROM clause|unknown table"):
            parse_query(paper_table, "SELECT U.a1 FROM T")

    def test_case_insensitive_keywords(self, paper_table):
        query = parse_query(paper_table, "select a2 from T where a1 between 11 and 12")
        assert query.select == ("a2",)

    def test_equality_predicate(self, paper_table):
        query = parse_query(paper_table, "SELECT a2 FROM T WHERE a1 = 12")
        interval = query.predicate_interval("a1")
        assert (interval.lo, interval.hi) == (12, 12)

    def test_inequalities_on_integers(self, paper_table):
        lt = parse_query(paper_table, "SELECT a2 FROM T WHERE a1 < 14")
        assert lt.predicate_interval("a1").hi == 13
        gt = parse_query(paper_table, "SELECT a2 FROM T WHERE a1 > 12")
        assert gt.predicate_interval("a1").lo == 13
        le = parse_query(paper_table, "SELECT a2 FROM T WHERE a1 <= 14")
        assert le.predicate_interval("a1").hi == 14
        ge = parse_query(paper_table, "SELECT a2 FROM T WHERE a1 >= 12")
        assert ge.predicate_interval("a1").lo == 12

    def test_multiple_conjuncts(self, paper_table):
        query = parse_query(
            paper_table,
            "SELECT a2 FROM T WHERE a1 BETWEEN 11 AND 14 AND a4 >= 43 AND a6 = 63",
        )
        assert query.sigma_attributes == {"a1", "a4", "a6"}

    def test_repeated_attribute_intersects(self, paper_table):
        query = parse_query(
            paper_table, "SELECT a2 FROM T WHERE a1 >= 12 AND a1 <= 14"
        )
        interval = query.predicate_interval("a1")
        assert (interval.lo, interval.hi) == (12, 14)

    def test_contradictory_predicates_rejected(self, paper_table):
        with pytest.raises(InvalidQueryError):
            parse_query(paper_table, "SELECT a2 FROM T WHERE a1 > 14 AND a1 < 12")


class TestErrors:
    @pytest.mark.parametrize(
        "sql",
        [
            "",
            "SELECT FROM T",
            "SELECT a2 FROM WRONG",
            "SELECT a2 FROM T WHERE",
            "SELECT a2 FROM T WHERE zz = 1",
            "SELECT a2 FROM T WHERE a1 OR a2",
            "SELECT a2 FROM T WHERE a1 = 12 OR a4 = 43",
            "SELECT a2 FROM T WHERE a1 BETWEEN 14 AND 11",
            "SELECT a2 FROM T WHERE a1 = 12 garbage",
            "SELECT a2 FROM T WHERE a1 ! 12",
        ],
    )
    def test_rejected(self, paper_table, sql):
        with pytest.raises(InvalidQueryError):
            parse_query(paper_table, sql)

    def test_or_message_mentions_conjunctions(self, paper_table):
        with pytest.raises(InvalidQueryError, match="conjunction"):
            parse_query(paper_table, "SELECT a2 FROM T WHERE a1 = 12 OR a4 = 43")


class TestExplainStatements:
    def test_plain_select_statement(self, paper_table):
        statement = parse_statement(paper_table, "SELECT a2 FROM T WHERE a1 = 12")
        assert statement.explain is False
        assert statement.query.select == ("a2",)

    def test_explain_prefix_sets_the_flag(self, paper_table):
        statement = parse_statement(
            paper_table, "EXPLAIN SELECT a2 FROM T WHERE a1 = 12"
        )
        assert statement.explain is True
        assert statement.query.select == ("a2",)
        assert statement.query.predicate_interval("a1").lo == 12

    def test_explain_keyword_is_case_insensitive(self, paper_table):
        statement = parse_statement(paper_table, "explain select a2 from T")
        assert statement.explain is True

    def test_bare_explain_rejected(self, paper_table):
        with pytest.raises(InvalidQueryError, match="followed by a SELECT"):
            parse_statement(paper_table, "EXPLAIN")

    def test_explain_analyze_sets_both_flags(self, paper_table):
        statement = parse_statement(
            paper_table, "EXPLAIN ANALYZE SELECT a2 FROM T WHERE a1 = 12"
        )
        assert statement.explain is True
        assert statement.analyze is True
        assert statement.query.select == ("a2",)

    def test_plain_explain_does_not_analyze(self, paper_table):
        statement = parse_statement(
            paper_table, "EXPLAIN SELECT a2 FROM T"
        )
        assert statement.analyze is False

    def test_explain_analyze_case_insensitive(self, paper_table):
        statement = parse_statement(
            paper_table, "explain analyze select a2 from T"
        )
        assert statement.analyze is True

    def test_bare_explain_analyze_rejected(self, paper_table):
        with pytest.raises(InvalidQueryError, match="followed by a SELECT"):
            parse_statement(paper_table, "EXPLAIN ANALYZE")

    def test_analyze_without_explain_rejected(self, paper_table):
        with pytest.raises(InvalidQueryError, match="only valid after EXPLAIN"):
            parse_statement(paper_table, "ANALYZE SELECT a2 FROM T")

    def test_parse_query_refuses_explain(self, paper_table):
        with pytest.raises(InvalidQueryError, match="parse_statement"):
            parse_query(paper_table, "EXPLAIN SELECT a2 FROM T")

    def test_explain_statement_renders_a_report(self, small_table, small_workload, ctx):
        from repro.layouts import IrregularLayout

        layout = IrregularLayout().build(small_table, small_workload, ctx)
        statement = parse_statement(
            small_table.meta,
            "EXPLAIN SELECT a2 FROM T WHERE a1 BETWEEN 0 AND 1999",
        )
        text = layout.executor.explain(statement.query).render()
        assert text.startswith("EXPLAIN SELECT")
        assert "logical plan:" in text
        assert "physical plan:" in text


class TestAsOf:
    def test_default_is_none(self, paper_table):
        statement = parse_statement(paper_table, "SELECT a2 FROM T")
        assert statement.as_of is None

    def test_as_of_version_parses(self, paper_table):
        statement = parse_statement(
            paper_table, "SELECT a2 FROM T AS OF 3 WHERE a1 = 12"
        )
        assert statement.as_of == 3
        assert statement.query.select == ("a2",)
        assert statement.query.predicate_interval("a1").lo == 12

    def test_as_of_without_where(self, paper_table):
        statement = parse_statement(paper_table, "SELECT a2 FROM T AS OF 0")
        assert statement.as_of == 0
        assert not statement.query.where

    def test_as_of_is_case_insensitive(self, paper_table):
        statement = parse_statement(paper_table, "select a2 from T as of 7")
        assert statement.as_of == 7

    def test_explain_composes_with_as_of(self, paper_table):
        statement = parse_statement(
            paper_table, "EXPLAIN SELECT a2 FROM T AS OF 2 WHERE a1 = 12"
        )
        assert statement.explain is True
        assert statement.as_of == 2

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a2 FROM T AS OF",
            "SELECT a2 FROM T AS OF x",
            "SELECT a2 FROM T AS 3",
            "SELECT a2 FROM T AS OF -1",
            "SELECT a2 FROM T AS OF 1.5",
        ],
    )
    def test_malformed_as_of_rejected(self, paper_table, sql):
        with pytest.raises(InvalidQueryError):
            parse_statement(paper_table, sql)

    def test_relational_entry_rejects_as_of(self, paper_table):
        # Time travel reads one table; the DAG cannot pin a version.
        with pytest.raises(InvalidQueryError, match=r"TransactionalTable\.execute"):
            parse_relational_statement(
                {paper_table.name: paper_table}, "SELECT a2 FROM T AS OF 3"
            )

    def test_fractional_version_message(self, paper_table):
        with pytest.raises(InvalidQueryError, match="non-negative integer"):
            parse_statement(paper_table, "SELECT a2 FROM T AS OF 1.5")


class TestEndToEnd:
    def test_parsed_query_runs_on_a_layout(self, small_table, small_workload, ctx):
        from repro.layouts import RowLayout

        layout = RowLayout().build(small_table, small_workload, ctx)
        query = parse_query(
            small_table.meta, "SELECT a2, a5 FROM T WHERE a1 BETWEEN 0 AND 1999"
        )
        result, _stats = layout.execute(query)
        mask = small_table.column("a1") <= 1999
        assert result.n_tuples == int(mask.sum())
        expected = small_table.column("a5")[np.nonzero(mask)[0]]
        assert np.array_equal(result.column("a5"), expected)


class TestToSql:
    def test_roundtrip(self, paper_table):
        from repro.sql import to_sql

        original = parse_query(
            paper_table,
            "SELECT a2, a5 FROM T WHERE a1 BETWEEN 11 AND 14 AND a4 >= 43",
        )
        rebuilt = parse_query(paper_table, to_sql(original, "T"))
        assert rebuilt.select == original.select
        assert {n: (i.lo, i.hi) for n, i in rebuilt.where.items()} == {
            n: (i.lo, i.hi) for n, i in original.where.items()
        }

    def test_no_where(self, paper_table):
        from repro.sql import to_sql

        query = parse_query(paper_table, "SELECT a1 FROM T")
        assert to_sql(query, "T") == "SELECT a1 FROM T"


class TestSqlProperty:
    def test_random_roundtrips(self, paper_table):
        """Property-style: random projections/predicates survive the
        SQL render -> parse roundtrip."""
        import numpy as np

        from repro.core import Query
        from repro.sql import to_sql

        rng = np.random.default_rng(7)
        names = paper_table.attribute_names
        for _ in range(50):
            k = int(rng.integers(1, len(names) + 1))
            select = list(rng.choice(names, size=k, replace=False))
            where = {}
            for name in rng.choice(names, size=int(rng.integers(0, 3)), replace=False):
                interval = paper_table.interval(name)
                lo = int(rng.integers(interval.lo, interval.hi + 1))
                hi = int(rng.integers(lo, interval.hi + 1))
                where[name] = (lo, hi)
            original = Query.build(paper_table, select, where)
            rebuilt = parse_query(paper_table, to_sql(original, paper_table.name))
            assert rebuilt.select == original.select
            assert {n: (i.lo, i.hi) for n, i in rebuilt.where.items()} == {
                n: (i.lo, i.hi) for n, i in original.where.items()
            }


# ------------------------------------------------------------------ templates

#: integer columns a1..a3 and a continuous column x (strict bounds step by
#: the next float, not by one).
TEMPLATE_TABLE = TableMeta.from_bounds(
    "T",
    TableSchema([AttributeSpec("a1"), AttributeSpec("a2"), AttributeSpec("a3"),
                 AttributeSpec("x", 8, "float64", integer=False)]),
    100,
    {"a1": (0, 100), "a2": (-50, 50), "a3": (0, 9), "x": (-1.0, 1.0)},
)
FORMS = ("BETWEEN", "=", "<=", ">=", "<", ">")
#: well-formed literals, and the spellings the tokenizer reads otherwise.
LITERALS = st.one_of(
    st.integers(-60, 120).map(str),
    st.builds("{}.{}".format, st.integers(-2, 99), st.integers(0, 99)),
    st.sampled_from(["-0", "-0.25", "0.5", "007", "\u0663", ".5", "3-5", "1.5.3", "?"]),
)


def statement_shapes(tables, columns, as_of):
    """SQL text with ``{}`` literal slots: every predicate form, duplicate
    predicates, EXPLAIN [ANALYZE], AS OF, odd whitespace and numbers that
    touch identifiers (``a1>-5``)."""
    gap = st.sampled_from([" ", "  ", "\t", " \n "])
    tight = st.sampled_from(["", " ", "  "])

    @st.composite
    def shape(draw):
        prefix = draw(st.sampled_from(["", "EXPLAIN ", "explain analyze ", "EXPLAIN ANALYZE\t"]))
        select = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=3))
        text = f"{prefix}SELECT{draw(gap)}{', '.join(select)}{draw(gap)}FROM {tables}"
        if as_of and draw(st.booleans()):
            text += f"{draw(gap)}AS OF{draw(gap)}{{}}"
        predicates = draw(st.lists(
            st.tuples(st.sampled_from(columns), st.sampled_from(FORMS)), max_size=3
        ))
        for index, (column, form) in enumerate(predicates):
            text += draw(gap) + ("WHERE" if index == 0 else "AND") + draw(gap) + column
            if form == "BETWEEN":
                text += f"{draw(gap)}BETWEEN{draw(gap)}{{}}{draw(gap)}AND{draw(gap)}{{}}"
            else:
                text += f"{draw(tight)}{form}{draw(tight)}{{}}"
        return text + draw(tight)

    return shape()


def float_bits(value):
    return float(value).hex()


def outcome(parse):
    """What a parse returns, bit-exact, or the error it raises."""
    try:
        statement = parse()
    except Exception as exc:  # the error itself is the outcome
        return ("error", type(exc), str(exc))
    query = statement.query
    if isinstance(query, Query):
        boxes = [
            [(name, float_bits(iv.lo), float_bits(iv.hi)) for name, iv in box.items()]
            for box in (query.where, query.ranges)
        ]
        body = (query.select, boxes, query.label)
    else:
        body = (query.tables, query.joins, query.select, query.group_by, query.label,
                [(ref, float_bits(lo), float_bits(hi)) for ref, (lo, hi) in query.where.items()])
    return ("ok", body, statement.as_of, statement.explain, statement.analyze)


def check_fresh_literals(data, shape, parse, full):
    """Parse ``shape`` once, then again with fresh literals: the second
    parse equals a fresh full parse, or raises the same error."""
    slots = shape.count("{}")
    first = shape.format(*data.draw(st.lists(LITERALS, min_size=slots, max_size=slots)))
    second = shape.format(*data.draw(st.lists(LITERALS, min_size=slots, max_size=slots)))
    warm = outcome(lambda: parse(first))
    assert warm == outcome(lambda: full(first))
    assert outcome(lambda: parse(second)) == outcome(lambda: full(second))
    if warm[0] == "ok":
        again, other = parse(first), parse(first)
        assert again.query is not other.query
        if isinstance(again.query, Query):
            assert again.query.sequence != other.query.sequence


class TestTemplates:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), shape=statement_shapes("T", ["a1", "a2", "a3", "x", "T.a1"], True))
    def test_fresh_literals_parse_like_a_full_parse(self, data, shape):
        metas = {"T": TEMPLATE_TABLE}
        check_fresh_literals(
            data, shape,
            lambda text: sql.parse_statement(TEMPLATE_TABLE, text),
            lambda text: sql._parse_single(metas, text)[0],
        )

    def test_a_literal_set_never_seen_is_served_from_the_template(self, monkeypatch):
        first = sql.parse_statement(
            TEMPLATE_TABLE, "SELECT a2, x FROM T AS OF 3 WHERE a1 BETWEEN 10 AND 20 AND x < 0.5"
        )

        def refuse(text):
            raise AssertionError(f"tokenized {text!r}")

        monkeypatch.setattr(sql, "_tokenize", refuse)
        bound = sql.parse_statement(
            TEMPLATE_TABLE, "SELECT a2, x FROM T AS OF 7 WHERE a1 BETWEEN 31 AND 47 AND x < -0.25"
        )
        assert bound.as_of == 7 and first.as_of == 3
        assert bound.query.select == ("a2", "x")
        assert (bound.query.where["a1"].lo, bound.query.where["a1"].hi) == (31, 47)
        assert bound.query.where["x"].hi == math.nextafter(-0.25, -math.inf)
        assert bound.query.ranges["a3"] == TEMPLATE_TABLE.interval("a3")
        # A bind that would raise re-runs the full parse, whose error it is.
        with pytest.raises(AssertionError, match="tokenized"):
            sql.parse_statement(
                TEMPLATE_TABLE, "SELECT a2, x FROM T AS OF 7 WHERE a1 BETWEEN 47 AND 31 AND x < 0"
            )

    @pytest.mark.parametrize("literal", ["?", ".5", "3-5", "1.5.3"])
    def test_a_statement_that_fails_to_parse_is_not_kept(self, literal):
        sql.parse_statement(TEMPLATE_TABLE, "SELECT a2 FROM T WHERE a1 = 5")
        before = dict(sql._statements)
        with pytest.raises(InvalidQueryError):
            sql.parse_statement(TEMPLATE_TABLE, f"SELECT a2 FROM T WHERE a1 = {literal}")
        assert sql._statements == before

    def test_a_shape_the_tokenizer_reads_otherwise_is_left_to_the_full_parse(self):
        # The name token stops before an Arabic-Indic digit, which the
        # tokenizer then reads as a number; the lifted literals do not.
        text = "SELECT a2 FROM T WHERE a1 BETWEEN\u0663 AND {}"
        for hi in (5, 7):
            interval = sql.parse_statement(TEMPLATE_TABLE, text.format(hi)).query.where["a1"]
            assert (interval.lo, interval.hi) == (3, hi)

    def test_bound_one_sided_predicates_follow_the_current_meta(self):
        text = "SELECT a2 FROM T WHERE a1 >= {}"
        sql.parse_statement(TEMPLATE_TABLE, text.format(5))
        grown = TableMeta.from_bounds(
            "T", TEMPLATE_TABLE.schema, 200,
            {"a1": (0, 300), "a2": (-50, 50), "a3": (0, 9), "x": (-1.0, 1.0)},
        )
        query = sql.parse_statement(grown, text.format(6)).query
        assert (query.where["a1"].lo, query.where["a1"].hi) == (6, 300)
        assert query.ranges["a1"].hi == 300

    def test_the_memo_is_bounded(self):
        for value in range(sql._STATEMENT_LIMIT + 20):
            sql.parse_statement(TEMPLATE_TABLE, f"SELECT a2 FROM T WHERE a1 = 1{' ' * value}")
        assert len(sql._statements) == sql._STATEMENT_LIMIT
