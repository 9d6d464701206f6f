"""The relational SQL surface: grammar, pointed errors, round-tripping."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import sql
from repro.core import TableSchema
from repro.errors import InvalidQueryError
from repro.plan.relational import AggSpec, ColumnRef, JoinCondition
from repro.sql import (
    parse_query,
    parse_relational_query,
    parse_relational_statement,
    parse_statement,
    relational_to_sql,
)
from repro.storage import ColumnTable
from repro.testing.join_oracle import random_join_query
from tests.test_sql import check_fresh_literals, statement_shapes


@pytest.fixture(scope="module")
def tables():
    rng = np.random.default_rng(9)
    fact = ColumnTable.build(
        "fact",
        TableSchema.uniform(["f_key", "f_a", "f_b"]),
        {
            "f_key": rng.integers(0, 400, 300).astype(np.int32),
            "f_a": rng.integers(0, 400, 300).astype(np.int32),
            "f_b": rng.integers(0, 400, 300).astype(np.int32),
        },
    )
    dim = ColumnTable.build(
        "dim",
        TableSchema.uniform(["d_key", "d_a"]),
        {
            "d_key": rng.integers(0, 400, 100).astype(np.int32),
            "d_a": rng.integers(0, 400, 100).astype(np.int32),
        },
    )
    return fact, dim


@pytest.fixture(scope="module")
def metas(tables):
    fact, dim = tables
    return {"fact": fact.meta, "dim": dim.meta}


class TestRelationalGrammar:
    def test_join_group_by_aggregates(self, metas):
        query = parse_relational_query(
            metas,
            "SELECT dim.d_a, SUM(fact.f_a), COUNT(*) "
            "FROM fact JOIN dim ON fact.f_key = dim.d_key "
            "WHERE fact.f_a BETWEEN 10 AND 90 GROUP BY dim.d_a",
        )
        assert query.tables == ("fact", "dim")
        assert query.joins == (
            JoinCondition(ColumnRef("fact", "f_key"), ColumnRef("dim", "d_key")),
        )
        assert query.where == {ColumnRef("fact", "f_a"): (10.0, 90.0)}
        assert query.select == (
            ColumnRef("dim", "d_a"),
            AggSpec("sum", ColumnRef("fact", "f_a")),
            AggSpec("count", None),
        )
        assert query.group_by == (ColumnRef("dim", "d_a"),)

    def test_bare_names_resolve_through_from(self, metas):
        # The select list is parsed after FROM, so unqualified unique
        # column names resolve to their owning table.
        query = parse_relational_query(
            metas,
            "SELECT f_a, d_a FROM fact JOIN dim ON f_key = d_key",
        )
        assert query.select == (ColumnRef("fact", "f_a"), ColumnRef("dim", "d_a"))
        assert query.joins[0].left == ColumnRef("fact", "f_key")

    def test_star_expands_in_from_order(self, metas):
        query = parse_relational_query(
            metas, "SELECT * FROM fact JOIN dim ON f_key = d_key"
        )
        assert query.select == (
            ColumnRef("fact", "f_key"),
            ColumnRef("fact", "f_a"),
            ColumnRef("fact", "f_b"),
            ColumnRef("dim", "d_key"),
            ColumnRef("dim", "d_a"),
        )

    def test_explain_analyze_flags(self, metas):
        statement = parse_relational_statement(
            metas,
            "EXPLAIN ANALYZE SELECT f_a FROM fact JOIN dim ON f_key = d_key",
        )
        assert statement.explain and statement.analyze
        plain = parse_relational_statement(
            metas, "SELECT f_a FROM fact JOIN dim ON f_key = d_key"
        )
        assert not plain.explain and not plain.analyze

    def test_comparison_operators_convert(self, metas, tables):
        fact, _ = tables
        query = parse_relational_query(
            metas,
            "SELECT f_a FROM fact JOIN dim ON f_key = d_key "
            "WHERE fact.f_a < 100 AND dim.d_a >= 50",
        )
        lo, hi = query.where[ColumnRef("fact", "f_a")]
        assert hi == 99.0  # integer column: strict < backs off one unit
        assert query.where[ColumnRef("dim", "d_a")][0] == 50.0


class TestPointedErrors:
    def test_single_table_join_names_relational_entry(self, tables):
        fact, _ = tables
        with pytest.raises(
            InvalidQueryError, match=r"parse_relational_statement\(\)"
        ):
            parse_statement(
                fact.meta, "SELECT f_a FROM fact JOIN dim ON f_key = d_key"
            )

    def test_single_table_group_by_names_relational_entry(self, tables):
        fact, _ = tables
        with pytest.raises(InvalidQueryError, match="GROUP BY is not supported"):
            parse_query(fact.meta, "SELECT f_a FROM fact GROUP BY f_a")

    def test_single_table_aggregate_names_relational_entry(self, tables):
        fact, _ = tables
        with pytest.raises(
            InvalidQueryError, match=r"aggregate SUM\(...\) is not supported"
        ):
            parse_query(fact.meta, "SELECT SUM(f_a) FROM fact")

    def test_outer_join_rejected(self, metas):
        with pytest.raises(InvalidQueryError, match="only\ninner|only inner"):
            parse_relational_query(
                metas,
                "SELECT f_a FROM fact LEFT JOIN dim ON f_key = d_key",
            )

    def test_comma_join_rejected(self, metas):
        with pytest.raises(InvalidQueryError, match="comma joins"):
            parse_relational_query(metas, "SELECT f_a FROM fact, dim")

    def test_missing_on_rejected(self, metas):
        with pytest.raises(InvalidQueryError, match="needs an ON condition"):
            parse_relational_query(metas, "SELECT f_a FROM fact JOIN dim")

    def test_non_equality_on_rejected(self, metas):
        with pytest.raises(InvalidQueryError, match="equality only"):
            parse_relational_query(
                metas, "SELECT f_a FROM fact JOIN dim ON f_key < d_key"
            )

    def test_self_join_rejected(self, metas):
        with pytest.raises(InvalidQueryError, match="self-joins"):
            parse_relational_query(
                metas, "SELECT f_a FROM fact JOIN fact ON f_key = f_a"
            )

    def test_ambiguous_bare_name_suggests_qualifying(self):
        rng = np.random.default_rng(0)
        a = ColumnTable.build(
            "a",
            TableSchema.uniform(["k", "x"]),
            {
                "k": rng.integers(0, 9, 10).astype(np.int32),
                "x": rng.integers(0, 9, 10).astype(np.int32),
            },
        )
        b = ColumnTable.build(
            "b",
            TableSchema.uniform(["k", "x"]),
            {
                "k": rng.integers(0, 9, 10).astype(np.int32),
                "x": rng.integers(0, 9, 10).astype(np.int32),
            },
        )
        metas = {"a": a.meta, "b": b.meta}
        with pytest.raises(InvalidQueryError, match=r"qualify it as <table>\.x"):
            parse_relational_query(metas, "SELECT x FROM a JOIN b ON a.k = b.k")

    def test_order_by_names_the_grammar_boundary(self, metas):
        with pytest.raises(InvalidQueryError, match="ends at GROUP BY"):
            parse_relational_query(
                metas,
                "SELECT dim.d_a, COUNT(*) FROM fact JOIN dim "
                "ON f_key = d_key GROUP BY dim.d_a ORDER BY dim.d_a",
            )

    def test_avg_star_rejected(self, metas):
        with pytest.raises(InvalidQueryError, match=r"only COUNT\(\*\)"):
            parse_relational_query(
                metas, "SELECT AVG(*) FROM fact JOIN dim ON f_key = d_key"
            )

    def test_distinct_rejected(self, metas):
        with pytest.raises(InvalidQueryError, match="DISTINCT is not supported"):
            parse_relational_query(
                metas,
                "SELECT DISTINCT f_a FROM fact JOIN dim ON f_key = d_key",
            )

    def test_unknown_function_lists_supported(self, metas):
        with pytest.raises(InvalidQueryError, match="unknown function 'MEDIAN'"):
            parse_relational_query(
                metas,
                "SELECT MEDIAN(f_a) FROM fact JOIN dim ON f_key = d_key",
            )

    def test_unknown_table_lists_catalog(self, metas):
        with pytest.raises(InvalidQueryError, match="catalog has"):
            parse_relational_query(metas, "SELECT f_a FROM nope")


class TestRoundTrip:
    def test_fixed_round_trip(self, metas):
        sql = (
            "SELECT dim.d_a, sum(fact.f_a), count(*) "
            "FROM fact JOIN dim ON fact.f_key = dim.d_key "
            "WHERE fact.f_a BETWEEN 10 AND 90 GROUP BY dim.d_a"
        )
        query = parse_relational_query(metas, sql)
        assert parse_relational_query(metas, relational_to_sql(query)) == query

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 2**31 - 1))
    def test_random_queries_round_trip(self, seed, metas, tables):
        fact, dim = tables
        rng = np.random.default_rng(seed)
        query = random_join_query(rng, fact, dim, label="sql")
        rendered = relational_to_sql(query)
        parsed = parse_relational_query(metas, rendered)
        assert parsed == dataclasses.replace(query, label="sql")


class TestTemplates:
    COLUMNS = ["f_a", "fact.f_key", "dim.d_a", "d_key", "SUM(f_b)", "COUNT(*)"]

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        data=st.data(),
        shape=statement_shapes("fact JOIN dim ON f_key = d_key", COLUMNS, True),
        group_by=st.sampled_from(["", " GROUP BY dim.d_a", " GROUP BY f_a, d_key"]),
    )
    def test_fresh_literals_parse_like_a_full_parse(self, data, shape, group_by, metas):
        check_fresh_literals(
            data, shape + group_by,
            lambda text: parse_relational_statement(metas, text),
            lambda text: sql._parse_relational(metas, text)[0],
        )

    def test_a_literal_set_never_seen_is_served_from_the_template(self, metas, monkeypatch):
        text = (
            "SELECT dim.d_a, SUM(f_a) FROM fact JOIN dim ON f_key = d_key "
            "WHERE f_key BETWEEN {} AND {} AND d_a < {} GROUP BY dim.d_a"
        )
        parse_relational_query(metas, text.format(10, 90, 50))

        def refuse(text):
            raise AssertionError(f"tokenized {text!r}")

        monkeypatch.setattr(sql, "_tokenize", refuse)
        query = parse_relational_query(metas, text.format(-7, 300, 12))
        assert query.where == {
            ColumnRef("fact", "f_key"): (-7.0, 300.0),
            ColumnRef("dim", "d_a"): (metas["dim"].interval("d_a").lo, 11.0),
        }
        assert query.group_by == (ColumnRef("dim", "d_a"),)
