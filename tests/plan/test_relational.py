"""Logical relational plans: validation, pushdown, equivalence propagation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AttributeSpec, Query, TableMeta, TableSchema
from repro.errors import InvalidQueryError
from repro.plan.dag import Catalog, DagExecutor
from repro.plan.relational import (
    AggSpec,
    ColumnRef,
    GroupAggNode,
    JoinCondition,
    JoinNode,
    RelationalQuery,
    ScanNode,
    build_relational_plan,
    single_table_query,
)
from repro.storage import ColumnTable


@pytest.fixture(scope="module")
def tables():
    rng = np.random.default_rng(5)
    fact = ColumnTable.build(
        "fact",
        TableSchema.uniform(["f_key", "f_a", "f_b"]),
        {
            "f_key": rng.integers(0, 400, 500).astype(np.int32),
            "f_a": rng.integers(0, 400, 500).astype(np.int32),
            "f_b": rng.integers(0, 400, 500).astype(np.int32),
        },
    )
    dim = ColumnTable.build(
        "dim",
        TableSchema.uniform(["d_key", "d_a"]),
        {
            "d_key": rng.integers(50, 300, 120).astype(np.int32),
            "d_a": rng.integers(0, 400, 120).astype(np.int32),
        },
    )
    return fact, dim


@pytest.fixture(scope="module")
def metas(tables):
    fact, dim = tables
    return {"fact": fact.meta, "dim": dim.meta}


def join_query(**overrides) -> RelationalQuery:
    base = dict(
        tables=("fact", "dim"),
        joins=(JoinCondition(ColumnRef("fact", "f_key"), ColumnRef("dim", "d_key")),),
        where={},
        select=(ColumnRef("fact", "f_a"), ColumnRef("dim", "d_a")),
        group_by=(),
        label="t",
    )
    base.update(overrides)
    return RelationalQuery(**base)


class TestValidation:
    def test_unknown_table(self, metas):
        with pytest.raises(InvalidQueryError, match="unknown table 'nope'"):
            build_relational_plan(join_query(tables=("fact", "nope")), metas)

    def test_unknown_column(self, metas):
        query = join_query(where={ColumnRef("dim", "missing"): (0, 1)})
        with pytest.raises(InvalidQueryError, match="unknown column 'dim.missing'"):
            build_relational_plan(query, metas)

    def test_self_join_rejected(self, metas):
        with pytest.raises(InvalidQueryError, match="self-joins"):
            build_relational_plan(join_query(tables=("fact", "fact")), metas)

    def test_join_count_mismatch(self, metas):
        with pytest.raises(InvalidQueryError, match="JOIN ... ON conditions"):
            build_relational_plan(join_query(joins=()), metas)

    def test_disconnected_table(self, metas):
        query = join_query(
            joins=(
                JoinCondition(ColumnRef("fact", "f_key"), ColumnRef("fact", "f_a")),
            )
        )
        with pytest.raises(InvalidQueryError, match="not connected"):
            build_relational_plan(query, metas)

    def test_plain_column_with_scalar_aggregate(self, metas):
        query = join_query(
            select=(ColumnRef("dim", "d_a"), AggSpec("sum", ColumnRef("fact", "f_a")))
        )
        with pytest.raises(InvalidQueryError, match="add GROUP BY dim.d_a"):
            build_relational_plan(query, metas)

    def test_plain_column_outside_group_by(self, metas):
        query = join_query(
            select=(ColumnRef("fact", "f_a"), AggSpec("count", None)),
            group_by=(ColumnRef("dim", "d_a"),),
        )
        with pytest.raises(InvalidQueryError, match="must appear in GROUP BY"):
            build_relational_plan(query, metas)

    def test_group_by_without_aggregates(self, metas):
        query = join_query(
            select=(ColumnRef("dim", "d_a"),), group_by=(ColumnRef("dim", "d_a"),)
        )
        with pytest.raises(InvalidQueryError, match="GROUP BY without aggregates"):
            build_relational_plan(query, metas)

    def test_inverted_bounds(self, metas):
        query = join_query(where={ColumnRef("fact", "f_a"): (10, 5)})
        with pytest.raises(InvalidQueryError, match="inverted"):
            build_relational_plan(query, metas)

    def test_bad_aggregate_name(self):
        with pytest.raises(InvalidQueryError, match="unknown aggregate"):
            AggSpec("median", ColumnRef("fact", "f_a"))

    def test_star_aggregate_only_count(self):
        with pytest.raises(InvalidQueryError, match="only count"):
            AggSpec("sum", None)


class TestPushdownAndPropagation:
    def test_predicates_land_on_owning_scan(self, metas):
        query = join_query(
            where={
                ColumnRef("fact", "f_a"): (10, 90),
                ColumnRef("dim", "d_a"): (5, 50),
            }
        )
        plan = build_relational_plan(query, metas)
        assert plan.scans["fact"].pushed["f_a"] == (10.0, 90.0)
        assert plan.scans["dim"].pushed["d_a"] == (5.0, 50.0)
        assert "d_a" not in plan.scans["fact"].pushed
        assert "f_a" not in plan.scans["dim"].pushed

    def test_join_key_range_propagates(self, metas):
        query = join_query(where={ColumnRef("fact", "f_key"): (100, 150)})
        plan = build_relational_plan(query, metas)
        assert plan.scans["fact"].pushed["f_key"] == (100.0, 150.0)
        # The bound crosses the equivalence class onto the other side.
        assert plan.scans["dim"].pushed["d_key"] == (100.0, 150.0)
        assert "d_key" in plan.scans["dim"].propagated
        assert any("propagated" in note for note in plan.notes)

    def test_domain_overlap_propagates_without_predicates(self, metas, tables):
        fact, dim = tables
        plan = build_relational_plan(join_query(), metas)
        # dim's key domain is narrower than fact's, so the join can only
        # match inside it; both scans carry the intersected key bound.
        d = dim.meta.interval("d_key")
        f = fact.meta.interval("f_key")
        lo, hi = max(d.lo, f.lo), min(d.hi, f.hi)
        assert plan.scans["fact"].pushed["f_key"] == (lo, hi)
        assert plan.scans["dim"].pushed["d_key"] == (lo, hi)

    def test_out_of_domain_key_bound_empties_every_scan(self, metas, tables):
        fact, _ = tables
        hi = fact.meta.interval("f_key").hi
        # A key bound above both domains: the join is provably empty.
        query = join_query(where={ColumnRef("fact", "f_key"): (hi + 1000, hi + 2000)})
        plan = build_relational_plan(query, metas)
        assert plan.scans["fact"].empty and plan.scans["dim"].empty

    def test_disjoint_key_domains_mark_empty(self, metas, tables):
        _, dim = tables
        d_hi = dim.meta.interval("d_key").hi
        # Restrict fact's key strictly above dim's domain (still inside
        # fact's own domain), so propagation makes dim's scan contradictory.
        query = join_query(where={ColumnRef("fact", "f_key"): (d_hi + 1, d_hi + 50)})
        plan = build_relational_plan(query, metas)
        assert plan.scans["dim"].empty
        assert plan.scans["fact"].empty  # inner join: emptiness spreads
        assert any("provably empty" in note for note in plan.notes)

    def test_scan_columns_cover_upstream_needs(self, metas):
        query = join_query(
            select=(
                ColumnRef("dim", "d_a"),
                AggSpec("sum", ColumnRef("fact", "f_b")),
                AggSpec("count", None),
            ),
            group_by=(ColumnRef("dim", "d_a"),),
        )
        plan = build_relational_plan(query, metas)
        assert set(plan.scans["fact"].columns) == {"f_key", "f_b"}
        assert set(plan.scans["dim"].columns) == {"d_key", "d_a"}
        assert isinstance(plan.root, GroupAggNode)
        assert plan.output == ("dim.d_a", "sum(fact.f_b)", "count(*)")


class TestPlanShape:
    def test_join_nodes_left_deep(self, metas):
        plan = build_relational_plan(join_query(), metas)
        (node,) = plan.join_nodes
        assert isinstance(node, JoinNode)
        assert isinstance(node.left, ScanNode) and node.left.table == "fact"
        assert node.right.table == "dim"
        assert node.left_key == ColumnRef("fact", "f_key")

    def test_reversed_join_condition_is_normalized(self, metas):
        query = join_query(
            joins=(
                JoinCondition(ColumnRef("dim", "d_key"), ColumnRef("fact", "f_key")),
            )
        )
        plan = build_relational_plan(query, metas)
        (node,) = plan.join_nodes
        assert node.right.table == "dim"
        assert node.right_key == ColumnRef("dim", "d_key")

    def test_compile_query_intersects_extra(self, metas):
        plan = build_relational_plan(
            join_query(where={ColumnRef("fact", "f_a"): (10, 90)}), metas
        )
        scan = plan.scans["fact"]
        compiled = scan.compile_query(extra={"f_a": (50, 200)})
        assert compiled is not None
        assert (
            compiled.where["f_a"].lo,
            compiled.where["f_a"].hi,
        ) == (50.0, 90.0)
        assert scan.compile_query(extra={"f_a": (200, 300)}) is None


class TestAggregatePlacement:
    """The logical half of the placement rule (``place_aggregate``)."""

    @staticmethod
    def grouped(*aggs, group_by=(ColumnRef("dim", "d_a"),), **overrides):
        return join_query(
            select=tuple(group_by) + tuple(aggs), group_by=tuple(group_by),
            **overrides,
        )

    def placement(self, query, metas):
        root = build_relational_plan(query, metas).root
        assert isinstance(root, GroupAggNode)
        return root

    def test_benchmark_shape_offers_the_input_side(self, metas):
        root = self.placement(
            self.grouped(AggSpec("sum", ColumnRef("fact", "f_a")), AggSpec("count", None)),
            metas,
        )
        assert root.placement.ordered == ""
        assert root.placement.partial_sides == ("fact",)
        assert root.partial_keys("fact") == (ColumnRef("fact", "f_key"),)

    def test_side_free_aggregates_offer_both_sides(self, metas):
        root = self.placement(self.grouped(AggSpec("count", None)), metas)
        assert root.placement.partial_sides == ("fact", "dim")
        # A side's partial groups by its join key, then its own GROUP BY columns.
        assert root.partial_keys("dim") == (
            ColumnRef("dim", "d_key"), ColumnRef("dim", "d_a"),
        )

    def test_inputs_on_both_sides_offer_none(self, metas):
        root = self.placement(
            self.grouped(
                AggSpec("sum", ColumnRef("fact", "f_a")),
                AggSpec("max", ColumnRef("dim", "d_a")),
            ),
            metas,
        )
        assert root.placement.ordered == ""
        assert root.placement.partial_sides == ()

    def test_group_by_join_key_is_not_repeated(self, metas):
        root = self.placement(
            self.grouped(
                AggSpec("min", ColumnRef("fact", "f_a")),
                group_by=(ColumnRef("fact", "f_key"), ColumnRef("fact", "f_b")),
            ),
            metas,
        )
        assert root.partial_keys("fact") == (
            ColumnRef("fact", "f_key"), ColumnRef("fact", "f_b"),
        )

    @pytest.mark.parametrize("func", ["sum", "mean"])
    def test_float_sum_and_mean_stay_ordered(self, metas, func):
        schema = TableSchema(
            [AttributeSpec("p_key"), AttributeSpec("p_price", 8, "float64", integer=False)]
        )
        price = TableMeta.from_bounds(
            "price", schema, 50, {"p_key": (0, 399), "p_price": (0.0, 9.5)}
        )
        query = RelationalQuery(
            tables=("fact", "price"),
            joins=(JoinCondition(ColumnRef("fact", "f_key"), ColumnRef("price", "p_key")),),
            where={},
            select=(AggSpec(func, ColumnRef("price", "p_price")),),
        )
        root = self.placement(query, {**metas, "price": price})
        assert root.placement.ordered == f"{func}(price.p_price) is not integer-exact"
        assert root.placement.partial_sides == ()

    def test_min_max_count_of_a_float_are_order_insensitive(self, metas):
        schema = TableSchema([AttributeSpec("x", 8, "float64", integer=False)])
        meta = TableMeta.from_bounds("t", schema, 10, {"x": (0.0, 1.0)})
        query = RelationalQuery(
            tables=("t",), joins=(), where={},
            select=(
                AggSpec("min", ColumnRef("t", "x")),
                AggSpec("max", ColumnRef("t", "x")),
                AggSpec("count", ColumnRef("t", "x")),
            ),
        )
        assert self.placement(query, {"t": meta}).placement.ordered == ""

    def test_sum_that_may_leave_float64_integers_stays_ordered(self):
        schema = TableSchema([AttributeSpec("x", 8, "int64")])

        def ordered(n_tuples, peak):
            meta = TableMeta.from_bounds("t", schema, n_tuples, {"x": (-peak, 7)})
            query = RelationalQuery(
                tables=("t",), joins=(), where={},
                select=(AggSpec("sum", ColumnRef("t", "x")),),
            )
            return self.placement(query, {"t": meta}).placement.ordered

        assert ordered(2**13, 2**40 - 1) == ""
        assert "may exceed 2^53" in ordered(2**13, 2**40)
        # The row bound is the join's: the product of the table cardinalities.
        assert ordered(1, 2**53 - 1) == ""


class TestSingleTableReduction:
    def test_trivial_plan_reduces_to_plain_query(self, metas, tables):
        fact, _ = tables
        query = RelationalQuery(
            tables=("fact",),
            joins=(),
            where={ColumnRef("fact", "f_a"): (10, 90)},
            select=(ColumnRef("fact", "f_key"), ColumnRef("fact", "f_b")),
            label="single",
        )
        plan = build_relational_plan(query, metas)
        reduced = single_table_query(plan)
        direct = Query.build(
            fact.meta, ["f_key", "f_b"], {"f_a": (10, 90)}, label="single"
        )
        assert reduced is not None
        # Identical single-table shape: the paper's pipeline sees the same
        # projection and predicate box it always has.
        assert reduced.select == direct.select
        assert {n: (iv.lo, iv.hi) for n, iv in reduced.where.items()} == {
            n: (iv.lo, iv.hi) for n, iv in direct.where.items()
        }
        assert reduced.label == "single"

    def test_join_or_aggregate_does_not_reduce(self, metas):
        assert single_table_query(build_relational_plan(join_query(), metas)) is None
        query = RelationalQuery(
            tables=("fact",),
            joins=(),
            where={},
            select=(AggSpec("count", None),),
            label="agg",
        )
        assert single_table_query(build_relational_plan(query, metas)) is None


class TestForcedStrategy:
    """``force_strategy`` names one of the join shapes or nothing: a typo is
    refused instead of running the priced shape under a forced label."""

    @pytest.mark.parametrize("force", ["partition_wise", "Broadcast", "hash", ""])
    def test_an_unknown_strategy_is_refused(self, force):
        with pytest.raises(ValueError, match="unknown force_strategy"):
            DagExecutor(Catalog(), force_strategy=force)

    @pytest.mark.parametrize("force", [None, "partition-wise", "broadcast", "naive"])
    def test_each_known_strategy_is_accepted(self, force):
        assert DagExecutor(Catalog(), force_strategy=force).force_strategy == force
