"""Unit tests for result aggregation (``GroupAggOp`` over a ``ResultSet``)."""

import numpy as np
import pytest

from repro.errors import InvalidQueryError
from repro.plan import (
    AggSpec,
    ColumnRef,
    ExecutionStats,
    GroupAggOp,
    Relation,
    ResultSet,
)


def aggregate(result, column, func, by=None):
    """One aggregate of ``column`` over ``result``: a scalar, or — grouped
    ``by`` an attribute — ``{key: value}`` in output order."""
    agg = AggSpec(func, ColumnRef("r", column))
    keys = (f"r.{by}",) if by is not None else ()
    out = GroupAggOp(keys=keys, aggs=[agg]).run(
        Relation.from_result("r", result), ExecutionStats()
    )
    values = out.column(agg.name)
    if by is None:
        return float(values[0])
    return dict(zip(out.column(keys[0]).tolist(), values.tolist()))


@pytest.fixture()
def result():
    return ResultSet(
        np.array([0, 1, 2, 3]),
        {
            "k": np.array([1, 2, 1, 2]),
            "x": np.array([10.0, 20.0, 30.0, 40.0]),
        },
    )


class TestAggregate:
    def test_scalar_aggregates(self, result):
        assert aggregate(result, "x", "sum") == pytest.approx(100.0)
        assert aggregate(result, "x", "max") == 40.0
        assert aggregate(result, "x", "min") == 10.0
        assert aggregate(result, "x", "mean") == pytest.approx(25.0)
        assert aggregate(result, "x", "count") == 4

    def test_unknown_function_rejected(self, result):
        with pytest.raises(InvalidQueryError):
            aggregate(result, "x", "median")

    def test_empty_result_semantics(self):
        empty = ResultSet(np.empty(0, np.int64), {"x": np.empty(0)})
        assert aggregate(empty, "x", "sum") == 0.0
        assert aggregate(empty, "x", "count") == 0.0
        assert np.isnan(aggregate(empty, "x", "max"))


class TestGroupAggregate:
    def test_grouped_sums(self, result):
        groups = aggregate(result, "x", "sum", by="k")
        assert groups[1] == pytest.approx(40.0)
        assert groups[2] == pytest.approx(60.0)

    def test_groups_in_ascending_key_order(self, result):
        assert list(aggregate(result, "x", "count", by="k")) == [1, 2]

    def test_single_group(self):
        result = ResultSet(np.array([0, 1]), {"k": np.array([7, 7]), "x": np.array([1.0, 2.0])})
        groups = aggregate(result, "x", "mean", by="k")
        assert list(groups) == [7]
        assert groups[7] == pytest.approx(1.5)

    def test_empty(self):
        empty = ResultSet(np.empty(0, np.int64), {"k": np.empty(0), "x": np.empty(0)})
        assert aggregate(empty, "x", "sum", by="k") == {}


class TestRevenue:
    """TPC-H revenue, ``sum(l_extendedprice * (1 - l_discount))``: the
    product is an expression, so it is computed as a column and summed
    through the scalar aggregation path."""

    @staticmethod
    def revenue(price, discount):
        result = ResultSet(
            np.arange(len(price)), {"revenue": price * (1.0 - discount)}
        )
        return aggregate(result, "revenue", "sum")

    def test_tpch_revenue_formula(self):
        total = self.revenue(np.array([100.0, 200.0]), np.array([0.10, 0.05]))
        assert total == pytest.approx(100 * 0.9 + 200 * 0.95)

    def test_empty_revenue(self):
        assert self.revenue(np.empty(0), np.empty(0)) == 0.0
