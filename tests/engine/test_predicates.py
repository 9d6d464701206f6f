"""Unit tests for predicate evaluation."""

import numpy as np
import pytest

from repro.core import Query
from repro.plan import Conjunction, RangePredicate


class TestRangePredicate:
    def test_mask_closed_interval(self):
        predicate = RangePredicate("a", 2, 5)
        column = np.array([1, 2, 3, 5, 6])
        assert np.array_equal(predicate.mask(column), [False, True, True, True, False])

    def test_equality_as_degenerate_range(self):
        predicate = RangePredicate("a", 3, 3)
        column = np.array([2, 3, 4])
        assert np.array_equal(predicate.mask(column), [False, True, False])

    def test_float_bounds(self):
        predicate = RangePredicate("a", 0.05, 0.07)
        column = np.array([0.04, 0.05, 0.06, 0.07, 0.08])
        assert predicate.mask(column).sum() == 3


class TestConjunction:
    def test_from_query(self, paper_table):
        query = Query.build(
            paper_table, ["a2"], {"a1": (11, 13), "a4": (44, 46)}
        )
        conjunction = Conjunction.from_query(query)
        assert len(conjunction) == 2
        assert conjunction.attributes == {"a1", "a4"}
        assert conjunction.ranges()["a1"] == (11, 13)

    def test_empty_conjunction_is_falsy(self, paper_table):
        query = Query.build(paper_table, ["a2"])
        conjunction = Conjunction.from_query(query)
        assert not conjunction

    def test_evaluate_available_skips_absent_attributes(self):
        conjunction = Conjunction(
            [RangePredicate("a", 0, 5), RangePredicate("b", 10, 20)]
        )
        columns = {"a": np.array([1, 7, 3])}
        mask, n_evaluated = conjunction.evaluate_available(columns, 3)
        assert n_evaluated == 1
        assert np.array_equal(mask, [True, False, True])

    def test_evaluate_available_all_absent_is_vacuous(self):
        conjunction = Conjunction([RangePredicate("a", 0, 5)])
        mask, n_evaluated = conjunction.evaluate_available({}, 4)
        assert n_evaluated == 0
        assert mask.all()

    def test_evaluate_available_ands_predicates(self):
        conjunction = Conjunction(
            [RangePredicate("a", 0, 5), RangePredicate("b", 0, 5)]
        )
        columns = {"a": np.array([1, 1, 9]), "b": np.array([1, 9, 1])}
        mask, n_evaluated = conjunction.evaluate_available(columns, 3)
        assert n_evaluated == 2
        assert np.array_equal(mask, [True, False, False])
