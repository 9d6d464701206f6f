"""Unit tests for result sets."""

import numpy as np
import pytest

from repro.plan import ResultSet
from repro.errors import JigsawError


class TestResultSet:
    def test_sorted_by_tuple_id(self):
        result = ResultSet(
            np.array([5, 1, 3]), {"a": np.array([50, 10, 30])}
        )
        assert np.array_equal(result.tuple_ids, [1, 3, 5])
        assert np.array_equal(result.column("a"), [10, 30, 50])

    def test_ascending_input_keeps_the_contract_without_a_permutation(self):
        tids = np.array([1, 3, 3, 5], dtype=np.int32)
        cells = np.array([10, 30, 31, 50], dtype=np.int16)
        result = ResultSet(tids, {"a": cells})
        assert result.tuple_ids.dtype == np.int64
        assert np.array_equal(result.tuple_ids, [1, 3, 3, 5])
        assert result.column("a").dtype == np.int16
        # already ordered: the cells are handed through, not gathered again
        assert result.column("a") is cells

    def test_unordered_input_is_permuted_stably(self):
        result = ResultSet(
            np.array([3, 1, 3, 1]), {"a": np.array([30, 10, 31, 11])}
        )
        assert result.tuple_ids.dtype == np.int64
        assert np.array_equal(result.tuple_ids, [1, 1, 3, 3])
        assert np.array_equal(result.column("a"), [10, 11, 30, 31])

    def test_length_mismatch_rejected(self):
        with pytest.raises(JigsawError):
            ResultSet(np.array([1, 2]), {"a": np.array([1])})

    def test_missing_column_raises(self):
        result = ResultSet(np.array([1]), {"a": np.array([1])})
        with pytest.raises(JigsawError):
            result.column("b")

    def test_equals(self):
        left = ResultSet(np.array([2, 1]), {"a": np.array([20, 10])})
        right = ResultSet(np.array([1, 2]), {"a": np.array([10, 20])})
        assert left.equals(right)

    def test_equals_detects_value_difference(self):
        left = ResultSet(np.array([1]), {"a": np.array([10])})
        right = ResultSet(np.array([1]), {"a": np.array([11])})
        assert not left.equals(right)

    def test_equals_detects_column_set_difference(self):
        left = ResultSet(np.array([1]), {"a": np.array([10])})
        right = ResultSet(np.array([1]), {"b": np.array([10])})
        assert not left.equals(right)

    def test_equals_detects_tuple_difference(self):
        left = ResultSet(np.array([1]), {"a": np.array([10])})
        right = ResultSet(np.array([2]), {"a": np.array([10])})
        assert not left.equals(right)

    def test_empty_result(self):
        result = ResultSet(np.empty(0, np.int64), {"a": np.empty(0)})
        assert result.n_tuples == 0 and len(result) == 0
