"""The write path's tuple-ID set primitives equal numpy's hash-based ones.

``sorted_unique`` stands in for ``np.unique`` and ``sorted_isin`` for
``np.isin`` against an ascending member set; both must agree on every
integer array, not only on the ascending runs they are fast on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.physical import sorted_isin, sorted_unique

TIDS = st.lists(st.integers(-(2**40), 2**40), max_size=200)
SMALL_TIDS = st.lists(st.integers(0, 30), max_size=200)  # duplicate-heavy


def ascending_runs(elements):
    """Concatenated strictly ascending runs: a partition's segment tids."""
    return st.lists(elements, max_size=6).map(
        lambda runs: np.concatenate(
            [np.unique(np.asarray(r, dtype=np.int64)) for r in runs]
            or [np.empty(0, np.int64)]
        )
    )


def assert_same_unique(a: np.ndarray) -> None:
    got, want = sorted_unique(a), np.unique(a)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestSortedUnique:
    @settings(max_examples=200, deadline=None)
    @given(TIDS)
    def test_equals_np_unique_on_any_array(self, values):
        assert_same_unique(np.asarray(values, dtype=np.int64))

    @settings(max_examples=200, deadline=None)
    @given(SMALL_TIDS)
    def test_equals_np_unique_on_duplicate_heavy_arrays(self, values):
        assert_same_unique(np.asarray(values, dtype=np.int64))

    @settings(max_examples=200, deadline=None)
    @given(ascending_runs(TIDS))
    def test_equals_np_unique_on_concatenated_ascending_runs(self, tids):
        assert_same_unique(tids)

    @pytest.mark.parametrize("values", [
        np.empty(0, np.int64),
        np.array([7], np.int64),
        np.array([5, 3, 9, 3, 1], np.int64),
        np.full(50, 4, np.int64),
        np.array([3, 1, 2], np.int32),
    ], ids=["empty", "single", "unsorted", "all-equal", "int32"])
    def test_edge_cases(self, values):
        assert_same_unique(values)

    def test_returns_a_fresh_array(self):
        tids = np.arange(5, dtype=np.int64)
        tids.flags.writeable = False
        out = sorted_unique(tids)
        assert out.flags.writeable and not np.shares_memory(out, tids)


class TestSortedIsin:
    @settings(max_examples=200, deadline=None)
    @given(TIDS, TIDS)
    def test_equals_np_isin_over_an_ascending_set(self, values, members):
        values = np.asarray(values, dtype=np.int64)
        members = np.unique(np.asarray(members, dtype=np.int64))
        assert np.array_equal(
            sorted_isin(values, members), np.isin(values, members)
        )

    @settings(max_examples=200, deadline=None)
    @given(ascending_runs(SMALL_TIDS), SMALL_TIDS)
    def test_equals_np_isin_on_segment_tids(self, values, members):
        members = np.unique(np.asarray(members, dtype=np.int64))
        assert np.array_equal(
            sorted_isin(values, members), np.isin(values, members)
        )

    def test_empty_member_set(self):
        values = np.array([0, 5, 9], np.int64)
        empty = np.empty(0, np.int64)
        got = sorted_isin(values, empty)
        assert got.dtype == bool and not got.any() and len(got) == 3

    def test_values_past_the_largest_member(self):
        members = np.array([2, 4, 6], np.int64)
        values = np.array([1, 2, 6, 7, 100], np.int64)
        assert sorted_isin(values, members).tolist() == [
            False, True, True, False, False
        ]

    def test_empty_values(self):
        got = sorted_isin(np.empty(0, np.int64), np.array([1, 2], np.int64))
        assert got.dtype == bool and len(got) == 0
