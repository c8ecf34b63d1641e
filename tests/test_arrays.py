"""``sorted_unique`` is a drop-in for flag-less ``np.unique``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arrays import sorted_unique


def _assert_same_as_unique(a):
    got = sorted_unique(a)
    expected = np.unique(a)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


@given(st.lists(st.integers(-1000, 1000), max_size=200))
@settings(max_examples=100, deadline=None)
def test_matches_np_unique_on_random_ids(values):
    _assert_same_as_unique(np.asarray(values, dtype=np.int64))


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16, np.float64])
@pytest.mark.parametrize(
    "values",
    [[], [7], [3, 3, 3, 3], [5, 1, 5, 2, 1], [[4, 1], [1, 9]]],
    ids=["empty", "single", "all-duplicate", "mixed", "2-d"],
)
def test_matches_np_unique_on_edge_cases(values, dtype):
    _assert_same_as_unique(np.asarray(values, dtype=dtype))


def test_does_not_alias_input():
    a = np.array([2, 1, 2], dtype=np.int64)
    out = sorted_unique(a)
    out[0] = 99
    assert a.tolist() == [2, 1, 2]
    single = np.array([4], dtype=np.int64)
    sorted_unique(single)[0] = 0
    assert single[0] == 4
