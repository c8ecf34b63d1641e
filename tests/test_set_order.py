"""The CPython set-order premise the incremental PageRank kernel relies on.

``IncrementalPageRank.on_batch`` visits each round's frontier in the order
``for v in frontier`` walks a Python set.  Above a load threshold it takes
that order to be ascending and builds no set
(``repro.compute.pagerank._set_iterates_ascending``).  These properties
build sets the way the scalar kernel did, ``set()`` followed by
``update(dict)`` calls and ``set(iterable)``, and check the premise
directly, so an interpreter whose set layout breaks it fails here rather
than as a rank mismatch in the goldens.
"""

from __future__ import annotations

from hypothesis import event, given, settings, strategies as st

from repro.compute.pagerank import _set_iterates_ascending


def _check(built: set[int], n: int) -> None:
    if _set_iterates_ascending(len(built), n):
        event("above threshold")
        assert list(built) == sorted(built)
    else:
        event("below threshold")


@st.composite
def distinct_ids(draw):
    """A universe size ``n`` and ``k`` distinct ids in ``[0, n)`` in random
    order, ``k`` uniform in ``[0, n]`` (so both sides of the threshold)."""
    n = draw(st.integers(2, 400))
    perm = draw(st.permutations(range(n)))
    return n, perm[: draw(st.integers(0, n))]


@given(case=distinct_ids(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_set_updated_from_dicts_iterates_ascending_above_threshold(case, data):
    """``set()`` then one ``update(dict)`` per moved vertex: the dicts
    cover the chosen ids in windows of random size and overlap."""
    n, chosen = case
    cuts = sorted(data.draw(st.lists(st.integers(0, len(chosen)), max_size=11)))
    bounds = [0, *cuts, len(chosen)]
    built: set[int] = set()
    for start, stop in zip(bounds, bounds[1:]):
        overlap = data.draw(st.integers(0, start))
        built.update(dict.fromkeys(chosen[start - overlap : stop], 1.0))
    assert built == set(chosen)
    _check(built, n)


@given(case=distinct_ids(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_set_from_iterable_iterates_ascending_above_threshold(case, data):
    """``set(iterable)`` over ids with repeats, as round 1 builds it."""
    n, chosen = case
    repeats = data.draw(st.lists(st.sampled_from(chosen), max_size=n)) if chosen else []
    ids = data.draw(st.permutations(chosen + repeats))
    _check(set(ids), n)
    _check(set(int(v) for v in ids), n)


def test_threshold_boundary():
    """The smallest count the threshold admits for a 120K-vertex graph,
    checked on the worst case: ids inserted in descending order."""
    n = 120_000
    count = next(c for c in range(n + 1) if _set_iterates_ascending(c, n))
    assert not _set_iterates_ascending(count - 1, n)
    top = list(range(n - 1, n - 1 - count, -1))
    built: set[int] = set()
    for start in range(0, count, 997):
        built.update(dict.fromkeys(top[start : start + 997]))
    assert len(built) == count
    assert list(built) == sorted(built)
