"""Differential oracle for the incremental PageRank kernel.

:class:`ReferencePageRank` is a frozen copy of the scalar pull loop as it
was before the contribution cache and the wavefront schedule: it walks
the frontier set, and divides each in-neighbor's rank by that neighbor's
live out-degree on every edge it reads.  It lives here, not in ``src/``,
so the library keeps a single code path.  The kernel must match it bit
for bit (rank lists equal under ``==``, identical ``ComputeCounters``) on
random insert / delete / reweight streams, on OCA-style rounds that cover
several batches, and on ``affected`` sets that omit some of the vertices
whose out-degree changed — over the dict, hybrid and 2-shard graphs.
After every round the cache invariant ``contrib[u] == values[u] /
outdeg(u)`` (0.0 without out-edges) must hold.  Shrinking the chunk
constant splits these small streams into many chunks with multi-level
wavefronts; a 300-vertex stream puts frontiers on both sides of the
ascending-order threshold, and a directed path is the deepest schedule.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_batch
from repro.compute import pagerank
from repro.compute.pagerank import IncrementalPageRank
from repro.compute.result import ComputeCounters
from repro.graph.adjacency_list import AdjacencyListGraph
from repro.graph.base import DynamicGraph
from repro.graph.hybrid import HybridAdjacencyGraph
from repro.pipeline.sharding import ShardedGraph

N_VERTICES = 20


class ReferencePageRank:
    """The uncached incremental PageRank loop, frozen as the oracle."""

    def __init__(self, graph, damping=0.85, tolerance=1e-7, max_rounds=100):
        self.graph = graph
        self.damping = damping
        self.tolerance = tolerance
        self.max_rounds = max_rounds
        self._base = (1.0 - damping) / graph.num_vertices
        self.values = [self._base] * graph.num_vertices

    def on_batch(self, affected) -> ComputeCounters:
        out_adj, in_adj = self.graph.adjacency_views()
        empty: dict[int, float] = {}
        values = self.values
        base = self._base
        damping = self.damping
        tolerance = self.tolerance
        frontier = set(int(v) for v in affected)
        touched_vertices = 0
        touched_edges = 0
        rounds = 0
        while frontier and rounds < self.max_rounds:
            rounds += 1
            next_frontier: set[int] = set()
            force_push = rounds == 1
            touched_vertices += len(frontier)
            for v in frontier:
                total = 0.0
                in_nbrs = in_adj.get(v, empty)
                for u in in_nbrs:
                    deg = len(out_adj.get(u, empty))
                    if deg:
                        total += values[u] / deg
                touched_edges += len(in_nbrs)
                new_value = base + damping * total
                if force_push or abs(new_value - values[v]) > tolerance:
                    values[v] = new_value
                    out_nbrs = out_adj.get(v, empty)
                    touched_edges += len(out_nbrs)
                    next_frontier.update(out_nbrs)
                else:
                    values[v] = new_value
            frontier = next_frontier
        return ComputeCounters(
            iterations=rounds,
            touched_vertices=touched_vertices,
            touched_edges=touched_edges,
        )


GRAPHS = {
    "dict": lambda n=N_VERTICES: AdjacencyListGraph(n),
    # A low promotion threshold makes vertices cross between the pooled
    # array class and hub dicts (and back) inside short streams.
    "hybrid": lambda n=N_VERTICES: HybridAdjacencyGraph(n, promote_threshold=3),
    "sharded": lambda n=N_VERTICES: ShardedGraph(n, 2, transport="inproc"),
}


def _close(graph) -> None:
    close = getattr(graph, "close", None)
    if close is not None:
        close()


def assert_cache_invariant(engine: IncrementalPageRank) -> None:
    # Ranks are written back as Python floats, never numpy scalars (a
    # pickle of either compares equal but differs in bytes).
    assert all(type(value) is float for value in engine.values)
    out_adj, __ = engine.graph.adjacency_views()
    for u in range(engine.graph.num_vertices):
        deg = len(out_adj.get(u, {}))
        expected = engine.values[u] / deg if deg else 0.0
        assert engine._contrib[u] == expected, u


# One op: (src, dst, delete?).  A batch repeating a present edge refreshes
# its weight (a reweight); deletes of absent edges are no-ops.
ops = st.tuples(
    st.integers(0, N_VERTICES - 1),
    st.integers(0, N_VERTICES - 1),
    st.booleans(),
)
batches = st.lists(ops, min_size=1, max_size=25)
# One compute round: the batches it covers (more than one = an OCA union
# round) and a keep-mask over the union's vertices (False drops a vertex
# from ``affected`` even if its out-degree changed).
rounds = st.tuples(
    st.lists(batches, min_size=1, max_size=3),
    st.lists(st.booleans(), min_size=2 * N_VERTICES, max_size=2 * N_VERTICES),
)
streams = st.lists(rounds, min_size=1, max_size=6)


def _to_batch(batch_ops, batch_id, weight_salt):
    src = [u for u, __, __ in batch_ops]
    dst = [v for __, v, __ in batch_ops]
    weight = [float((u * 31 + v * 7 + weight_salt) % 9 + 1) for u, v in zip(src, dst)]
    is_delete = [d for __, __, d in batch_ops]
    return make_batch(src, dst, weight, batch_id=batch_id, is_delete=is_delete)


def _replay(kind: str, stream) -> None:
    """Apply ``stream`` to a fresh ``kind`` graph, diffing the kernel
    against the oracle after every compute round."""
    graph = GRAPHS[kind]()
    try:
        engine = IncrementalPageRank(graph)
        oracle = ReferencePageRank(graph)
        batch_id = 0
        for covered, keep in stream:
            affected = []
            for batch_ops in covered:
                batch = _to_batch(batch_ops, batch_id, weight_salt=batch_id)
                graph.apply_batch(batch)
                affected.append(batch.unique_vertices())
                batch_id += 1
            union = np.unique(np.concatenate(affected))
            affected = union[np.asarray(keep[: len(union)], dtype=bool)]
            expected = oracle.on_batch(affected)
            assert engine.on_batch(affected) == expected
            assert engine.values == oracle.values
            assert_cache_invariant(engine)
    finally:
        _close(graph)


@pytest.mark.parametrize("kind", sorted(GRAPHS))
@given(stream=streams)
@settings(max_examples=60, deadline=None)
def test_cached_kernel_matches_reference_loop(kind, stream):
    _replay(kind, stream)


@pytest.mark.parametrize("kind", sorted(GRAPHS))
def test_omitted_degree_change_is_still_seen(kind):
    """A source whose out-degree changed but that is not in ``affected``
    must still contribute ``rank / new degree`` to the targets that pull
    it (the uncached loop read degrees live)."""
    graph = GRAPHS[kind]()
    try:
        engine = IncrementalPageRank(graph)
        oracle = ReferencePageRank(graph)
        first = make_batch([0, 1, 2], [1, 2, 0])
        graph.apply_batch(first)
        assert engine.on_batch(first.unique_vertices()) == oracle.on_batch(
            first.unique_vertices()
        )
        # 0 gains an out-edge, but only 1 is marked affected.
        graph.apply_batch(make_batch([0], [3], batch_id=1))
        assert engine.on_batch([1]) == oracle.on_batch([1])
        assert engine.values == oracle.values
        assert_cache_invariant(engine)
    finally:
        _close(graph)


@pytest.mark.parametrize("kind", sorted(GRAPHS))
def test_out_degrees_match_adjacency(kind):
    """Every structure's ``out_degrees()`` equals the adjacency-derived
    fallback of the base class, including after deletions."""
    graph = GRAPHS[kind]()
    try:
        graph.apply_batch(make_batch([0, 0, 0, 0, 5, 5, 7], [1, 2, 3, 4, 6, 1, 7]))
        graph.apply_batch(
            make_batch([0, 5, 9], [2, 6, 9], batch_id=1, is_delete=[True, True, False])
        )
        degrees = graph.out_degrees()
        assert degrees.dtype == np.int64
        assert np.array_equal(degrees, DynamicGraph.out_degrees(graph))
        assert degrees[0] == 3 and degrees[5] == 1 and degrees[9] == 1
    finally:
        _close(graph)


def _assert_round_matches(engine, oracle, affected) -> None:
    assert engine.on_batch(affected) == oracle.on_batch(affected)
    assert engine.values == oracle.values
    assert_cache_invariant(engine)


@pytest.mark.parametrize("kind", sorted(GRAPHS))
@pytest.mark.parametrize("chunk_edges, relaxations", [(3, 1), (5, 16)])
@given(stream=streams)
@settings(max_examples=40, deadline=None)
def test_small_chunks_match_reference_loop(kind, chunk_edges, relaxations, stream):
    """A chunk of a few in-edges splits every round into many chunks
    whose early edges form multi-level wavefronts; one relaxation pass
    sends every deeper chunk through the scalar level pass."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pagerank, "_CHUNK_EDGES", chunk_edges)
        mp.setattr(pagerank, "_RELAXATIONS", relaxations)
        _replay(kind, stream)


def _record_orders(mp, n: int) -> list[bool]:
    """Patch the frontier-order helpers to record, for every order they
    return, whether its size is above the ascending threshold."""
    sides = []
    for name in ("_first_order", "_next_order"):
        original = getattr(pagerank, name)

        def recording(*args, _original=original):
            order = _original(*args)
            sides.append(pagerank._set_iterates_ascending(len(order), n))
            return order

        mp.setattr(pagerank, name, recording)
    return sides


@pytest.mark.parametrize("kind", sorted(GRAPHS))
@pytest.mark.parametrize("chunk_edges", [16, 1 << 15])
def test_frontiers_on_both_sides_of_ascending_threshold(kind, chunk_edges):
    """A 300-vertex stream of random inserts, deletes and reweights whose
    frontiers are large (ascending order, no set built) in some rounds
    and small (set order) in others."""
    n = 300
    rng = np.random.default_rng(14)
    graph = GRAPHS[kind](n)
    try:
        engine = IncrementalPageRank(graph)
        oracle = ReferencePageRank(graph)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pagerank, "_CHUNK_EDGES", chunk_edges)
            sides = _record_orders(mp, n)
            for batch_id, size in enumerate((600, 3, 40, 250, 8)):
                src = rng.integers(0, n, size)
                # Skewed targets leave some vertices without in-edges.
                dst = (rng.random(size) ** 2 * n).astype(np.int64)
                weight = rng.integers(1, 9, size).astype(float)
                is_delete = rng.random(size) < (0.2 if batch_id else 0.0)
                batch = make_batch(src, dst, weight, batch_id, is_delete)
                graph.apply_batch(batch)
                _assert_round_matches(engine, oracle, batch.unique_vertices())
        assert True in sides and False in sides
    finally:
        _close(graph)


@pytest.mark.parametrize("kind", sorted(GRAPHS))
def test_directed_path_is_one_level_per_vertex(kind):
    """The worst case: on a path in id order every vertex's one in-edge
    comes from the previous position, so a chunk is as deep as it has
    edges (one sweep per vertex, past the vectorized relaxation passes)."""
    chunk_edges = 24
    n = 2 * chunk_edges + 1
    graph = GRAPHS[kind](n)
    try:
        engine = IncrementalPageRank(graph)
        oracle = ReferencePageRank(graph)
        depths = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pagerank, "_CHUNK_EDGES", chunk_edges)
            levels = pagerank._levels

            def recording(src, dst, size):
                level = levels(src, dst, size)
                depths.append(int(level.max()))
                return level

            mp.setattr(pagerank, "_levels", recording)
            path = make_batch(np.arange(n - 1), np.arange(1, n))
            graph.apply_batch(path)
            _assert_round_matches(engine, oracle, np.arange(n))
        assert max(depths) == chunk_edges > pagerank._RELAXATIONS
    finally:
        _close(graph)
