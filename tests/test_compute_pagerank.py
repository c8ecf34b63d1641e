"""PageRank: static power iteration and incremental frontier propagation."""

import pickle

import numpy as np
import pytest

from conftest import legacy_pickle, make_batch
from repro.compute.pagerank import IncrementalPageRank, StaticPageRank
from repro.errors import ConfigurationError
from repro.graph.adjacency_list import AdjacencyListGraph
from repro.graph.snapshot import take_snapshot


def _chain_graph(n=6):
    """0 -> 1 -> 2 -> ... -> n-1."""
    graph = AdjacencyListGraph(n)
    graph.apply_batch(make_batch(list(range(n - 1)), list(range(1, n))))
    return graph


def test_damping_validation():
    with pytest.raises(ConfigurationError):
        StaticPageRank(damping=1.0)
    with pytest.raises(ConfigurationError):
        IncrementalPageRank(AdjacencyListGraph(4), damping=0.0)


def test_static_two_vertex_analytic():
    """0 -> 1: pr(0) = base; pr(1) = base + d * pr(0)."""
    graph = AdjacencyListGraph(2)
    graph.apply_batch(make_batch([0], [1]))
    values, counters = StaticPageRank(damping=0.85, tolerance=1e-12).run(
        take_snapshot(graph)
    )
    base = 0.15 / 2
    assert values[0] == pytest.approx(base)
    assert values[1] == pytest.approx(base + 0.85 * base)
    assert counters.iterations >= 2
    assert counters.touched_edges > 0


def test_static_ranks_sink_of_chain_highest():
    graph = _chain_graph()
    values, __ = StaticPageRank(tolerance=1e-12).run(take_snapshot(graph))
    assert np.argmax(values) == 5
    assert (np.diff(values) > 0).all()


def test_incremental_matches_static_after_batches(small_generator):
    graph = AdjacencyListGraph(500)
    incremental = IncrementalPageRank(graph, tolerance=1e-12)
    for batch in small_generator.batches(500, 4):
        graph.apply_batch(batch)
        incremental.on_batch(batch.unique_vertices())
    static_values, __ = StaticPageRank(tolerance=1e-13, max_iterations=300).run(
        take_snapshot(graph)
    )
    np.testing.assert_allclose(incremental.as_array(), static_values, atol=1e-6)


def test_incremental_aggregated_round_matches_per_batch(small_generator):
    """OCA-aggregated recomputation reaches the same fixed point."""
    graph_a = AdjacencyListGraph(500)
    inc_a = IncrementalPageRank(graph_a, tolerance=1e-12)
    graph_b = AdjacencyListGraph(500)
    inc_b = IncrementalPageRank(graph_b, tolerance=1e-12)
    batches = [small_generator.generate_batch(i, 400) for i in range(2)]
    for batch in batches:
        graph_a.apply_batch(batch)
        inc_a.on_batch(batch.unique_vertices())
    for batch in batches:
        graph_b.apply_batch(batch)
    union = np.union1d(batches[0].unique_vertices(), batches[1].unique_vertices())
    inc_b.on_batch(union)
    np.testing.assert_allclose(inc_a.as_array(), inc_b.as_array(), atol=1e-6)


def test_aggregated_round_touches_less_than_two_rounds(small_generator):
    """The work saving OCA banks on: one union round < two rounds."""
    batches = [small_generator.generate_batch(i, 2_000) for i in range(2)]
    graph_a = AdjacencyListGraph(500)
    inc_a = IncrementalPageRank(graph_a)
    touched_separate = 0
    for batch in batches:
        graph_a.apply_batch(batch)
        touched_separate += inc_a.on_batch(batch.unique_vertices()).touched_edges
    graph_b = AdjacencyListGraph(500)
    inc_b = IncrementalPageRank(graph_b)
    for batch in batches:
        graph_b.apply_batch(batch)
    union = np.union1d(batches[0].unique_vertices(), batches[1].unique_vertices())
    touched_union = inc_b.on_batch(union).touched_edges
    assert touched_union < touched_separate


def test_incremental_counters_empty_frontier():
    graph = AdjacencyListGraph(10)
    incremental = IncrementalPageRank(graph)
    counters = incremental.on_batch([])
    assert counters.iterations == 0
    assert counters.touched_vertices == 0


def test_static_counts_iterations_and_work():
    graph = _chain_graph()
    __, counters = StaticPageRank(tolerance=1e-10).run(take_snapshot(graph))
    assert counters.touched_vertices == counters.iterations * graph.num_vertices
    assert counters.touched_edges == counters.iterations * graph.num_edges


def _ranked_engine(batches):
    graph = AdjacencyListGraph(500)
    engine = IncrementalPageRank(graph)
    for batch in batches:
        graph.apply_batch(batch)
        engine.on_batch(batch.unique_vertices())
    return engine


def test_pickle_leaves_out_contribution_cache(small_generator):
    """The contribution cache is derived state: a pickled engine is
    byte-identical to the pre-cache format, so checkpoints do not grow."""
    batches = [small_generator.generate_batch(i, 300) for i in range(3)]
    engine = _ranked_engine(batches)
    assert engine._contrib is not None
    payload = pickle.dumps(engine, protocol=pickle.HIGHEST_PROTOCOL)
    assert payload == legacy_pickle(engine)
    restored = pickle.loads(payload)
    assert restored._contrib is None and restored._deg_seen is None
    assert restored.values == engine.values


def test_legacy_pickle_resumes_bit_identical(small_generator):
    """An engine pickled without the cache attributes rebuilds them on its
    first round and continues with bit-identical ranks and counters."""
    batches = [small_generator.generate_batch(i, 300) for i in range(6)]
    engine = _ranked_engine(batches[:3])
    restored = pickle.loads(legacy_pickle(engine))
    for batch in batches[3:]:
        engine.graph.apply_batch(batch)
        restored.graph.apply_batch(batch)
        affected = batch.unique_vertices()
        assert restored.on_batch(affected) == engine.on_batch(affected)
        assert restored.values == engine.values
