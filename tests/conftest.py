"""Shared fixtures: small, fast dataset profiles and graphs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.generators import SideProfile, StreamGenerator
from repro.datasets.profiles import DatasetProfile
from repro.datasets.stream import Batch
from repro.graph.adjacency_list import AdjacencyListGraph


def make_batch(src, dst, weight=None, batch_id=0, is_delete=None):
    """Build a batch from plain lists."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if weight is None:
        weight = np.ones(len(src), dtype=np.float64)
    else:
        weight = np.asarray(weight, dtype=np.float64)
    if is_delete is not None:
        is_delete = np.asarray(is_delete, dtype=bool)
    return Batch(batch_id=batch_id, src=src, dst=dst, weight=weight, is_delete=is_delete)


def legacy_pickle(obj) -> bytes:
    """Pickle ``obj`` in the format written before incremental PageRank
    kept a contribution cache: every engine travels as its plain attribute
    dict, minus the cache attributes (``_contrib``, ``_deg_seen``)."""
    import copyreg
    import io
    import pickle

    from repro.compute.pagerank import IncrementalPageRank

    class LegacyPickler(pickle.Pickler):
        def reducer_override(self, o):
            if type(o) is IncrementalPageRank:
                state = {
                    name: value
                    for name, value in vars(o).items()
                    if name not in ("_contrib", "_deg_seen")
                }
                return copyreg.__newobj__, (IncrementalPageRank,), state
            return NotImplemented

    buffer = io.BytesIO()
    LegacyPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buffer.getvalue()


@pytest.fixture
def tiny_graph():
    """A 32-vertex empty adjacency-list graph."""
    return AdjacencyListGraph(32)


@pytest.fixture
def skewed_profile():
    """A small reorder-friendly profile (one dominant hub)."""
    return DatasetProfile(
        name="mini-skew",
        full_name="Mini Skewed",
        kind="shuffled",
        paper_vertices=1000,
        paper_edges=10000,
        num_vertices=2_000,
        stream_edges=50_000,
        src_profile=SideProfile(hub_mass=0.1, hub_count=50, hub_alpha=0.3, tail_size=1_900),
        dst_profile=SideProfile(hub_mass=0.4, hub_count=20, hub_alpha=1.5, tail_size=1_900),
        friendly_sizes=frozenset({5_000}),
    )


@pytest.fixture
def flat_profile():
    """A small reorder-adverse profile (near-uniform degrees)."""
    return DatasetProfile(
        name="mini-flat",
        full_name="Mini Flat",
        kind="shuffled",
        paper_vertices=1000,
        paper_edges=10000,
        num_vertices=4_000,
        stream_edges=50_000,
        src_profile=SideProfile(hub_mass=0.0, hub_count=0, hub_alpha=0.0, tail_size=4_000),
        dst_profile=SideProfile(hub_mass=0.0, hub_count=0, hub_alpha=0.0, tail_size=4_000),
    )


@pytest.fixture
def small_generator():
    """A deterministic generator over 500 vertices."""
    return StreamGenerator(
        src_profile=SideProfile(hub_mass=0.2, hub_count=10, hub_alpha=1.0, tail_size=490),
        dst_profile=SideProfile(hub_mass=0.3, hub_count=10, hub_alpha=1.2, tail_size=490),
        num_vertices=500,
        seed=13,
    )
