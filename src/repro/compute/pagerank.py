"""PageRank: static (GAP-style) and incremental (frontier-based).

Both variants compute the same fixed point::

    pr(v) = (1 - d) / N + d * sum_{u in in(v)} pr(u) / outdeg(u)

without dangling-mass redistribution (the convention of the incremental
streaming-graph computation models the paper builds on, where contributions
flow only along existing edges), so the incremental engine converges to the
static solution and tests can cross-check them.

* :class:`StaticPageRank` re-runs power iteration from scratch on a CSR
  snapshot each round ("start-from-scratch" in Section 6.1).
* :class:`IncrementalPageRank` keeps rank state across batches and, per
  round, propagates changes outward from the *affected* vertices (the
  endpoints of the batch's edges) until ranks stop moving — the incremental
  model of Kineograph/KickStarter-style systems the paper cites.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, repeat

import numpy as np

from ..arrays import sorted_unique
from ..errors import ConfigurationError
from ..graph.base import DynamicGraph
from ..graph.snapshot import CSRSnapshot
from .result import ComputeCounters

__all__ = ["StaticPageRank", "IncrementalPageRank"]

#: Most in-edges one wavefront chunk of :meth:`IncrementalPageRank.on_batch`
#: pulls at once (a vertex with more gets a chunk of its own); also the
#: block size of the per-call dict copies and the rank write-back.
_CHUNK_EDGES = 1 << 15

#: Vectorized passes :func:`_levels` makes before finishing a deeper chunk
#: with one scalar pass.
_RELAXATIONS = 16

_EMPTY: dict[int, float] = {}


def _set_iterates_ascending(count: int, n: int) -> bool:
    """Whether every CPython set of ``count`` distinct ints in ``[0, n)``
    iterates in ascending order, however it was built.

    ``set_add_entry`` in ``Objects/setobject.c`` resizes unless
    ``fill*5 < mask*3`` after each insert, so a set that never lost an
    element has ``mask >= 5*count//3 + 1``.  Once that reaches ``n - 1``
    every id hashes to its own slot, and iteration walks the slots in
    order.
    """
    return 5 * count // 3 + 1 >= n - 1


def _first_order(affected, n: int) -> np.ndarray:
    """Round 1's frontier, in the order ``set(int(v) for v in affected)``
    iterates it."""
    if isinstance(affected, np.ndarray):
        ids = affected.astype(np.int64)
    else:
        ids = np.fromiter(map(int, affected), dtype=np.int64)
    distinct = sorted_unique(ids)
    if _set_iterates_ascending(len(distinct), n):
        return distinct
    return np.fromiter(set(ids.tolist()), dtype=np.int64, count=len(distinct))


def _next_order(moved: np.ndarray, out_edges: int, out_runs, n: int) -> np.ndarray:
    """The next round's frontier: the out-neighbors of the ``moved``
    vertices, in the order in which a set built by ``update(out_adj[v])``
    for each of them in turn iterates.

    ``out_edges`` (their out-degree sum) bounds the distinct count, so a
    round that cannot reach the ascending threshold, as most of a small
    batch's rounds cannot, builds the set without marking a mask first.
    """
    if _set_iterates_ascending(min(out_edges, n), n):
        degrees = out_runs.degrees(moved)
        reached = np.zeros(n, dtype=bool)
        for start, stop in _chunks(degrees):
            reached[out_runs.gather(moved[start:stop], degrees[start:stop])] = True
        if _set_iterates_ascending(int(np.count_nonzero(reached)), n):
            return np.flatnonzero(reached)
    frontier: set[int] = set()
    for start in range(0, len(moved), _CHUNK_EDGES):
        block = moved[start : start + _CHUNK_EDGES].tolist()
        deque(map(frontier.update, map(out_runs.adj.get, block, repeat(_EMPTY))), 0)
    return np.fromiter(frontier, dtype=np.int64, count=len(frontier))


def _chunks(degrees: np.ndarray):
    """Consecutive ``(start, stop)`` runs of vertices with at most
    ``_CHUNK_EDGES`` edges between them (a heavier vertex runs alone)."""
    ends = np.cumsum(degrees)
    start = 0
    while start < len(degrees):
        limit = (int(ends[start - 1]) if start else 0) + _CHUNK_EDGES
        stop = max(start + 1, int(np.searchsorted(ends, limit, "right")))
        yield start, stop
        start = stop


def _levels(src: np.ndarray, dst: np.ndarray, size: int) -> np.ndarray:
    """Wavefront level of each chunk vertex: 0 without early in-edges,
    else one more than the deepest early in-neighbor.

    ``src``/``dst`` are the early edges as chunk-local indices, with
    ``src < dst`` and sorted by ``dst``.  All edges relax at once until
    nothing changes (one pass per level); past ``_RELAXATIONS`` passes one
    scalar pass in edge order finishes, exact because every edge into a
    source comes before the source's own out-edges.
    """
    level = np.zeros(size, dtype=np.int64)
    heads = np.flatnonzero(np.diff(dst, prepend=-1))
    targets = dst[heads]
    for _ in range(_RELAXATIONS):
        deeper = np.maximum.reduceat(level[src], heads) + 1
        if np.array_equal(deeper, level[targets]):
            break
        level[targets] = deeper
    else:
        scalar = level.tolist()
        for u, v in zip(src.tolist(), dst.tolist()):
            if scalar[u] >= scalar[v]:
                scalar[v] = scalar[u] + 1
        level = np.array(scalar)
    # A level is at most the early-edge count (<= _CHUNK_EDGES), and
    # uint16 keys take numpy's radix sort.
    return level.astype(np.uint16)


class _NeighborRuns:
    """One direction's neighbor ids, copied out of the adjacency dicts at
    most once per :meth:`IncrementalPageRank.on_batch` call (the graph does
    not change during one) and kept as int32 runs in one buffer.

    Only vertices a round visits are copied, in blocks of
    ``_CHUNK_EDGES`` vertices so the transient Python ints stay small.
    """

    def __init__(self, adj, n: int, capacity: int):
        self.adj = adj
        self._start = np.full(n, -1, dtype=np.int64)
        self._deg = np.zeros(n, dtype=np.int32)
        self._ids = np.empty(capacity, dtype=np.int32)
        self._used = 0

    def degrees(self, verts: np.ndarray) -> np.ndarray:
        """Degrees of ``verts``, copying in the runs not yet held."""
        missing = verts[self._start[verts] < 0]
        for first in range(0, len(missing), _CHUNK_EDGES):
            block = missing[first : first + _CHUNK_EDGES]
            lists = list(map(self.adj.get, block.tolist(), repeat(_EMPTY)))
            deg = np.fromiter(map(len, lists), dtype=np.int64, count=len(block))
            used = self._used
            total = int(deg.sum())
            if used + total > len(self._ids):
                grown = np.empty(max(2 * len(self._ids), used + total), dtype=np.int32)
                grown[:used] = self._ids[:used]
                self._ids = grown
            self._ids[used : used + total] = np.fromiter(
                chain.from_iterable(lists), dtype=np.int32, count=total
            )
            self._start[block] = used + np.cumsum(deg) - deg
            self._deg[block] = deg
            self._used = used + total
        return self._deg[verts]

    def gather(self, verts: np.ndarray, deg: np.ndarray) -> np.ndarray:
        """The runs of ``verts`` (held, with degrees ``deg``) back to back."""
        shift = self._start[verts] - (np.cumsum(deg) - deg)
        return self._ids[np.repeat(shift, deg) + np.arange(int(deg.sum()))]


class StaticPageRank:
    """Power-iteration PageRank over a CSR snapshot.

    Args:
        damping: the damping factor ``d``.
        tolerance: L1 change per vertex below which iteration stops.
        max_iterations: safety cap.
    """

    def __init__(
        self,
        damping: float = 0.85,
        tolerance: float = 1e-8,
        max_iterations: int = 100,
    ):
        if not 0 < damping < 1:
            raise ConfigurationError(f"damping must be in (0,1), got {damping}")
        self.damping = damping
        self.tolerance = tolerance
        self.max_iterations = max_iterations

    def run(self, snapshot: CSRSnapshot) -> tuple[np.ndarray, ComputeCounters]:
        """Compute ranks; returns (values, work counters)."""
        n = snapshot.num_vertices
        base = (1.0 - self.damping) / n
        values = np.full(n, base)
        out_deg = snapshot.out_degrees().astype(np.float64)
        safe_deg = np.maximum(out_deg, 1.0)
        touched_edges = 0
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            contrib = np.where(out_deg > 0, values / safe_deg, 0.0)
            per_edge = np.repeat(contrib, snapshot.out_degrees())
            new_values = base + self.damping * np.bincount(
                snapshot.out_targets, weights=per_edge, minlength=n
            )
            touched_edges += snapshot.num_edges
            delta = float(np.abs(new_values - values).sum())
            values = new_values
            if delta < self.tolerance * n:
                break
        counters = ComputeCounters(
            iterations=iterations,
            touched_vertices=iterations * n,
            touched_edges=touched_edges,
        )
        return values, counters


class IncrementalPageRank:
    """Frontier-based incremental PageRank over a dynamic graph.

    State persists across batches; each :meth:`on_batch` call localizes the
    recomputation around the affected vertices.

    The pull reads a per-vertex contribution cache instead of looking up
    each in-neighbor's out-degree per edge: ``_contrib[u]`` always equals
    ``values[u] / outdeg(u)`` (0.0 for vertices without out-edges), is
    written together with ``values[v]``, and is refreshed at each round's
    entry for every vertex whose out-degree changed since the last round.
    The cache is derived state: it is left out of pickles and rebuilt on
    first use.

    Each frontier round is Gauss-Seidel in set order: the vertex at
    position ``i`` of ``for v in frontier`` reads the contributions written
    earlier in the round by positions ``< i``, and the round-start value
    of everyone else.  :meth:`on_batch` runs that same arithmetic as numpy
    sweeps (see :meth:`_sweep`): it gets the frontier's iteration order
    without walking the set, pulls position-ordered chunks of at most
    ``_CHUNK_EDGES`` in-edges, and inside a chunk updates vertices level
    by level, where a vertex's level is one more than the deepest of its
    *early* in-neighbors (earlier positions in the same chunk).  Each sum
    is a ``bincount`` that adds left to right from 0.0 in in-adjacency
    order, so ranks, counters and pickles are bit-identical to the scalar
    loop (``tests/test_pagerank_oracle.py`` keeps one as the oracle).

    Args:
        graph: the dynamic graph the pipeline maintains.
        damping: damping factor.
        tolerance: per-vertex rank change below which propagation stops.
        max_rounds: frontier-round safety cap.
    """

    def __init__(
        self,
        graph: DynamicGraph,
        damping: float = 0.85,
        tolerance: float = 1e-7,
        max_rounds: int = 100,
    ):
        if not 0 < damping < 1:
            raise ConfigurationError(f"damping must be in (0,1), got {damping}")
        self.graph = graph
        self.damping = damping
        self.tolerance = tolerance
        self.max_rounds = max_rounds
        self._base = (1.0 - damping) / graph.num_vertices
        self.values: list[float] = [self._base] * graph.num_vertices
        self._contrib: np.ndarray | None = None
        self._deg_seen: np.ndarray | None = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_contrib"], state["_deg_seen"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._contrib = None
        self._deg_seen = None

    def _refresh_contrib(self) -> None:
        """Bring the contribution cache in line with the current out-degrees.

        Only vertices whose out-degree changed since the last round are
        rewritten, whether or not they are in this round's affected set.
        """
        degrees = self.graph.out_degrees()
        if self._contrib is None:
            self._deg_seen = degrees.copy()
            self._contrib = np.zeros(self.graph.num_vertices)
            self._write_contrib(np.flatnonzero(degrees))
            return
        changed = np.flatnonzero(degrees != self._deg_seen)
        if len(changed):
            self._deg_seen[changed] = degrees[changed]
            self._contrib[changed] = 0.0
            self._write_contrib(changed[degrees[changed] > 0])

    def _write_contrib(self, verts: np.ndarray) -> None:
        """``contrib[v] = values[v] / outdeg(v)`` for ``verts`` (all with
        out-edges); float64 division, so bit-equal to the scalar one."""
        ranks = np.fromiter(
            map(self.values.__getitem__, verts.tolist()),
            dtype=np.float64,
            count=len(verts),
        )
        self._contrib[verts] = ranks / self._deg_seen[verts]

    def on_batch(self, affected) -> ComputeCounters:
        """Propagate rank changes outward from the affected vertices.

        Args:
            affected: iterable of vertex ids whose incident edges changed
                (for OCA-aggregated rounds, the union over the covered
                batches).

        Returns:
            Work counters of this round.
        """
        self._refresh_contrib()
        n = self.graph.num_vertices
        out_adj, in_adj = self.graph.adjacency_views()
        in_runs = _NeighborRuns(in_adj, n, self.graph.num_edges)
        out_runs = _NeighborRuns(out_adj, n, self.graph.num_edges)
        ranks = np.array(self.values)
        written = np.zeros(n, dtype=bool)
        # Position of each vertex in the round's order; n = not in it.
        pos = np.full(n, n, dtype=np.int64)
        order = _first_order(affected, n)
        touched_vertices = 0
        touched_edges = 0
        rounds = 0
        while len(order) and rounds < self.max_rounds:
            rounds += 1
            touched_vertices += len(order)
            written[order] = True
            pos[order] = np.arange(len(order))
            in_deg = in_runs.degrees(order)
            touched_edges += int(in_deg.sum())
            moved = np.concatenate([
                self._sweep(
                    order[start:stop],
                    start,
                    in_runs.gather(order[start:stop], in_deg[start:stop]),
                    in_deg[start:stop],
                    pos,
                    ranks,
                    # Round 1 pushes every affected vertex's out-neighbors
                    # even when its own rank is unchanged: a source that
                    # gained edges has a new out-degree, so its
                    # *contribution per edge* changed and all its targets
                    # must re-pull (the rank delta alone cannot see this).
                    force_push=rounds == 1,
                )
                for start, stop in _chunks(in_deg)
            ])
            pos[order] = n
            # The out-degrees seen this call equal the out-dict lengths.
            out_edges = int(self._deg_seen[moved].sum())
            touched_edges += out_edges
            order = _next_order(moved, out_edges, out_runs, n)
        self._write_back(ranks, written)
        return ComputeCounters(
            iterations=rounds,
            touched_vertices=touched_vertices,
            touched_edges=touched_edges,
        )

    def _sweep(self, verts, first, nbrs, in_deg, pos, ranks, force_push):
        """Update the chunk ``verts`` at round positions ``first`` on.

        ``nbrs`` holds their in-neighbors back to back (``in_deg`` each).
        Contributions from earlier chunks and from later positions are
        read once at chunk start; each level then re-reads its early
        edges, sums and writes its vertices' contributions.  Returns the
        vertices that moved, in position order.
        """
        contrib = self._contrib
        size = len(verts)
        owner = np.repeat(np.arange(size), in_deg)
        src = pos[nbrs] - first
        early = (src >= 0) & (src < owner)
        level = _levels(src[early], owner[early], size)
        # Lay vertices and edges out level by level; the stable sorts keep
        # each level's vertices in position order and their edges in
        # in-adjacency order.
        by_level = np.argsort(level, kind="stable")
        level_sizes = np.bincount(level)
        vertex_ends = np.cumsum(level_sizes)
        # Index of each vertex among the vertices of its level.
        slot = np.empty(size, dtype=np.int64)
        slot[by_level] = np.arange(size) - np.repeat(vertex_ends - level_sizes, level_sizes)
        edge_level = level[owner]
        edge_ends = np.cumsum(np.bincount(edge_level, minlength=len(level_sizes)))
        by_edge = np.argsort(edge_level, kind="stable")
        nbrs = nbrs[by_edge]
        owner_slot = slot[owner[by_edge]]
        early = early[by_edge]
        pulled = contrib[nbrs]
        level_verts = verts[by_level]
        degrees = self._deg_seen[level_verts]
        has_out = degrees > 0
        new_values = np.empty(size)
        vertex_start = edge_start = 0
        for vertex_end, edge_end in zip(vertex_ends.tolist(), edge_ends.tolist()):
            edges = slice(edge_start, edge_end)
            if vertex_start:  # level 0 has no early edges
                reread = np.flatnonzero(early[edges]) + edge_start
                pulled[reread] = contrib[nbrs[reread]]
            # bincount adds each bin's weights left to right from 0.0: the
            # same sum as ``total += contrib[u]`` in in-adjacency order.
            # Never np.sum / np.add.reduceat (pairwise) or fsum / sum()
            # (compensated from Python 3.12).
            totals = np.bincount(
                owner_slot[edges],
                weights=pulled[edges],
                minlength=vertex_end - vertex_start,
            )
            level_values = new_values[vertex_start:vertex_end]
            level_values[:] = self._base + self.damping * totals
            contrib[level_verts[vertex_start:vertex_end]] = np.divide(
                level_values,
                degrees[vertex_start:vertex_end],
                out=np.zeros(vertex_end - vertex_start),
                where=has_out[vertex_start:vertex_end],
            )
            vertex_start, edge_start = vertex_end, edge_end
        if force_push:
            moved = verts
        else:
            moved_by_level = np.abs(new_values - ranks[level_verts]) > self.tolerance
            moved = verts[np.sort(by_level[moved_by_level])]
        ranks[level_verts] = new_values
        return moved

    def _write_back(self, ranks: np.ndarray, written: np.ndarray) -> None:
        """Store the ranks of the ``written`` vertices into :attr:`values`
        as Python floats: numpy scalars would compare equal but pickle to
        other bytes, and checkpoints must not change."""
        values = self.values
        written = np.flatnonzero(written)
        for start in range(0, len(written), _CHUNK_EDGES):
            block = written[start : start + _CHUNK_EDGES]
            deque(map(values.__setitem__, block.tolist(), ranks[block].tolist()), 0)

    def as_array(self) -> np.ndarray:
        """Current rank vector as a numpy array."""
        return np.asarray(self.values)
