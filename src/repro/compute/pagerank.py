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

import numpy as np

from ..errors import ConfigurationError
from ..graph.base import DynamicGraph
from ..graph.snapshot import CSRSnapshot
from .result import ComputeCounters

__all__ = ["StaticPageRank", "IncrementalPageRank"]


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

    The pull loop reads a per-vertex contribution cache instead of looking
    up each in-neighbor's out-degree per edge: ``_contrib[u]`` always equals
    ``values[u] / outdeg(u)`` (0.0 for vertices without out-edges), is
    written together with ``values[v]``, and is refreshed at each round's
    entry for every vertex whose out-degree changed since the last round.
    Each cached value is the same IEEE division a per-edge
    ``values[u] / outdeg(u)`` computes, and the pull adds contributions
    left to right in in-adjacency order, so ranks are bit-identical to a
    loop that divides per edge (``tests/test_pagerank_oracle.py`` keeps
    one as the oracle).  The cache is derived state: it is left out of
    pickles and rebuilt on first use.

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
        out_adj, in_adj = self.graph.adjacency_views()
        empty: dict[int, float] = {}
        values = self.values
        # memoryviews index to plain Python floats/ints without numpy
        # scalar boxing.
        contrib = memoryview(self._contrib)
        out_deg = memoryview(self._deg_seen)
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
            # Round 1 pushes every affected vertex's out-neighbors even when
            # its own rank is unchanged: a source that gained edges has a new
            # out-degree, so its *contribution per edge* changed and all its
            # targets must re-pull (the rank delta alone cannot see this).
            force_push = rounds == 1
            touched_vertices += len(frontier)
            for v in frontier:
                # Left-to-right accumulation in in-adjacency order is part of
                # the bit-identical contract: no sum()/fsum/np.sum here.
                total = 0.0
                in_nbrs = in_adj.get(v, empty)
                for u in in_nbrs:
                    total += contrib[u]
                touched_edges += len(in_nbrs)
                new_value = base + damping * total
                moved = force_push or abs(new_value - values[v]) > tolerance
                values[v] = new_value
                deg = out_deg[v]
                contrib[v] = new_value / deg if deg else 0.0
                if moved:
                    out_nbrs = out_adj.get(v, empty)
                    touched_edges += len(out_nbrs)
                    next_frontier.update(out_nbrs)
            frontier = next_frontier
        return ComputeCounters(
            iterations=rounds,
            touched_vertices=touched_vertices,
            touched_edges=touched_edges,
        )

    def as_array(self) -> np.ndarray:
        """Current rank vector as a numpy array."""
        return np.asarray(self.values)
