"""Oracles, run outside every timed region.

The program's final state is checked against values computed here
independently from the regenerated input stream: distinct-neighbour
degree counts, and PageRank by a dense-vector numpy power iteration.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: PageRank damping the program uses (repro.compute.pagerank).
DAMPING = 0.85
#: The incremental engine stops propagating a vertex once its change falls
#: under an absolute 1e-7 tolerance, so it lands near, not on, the fixed
#: point: on lj at 4 x 100K edges the worst vertex is 8.5% off and the L1
#: error 1.4%.  Allowed per-vertex relative error, and relative L1 error:
RANK_TOLERANCE = 0.15
RANK_L1_TOLERANCE = 0.03


class OracleError(AssertionError):
    """The program's output disagrees with the oracle."""


def regenerate(dataset: str, seed: int, batch_size: int, num_batches: int):
    """The stream prefix the program consumed, and its sha256.

    Returns:
        ``(src, dst, num_vertices, sha256_hex)``.
    """
    from repro.datasets.profiles import get_dataset

    profile = get_dataset(dataset)
    generator = profile.generator(seed=seed)
    digest = hashlib.sha256()
    srcs, dsts = [], []
    for index in range(num_batches):
        batch = generator.generate_batch(index, batch_size)
        if batch.is_delete is not None and batch.is_delete.any():
            raise OracleError("oracles support insert-only streams")
        for array in (batch.src, batch.dst, batch.weight):
            digest.update(np.ascontiguousarray(array).tobytes())
        srcs.append(batch.src)
        dsts.append(batch.dst)
    return (
        np.concatenate(srcs), np.concatenate(dsts), profile.num_vertices,
        digest.hexdigest(),
    )


def edge_digest(src, dst, weight) -> str:
    """sha256 of an edge list in send order."""
    digest = hashlib.sha256()
    for array in (src, dst, weight):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def distinct_edges(src, dst, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``(src, dst)`` pairs of an insert-only edge list."""
    keys = np.sort(np.asarray(src, np.int64) * n + np.asarray(dst, np.int64))
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    return keys // n, keys % n


def expected_degrees(src, dst, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Out- and in-degrees as distinct-neighbour counts."""
    u, v = distinct_edges(src, dst, n)
    return np.bincount(u, minlength=n), np.bincount(v, minlength=n)


def pagerank(src, dst, n: int, max_iterations: int = 1000) -> np.ndarray:
    """Power iteration to the program's fixed point::

        pr(v) = (1 - d) / N + d * sum_{u -> v} pr(u) / outdeg(u)

    with no dangling-mass redistribution, as in repro.compute.pagerank.
    """
    u, v = distinct_edges(src, dst, n)
    out_degree = np.bincount(u, minlength=n).astype(np.float64)
    base = (1.0 - DAMPING) / n
    ranks = np.full(n, base)
    for _ in range(max_iterations):
        share = ranks[u] / out_degree[u]
        new = base + DAMPING * np.bincount(v, weights=share, minlength=n)
        if np.abs(new - ranks).max() < 1e-6 * base:
            return new
        ranks = new
    raise OracleError("oracle power iteration did not converge")


def check_degrees(out_degree, in_degree, want_out, want_in) -> None:
    """Raise :class:`OracleError` unless the degrees equal the expected
    ones (from :func:`expected_degrees`)."""
    for label, got, want in (
        ("out", out_degree, want_out), ("in", in_degree, want_in),
    ):
        got = np.asarray(got)
        if got.shape != want.shape or not np.array_equal(got, want):
            bad = np.flatnonzero(got != want) if got.shape == want.shape else []
            raise OracleError(
                f"{label}-degrees differ from the stream at "
                f"{len(bad)} vertices (first: {[int(v) for v in bad[:5]]})"
            )


def check_degree_replies(replies: dict, want_out, want_in) -> None:
    """Check ``degree`` query replies ``{vertex: (out, in)}`` against the
    expected degrees."""
    bad = [v for v, (out, inn) in sorted(replies.items())
           if (out, inn) != (want_out[v], want_in[v])]
    if bad:
        raise OracleError(
            f"degree replies differ from the sent edges at {len(bad)} "
            f"vertices (first: {bad[:5]})"
        )


def check_ranks(ranks, want) -> float:
    """Raise :class:`OracleError` unless ``ranks`` are within the rank
    tolerances of ``want`` (from :func:`pagerank`); returns the worst
    relative error."""
    error = np.abs(np.asarray(ranks, dtype=np.float64) - want)
    worst = float((error / want).max())
    l1 = float(error.sum() / want.sum())
    if not (worst <= RANK_TOLERANCE and l1 <= RANK_L1_TOLERANCE):
        raise OracleError(
            f"ranks deviate from the power iteration: worst vertex "
            f"{worst:.3g} (tolerance {RANK_TOLERANCE}), L1 {l1:.3g} "
            f"(tolerance {RANK_L1_TOLERANCE})"
        )
    return worst


def check_topk(reply_ranks, want) -> float:
    """Check a ``pagerank_topk`` reply against ``want`` (from
    :func:`pagerank`): every reported value within tolerance of its
    vertex's oracle rank, and the reported set as heavy as the oracle's own
    top-k up to that tolerance."""
    vertices = np.array([v for v, _ in reply_ranks], dtype=np.int64)
    values = np.array([r for _, r in reply_ranks], dtype=np.float64)
    if len(vertices) == 0 or len(set(vertices.tolist())) != len(vertices):
        raise OracleError("pagerank_topk reply is empty or repeats a vertex")
    worst = float((np.abs(values - want[vertices]) / want[vertices]).max())
    kth_best = np.sort(want)[-len(vertices)]
    if worst > RANK_TOLERANCE or (
        want[vertices].min() < kth_best * (1.0 - 2 * RANK_TOLERANCE)
    ):
        raise OracleError(
            f"pagerank_topk disagrees with the power iteration (worst "
            f"value off by {worst:.3g}, tolerance {RANK_TOLERANCE})"
        )
    return worst
