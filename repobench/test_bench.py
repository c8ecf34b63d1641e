"""Self-tests for the benchmark's own code.

    python -m pytest repobench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from common import ROOT, BenchError, percentile
from oracle import (
    OracleError,
    check_degree_replies,
    check_degrees,
    check_ranks,
    expected_degrees,
    pagerank,
)
from serveload import check_schedule, visible_latencies
from workloads import END_TO_END_UNITS, PER_LAYER_UNITS


# -- percentiles -----------------------------------------------------------------


def test_p99_refused_below_1000_samples():
    with pytest.raises(BenchError, match="p99 needs at least 1000"):
        percentile(list(range(999)), 0.99)
    assert percentile(list(range(1000)), 0.99) == pytest.approx(989.01)


def test_p50_needs_20_samples():
    with pytest.raises(BenchError):
        percentile([1.0] * 19, 0.5)
    assert percentile(list(range(21)), 0.5) == 10


# -- open-loop timing ------------------------------------------------------------


def test_visible_latency_counts_from_due_time():
    # Request 0 was due at t=0 but sent late; its edges (seq 50) became
    # visible at t=0.6, so it waited 0.6 s, not 0.6 s minus the send delay.
    dues = [0.0, 0.025]
    seqs = [50, 100]
    observations = [(0.3, 0), (0.6, 50), (0.9, 100)]
    assert visible_latencies(dues, seqs, observations) == pytest.approx(
        [0.6, 0.875]
    )


def test_visible_latency_needs_every_edge_visible():
    with pytest.raises(BenchError, match="never became visible"):
        visible_latencies([0.0], [50], [(0.5, 40)])


def test_late_generator_invalidates_the_run():
    on_time = [0.001] * 1000
    assert check_schedule(on_time, 0.05) == pytest.approx(0.001)
    late = [0.001] * 980 + [0.2] * 20
    with pytest.raises(BenchError, match="invalid"):
        check_schedule(late, 0.05)


# -- oracles ----------------------------------------------------------------------


def _small_stream(num_batches=3, batch_size=2_000, seed=5):
    from repro.datasets.profiles import get_dataset

    generator = get_dataset("fb").generator(seed=seed)
    return [generator.generate_batch(i, batch_size) for i in range(num_batches)]


def _program_state(batches):
    """Run the program's pipeline (PageRank) over ``batches``."""
    from repro.pipeline.config import RunConfig

    pipeline = RunConfig(dataset="fb", batch_size=2_000).build_pipeline()
    for index, batch in enumerate(batches):
        pipeline.step(final=index == len(batches) - 1, batch=batch)
    out_adj, in_adj = pipeline.graph.adjacency_views()
    n = pipeline.graph.num_vertices
    out_degree = np.zeros(n, dtype=np.int64)
    in_degree = np.zeros(n, dtype=np.int64)
    for vertex, neighbours in out_adj.items():
        out_degree[vertex] = len(neighbours)
    for vertex, neighbours in in_adj.items():
        in_degree[vertex] = len(neighbours)
    return out_degree, in_degree, pipeline.compute.engine.as_array(), n


def _edges(batches):
    return (np.concatenate([b.src for b in batches]),
            np.concatenate([b.dst for b in batches]))


def test_oracles_accept_the_program_output():
    batches = _small_stream()
    out_degree, in_degree, ranks, n = _program_state(batches)
    src, dst = _edges(batches)
    check_degrees(out_degree, in_degree, *expected_degrees(src, dst, n))
    check_ranks(ranks, pagerank(src, dst, n))


def test_oracles_catch_a_dropped_edge():
    from repro.datasets.stream import Batch

    batches = _small_stream()
    src, dst = _edges(batches)
    # Drop one edge of the last batch whose (src, dst) pair occurs once.
    last = batches[-1]
    _, inverse, counts = np.unique(
        src * 1_000_003 + dst, return_inverse=True, return_counts=True
    )
    drop = int(np.flatnonzero(counts[inverse[-last.size:]] == 1)[0])
    keep = np.ones(last.size, dtype=bool)
    keep[drop] = False
    dropped = batches[:-1] + [Batch(
        batch_id=last.batch_id, src=last.src[keep], dst=last.dst[keep],
        weight=last.weight[keep],
    )]
    out_degree, in_degree, _, n = _program_state(dropped)
    want_out, want_in = expected_degrees(src, dst, n)
    with pytest.raises(OracleError, match="degrees differ"):
        check_degrees(out_degree, in_degree, want_out, want_in)
    vertex = int(last.src[drop])
    replies = {vertex: (int(out_degree[vertex]), int(in_degree[vertex]))}
    with pytest.raises(OracleError, match="degree replies differ"):
        check_degree_replies(replies, want_out, want_in)


def test_rank_oracle_catches_wrong_ranks():
    batches = _small_stream()
    _, _, ranks, n = _program_state(batches)
    src, dst = _edges(batches)
    want = pagerank(src, dst, n)
    wrong = ranks.copy()
    wrong[int(np.argmax(want))] *= 1.5
    with pytest.raises(OracleError, match="ranks deviate"):
        check_ranks(wrong, want)


# -- contract ---------------------------------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == [
        "run-pr", "run-ingest", "serve-live"
    ]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "repobench", tmp_path / "repobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "repobench/run.py", "--workload", "run-pr",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
