"""Golden parity: the staged/registry pipeline reproduces the pre-refactor
record bit-for-bit.

``tests/golden/pipeline_parity.json`` was captured from the pipeline
*before* the RunConfig / registry / staged-runner refactor.  Every cell of
the fixed-seed mini-matrix (all execution modes on two dataset profiles,
plus OCA, static-algorithm and SSSP cells) must still serialize to exactly
the recorded floats — any refactor of the dispatch or staging layers that
perturbs modeled results, even in the last bit, fails here.  Incremental
PageRank cells also pin the sha256 of the final rank vector (added later,
captured before the contribution-cache kernel), so compute-kernel work is
guarded on the ranks themselves and not only on modeled time.

Regenerate the record only when an intentional model change lands::

    PYTHONPATH=src:tests python tests/golden/capture_parity.py
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.compute.oca import OCAConfig
from repro.pipeline.config import RunConfig

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location(
    "capture_parity", GOLDEN_DIR / "capture_parity.py"
)
capture_parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture_parity)

GOLDEN = json.loads((GOLDEN_DIR / "pipeline_parity.json").read_text())
CELLS = capture_parity.cell_definitions()


def config_for(cell: dict) -> RunConfig:
    """The RunConfig equivalent of one golden cell definition."""
    kwargs = {
        key: cell[key]
        for key in ("pr_tolerance", "pr_max_rounds")
        if key in cell
    }
    if cell.get("use_oca"):
        kwargs["use_oca"] = True
        kwargs["oca"] = OCAConfig(overlap_threshold=0.01, n=2)
    return RunConfig(
        dataset=cell["dataset"],
        batch_size=cell["batch_size"],
        algorithm=cell["algorithm"],
        mode=cell["mode"],
        num_batches=cell["num_batches"],
        **kwargs,
    )


def serialize(metrics) -> dict:
    """RunMetrics in the golden record's exact shape."""
    return {
        "mode": metrics.mode,
        "batches": [
            {
                "batch_id": b.batch_id,
                "update_time": b.update_time,
                "compute_time": b.compute_time,
                "strategy": b.strategy,
                "deferred": b.deferred,
                "aggregated_batches": b.aggregated_batches,
                "cad": b.cad,
                "overlap": b.overlap,
            }
            for b in metrics.batches
        ],
    }


def assert_matches_golden(config: RunConfig, cell: dict) -> None:
    """Run ``config`` and compare its RunMetrics and final PR ranks with
    the golden record of ``cell``."""
    pipeline = config.build_pipeline()
    try:
        metrics = pipeline.run(config.num_batches)
        ranks = capture_parity.rank_sha256(pipeline)
    finally:
        close = getattr(pipeline, "close", None)
        if close is not None:  # sharded pipelines own worker processes
            close()
    expected = dict(GOLDEN[capture_parity.cell_key(cell)])
    expected_ranks = expected.pop("rank_sha256", None)
    # JSON round-trip our side too so float comparison is repr-exact on
    # both: identical modeled results serialize to identical documents.
    assert json.loads(json.dumps(serialize(metrics))) == expected
    assert ranks == expected_ranks


def test_golden_covers_every_cell():
    assert set(GOLDEN) == {capture_parity.cell_key(cell) for cell in CELLS}


def test_golden_pins_ranks_of_every_pr_cell():
    for cell in CELLS:
        record = GOLDEN[capture_parity.cell_key(cell)]
        assert ("rank_sha256" in record) == (cell["algorithm"] == "pr")


@pytest.mark.parametrize("adjacency", ["dict", "hybrid"])
@pytest.mark.parametrize(
    "cell", CELLS, ids=[capture_parity.cell_key(c) for c in CELLS]
)
def test_cell_matches_golden(cell, adjacency):
    """The golden record is adjacency-format-invariant: the hybrid format
    must serialize to the exact floats recorded with per-vertex dicts —
    the format is a wall-clock lever, never a modeled-results change."""
    import dataclasses

    config = dataclasses.replace(config_for(cell), adjacency=adjacency)
    assert_matches_golden(config, cell)


_FB_CELLS = [c for c in CELLS if c["dataset"] == "fb"]


@pytest.mark.parametrize("adjacency", ["dict", "hybrid"])
@pytest.mark.parametrize(
    "cell", _FB_CELLS,
    ids=[capture_parity.cell_key(c) for c in _FB_CELLS],
)
def test_cell_matches_golden_sharded(cell, adjacency):
    """The golden record is shard-count-invariant: vertex-partitioned
    execution (num_shards=2) must serialize to the exact same floats as
    the recorded serial runs — sharding is a wall-clock lever, never a
    modeled-results change.  Parametrized over the worker-side adjacency
    format too: shard workers must be format-invariant as well."""
    import dataclasses

    config = dataclasses.replace(
        config_for(cell), num_shards=2, adjacency=adjacency
    )
    assert_matches_golden(config, cell)


_TRANSPORTS = ["inproc", "shm", "tcp"]
_POLICIES = ["mod", "hash", "greedy"]


@pytest.mark.parametrize("policy", _POLICIES)
@pytest.mark.parametrize("transport", _TRANSPORTS)
@pytest.mark.parametrize("adjacency", ["dict", "hybrid"])
def test_matrix_gate_transport_policy_two_shards(transport, policy, adjacency):
    """The standing matrix gate: every (transport x policy x adjacency)
    combination serializes to the exact golden floats at num_shards=2.
    Transports move bytes and policies move vertices; neither may move a
    modeled result by even the last bit."""
    import dataclasses

    cell = CELLS[3]  # fb / abr_usc — the representative acceptance cell
    config = dataclasses.replace(
        config_for(cell), num_shards=2, adjacency=adjacency,
        shard_transport=transport, shard_policy=policy,
    )
    assert_matches_golden(config, cell)


@pytest.mark.parametrize("policy", _POLICIES)
@pytest.mark.parametrize("transport", _TRANSPORTS)
def test_matrix_gate_transport_policy_four_shards(transport, policy):
    """The acceptance shard count: the same gate at num_shards=4."""
    import dataclasses

    cell = CELLS[3]
    config = dataclasses.replace(
        config_for(cell), num_shards=4,
        shard_transport=transport, shard_policy=policy,
    )
    assert_matches_golden(config, cell)


@pytest.mark.parametrize(
    "cell",
    [CELLS[3], CELLS[9]],  # fb/abr_usc and fb/abr_usc+OCA
    ids=["abr_usc_telemetry", "abr_usc_oca_telemetry"],
)
def test_full_telemetry_never_perturbs_modeled_results(cell):
    """Instrumentation is observation-only: a fully-instrumented run must
    serialize to the exact golden floats of the uninstrumented record."""
    import dataclasses

    config = dataclasses.replace(config_for(cell), telemetry="full")
    assert_matches_golden(config, cell)


@pytest.mark.parametrize(
    "cell",
    [CELLS[3], CELLS[9]],  # fb/abr_usc and fb/abr_usc+OCA
    ids=["abr_usc", "abr_usc_oca"],
)
def test_step_loop_matches_run(cell):
    """Driving the public step() API by hand reproduces run() exactly."""
    config = config_for(cell)
    via_run = serialize(config.run())
    pipeline = config.build_pipeline()
    nb = cell["num_batches"]
    for index in range(nb):
        pipeline.step(final=index == nb - 1)
    assert serialize(pipeline.metrics) == via_run
