"""Capture the pipeline-parity golden record.

Runs a fixed-seed mini-matrix (every execution mode on two dataset
profiles, plus OCA / static-algorithm / SSSP cells) and records each run's
per-batch ``RunMetrics`` exactly, plus — for incremental PageRank cells —
the sha256 of the final rank vector.  ``tests/test_pipeline_parity.py`` pins
the live pipeline against this record, so any refactor of the dispatch,
staging or compute layers that perturbs modeled results or ranks — even in
the last float bit — is caught.

Regenerate (only when an intentional model change lands)::

    PYTHONPATH=src:tests python tests/golden/capture_parity.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "pipeline_parity.json"

#: (dataset, batch_size, num_batches, algorithm, mode, use_oca) cells.
#: Every mode runs with "pr"; extra cells cover OCA deferral, the static
#: algorithms (with their tolerance/rounds settings pinned explicitly) and
#: incremental SSSP.
MODE_LIST = (
    "baseline",
    "always_ro",
    "abr",
    "abr_usc",
    "perfect_abr",
    "perfect_abr_usc",
    "sw_only",
    "hw_only",
    "dynamic",
)

PROFILES = (("fb", 500, 4), ("wiki", 1_000, 3))


def cell_definitions() -> list[dict]:
    cells = []
    for dataset, batch_size, num_batches in PROFILES:
        base = {
            "dataset": dataset,
            "batch_size": batch_size,
            "num_batches": num_batches,
        }
        for mode in MODE_LIST:
            cells.append({**base, "algorithm": "pr", "mode": mode})
        cells.append(
            {**base, "algorithm": "pr", "mode": "abr_usc", "use_oca": True}
        )
        cells.append(
            {
                **base,
                "algorithm": "pr_static",
                "mode": "baseline",
                "pr_tolerance": 1e-7,
                "pr_max_rounds": 50,
            }
        )
        cells.append({**base, "algorithm": "sssp", "mode": "baseline"})
    return cells


def cell_key(cell: dict) -> str:
    return (
        f"{cell['dataset']}:{cell['batch_size']}:{cell['num_batches']}:"
        f"{cell['algorithm']}:{cell['mode']}:oca={cell.get('use_oca', False)}"
    )


def rank_sha256(pipeline) -> str | None:
    """sha256 of the pipeline's final incremental-PageRank rank vector
    (float64 bytes in vertex order), or None when the cell runs no
    incremental PageRank."""
    import numpy as np

    engine = pipeline._incremental_pr
    if engine is None:
        return None
    ranks = np.asarray(engine.values, dtype=np.float64)
    return hashlib.sha256(ranks.tobytes()).hexdigest()


def run_cell(cell: dict) -> dict:
    """Run one cell with a fresh pipeline and serialize its RunMetrics."""
    from repro.compute.oca import OCAConfig
    from repro.datasets.profiles import get_dataset
    from repro.exec_model.machine import SIMULATED_MACHINE
    from repro.pipeline.modes import resolve_mode
    from repro.pipeline.runner import StreamingPipeline

    policy = resolve_mode(cell["mode"])
    needs_hau = cell["mode"] in ("hw_only", "dynamic")
    kwargs = {}
    if needs_hau:
        from repro.hau.simulator import HAUSimulator

        kwargs["hau"] = HAUSimulator()
        kwargs["machine"] = SIMULATED_MACHINE
    if cell.get("use_oca"):
        kwargs["use_oca"] = True
        kwargs["oca_config"] = OCAConfig(overlap_threshold=0.01, n=2)
    if "pr_tolerance" in cell:
        kwargs["pr_tolerance"] = cell["pr_tolerance"]
    if "pr_max_rounds" in cell:
        kwargs["pr_max_rounds"] = cell["pr_max_rounds"]
    pipeline = StreamingPipeline(
        get_dataset(cell["dataset"]),
        cell["batch_size"],
        algorithm=cell["algorithm"],
        policy=policy,
        **kwargs,
    )
    metrics = pipeline.run(cell["num_batches"])
    record = {
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
    ranks = rank_sha256(pipeline)
    if ranks is not None:
        record["rank_sha256"] = ranks
    return record


def capture() -> dict:
    return {cell_key(cell): run_cell(cell) for cell in cell_definitions()}


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
