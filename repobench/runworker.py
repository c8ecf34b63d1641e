"""Program process for the ``run-*`` workloads.

Builds the run exactly as ``repro run`` does (``RunConfig.from_cli_args``
over the CLI parser, ``build_pipeline``, ``pipeline.run``), times the
fixed stream prefix, and leaves the final graph state for the oracles.

    python runworker.py WORKLOAD SEED OUT_PREFIX [--setup-only] [--trace]

Writes ``OUT_PREFIX.json`` (timings) and, unless ``--setup-only``,
``OUT_PREFIX.npz`` (final out/in degrees, and ranks for PageRank).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time

import numpy as np


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.cli import build_parser
    from repro.pipeline.config import RunConfig
    from workloads import RUN_WORKLOADS

    cli_args = build_parser().parse_args(RUN_WORKLOADS[args.workload]["argv"])
    config = dataclasses.replace(
        RunConfig.from_cli_args(cli_args), seed=args.seed
    )
    tracer = None
    if args.trace:
        from tracer import Tracer, install_layer_tracing

        tracer = Tracer()
        install_layer_tracing(tracer, config)
    pipeline = config.build_pipeline()
    result = {"ready": time.monotonic(), "config": config.to_dict()}
    if not args.setup_only:
        started = time.perf_counter()
        metrics = pipeline.run(config.num_batches)
        result["wall_s"] = time.perf_counter() - started
        result["batches"] = metrics.num_batches
        result["edges"] = int(config.num_batches * config.batch_size)
        if tracer is not None:
            result["trace"] = tracer.to_json()
        out_adj, in_adj = pipeline.graph.adjacency_views()
        n = pipeline.graph.num_vertices
        state = {
            "out_degree": _degrees(out_adj, n),
            "in_degree": _degrees(in_adj, n),
        }
        engine = getattr(pipeline.compute, "engine", None)
        if config.algorithm == "pr" and engine is not None:
            state["ranks"] = engine.as_array()
        np.savez(args.out + ".npz", **state)
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _degrees(adjacency, n):
    degrees = np.zeros(n, dtype=np.int64)
    for vertex, neighbours in adjacency.items():
        degrees[vertex] = len(neighbours)
    return degrees


if __name__ == "__main__":
    main()
