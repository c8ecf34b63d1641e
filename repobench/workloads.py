"""The benchmark's workloads as data: each is a fixed amount of work.

Every workload runs the program at its defaults (dict adjacency,
``abr_usc``, ``REPRO_*`` environment stripped) except for the options
named here.  See NOTES.md for why each was chosen.
"""

from __future__ import annotations

#: ``repro run`` workloads: CLI arguments and a fixed stream prefix.  The
#: stream generator seed is the benchmark's ``--seed``.
RUN_WORKLOADS: dict[str, dict] = {
    # The paper's update+compute configuration: compute dominates.
    "run-pr": {
        "argv": ["run", "lj", "--batch-size", "100000", "--algorithm", "pr",
                 "--oca", "--num-batches", "4"],
    },
    # Update layer only: every batch takes ABR's reorder+usc path.
    "run-ingest": {
        "argv": ["run", "wiki", "--batch-size", "100000", "--algorithm",
                 "none", "--num-batches", "30"],
    },
}

#: ``repro serve`` workload: server arguments and the open-loop schedule.
SERVE_WORKLOAD: dict = {
    "argv": ["serve", "fb"],
    "dataset": "fb",
    # Open loop for --seconds, below the knee (NOTES.md): 40 edge
    # requests/s of 50 edges (2000 edges/s) on one connection, 36 queries/s
    # on the other; both reach the 1000 samples a p99 needs in 30 s.
    "request_rate": 40.0,
    "request_edges": 50,
    "query_rate": 36.0,
    "topk": 10,
    # Then a fixed burst, sent at once.  Requests of 2500 edges fill a
    # 10K micro-batch in 4 appends, well inside the 250 ms flush interval,
    # so the burst is cut at the same 10K boundaries on every run.
    "burst_edges": 160_000,
    "burst_request_edges": 2500,
    # Vertices whose degrees are queried open-loop and checked at the end.
    "degree_sample": 256,
    # The run is invalid when the open-loop generator ran later than this
    # (p99), or when more than this many seconds of offered edges were
    # still invisible as the open loop ended (a growing backlog).
    "late_p99_limit_s": 0.05,
    "backlog_limit_s": 2.0,
}

WORKLOADS = (*RUN_WORKLOADS, "serve-live")

#: End-to-end metrics (untraced runs, every workload) and their units.
END_TO_END_UNITS: dict[str, str] = {
    "setup_s": "s",
    "edges_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs) and their units.
PER_LAYER_UNITS: dict[str, str] = {
    "datasets.generate_s": "s",
    "graph.apply_s": "s",
    "graph.apply_ns_per_edge": "ns",
    "graph.views_calls": "count",
    "update.ingest_s": "s",
    "update.self_s": "s",
    "update.ro_share": "ratio",
    "update.abr_active_share": "ratio",
    "oca.observe_s": "s",
    "oca.deferred_share": "ratio",
    "compute.round_s": "s",
    "compute.rounds": "count",
    "compute.iterations": "count",
    "compute.touched_edges": "count",
    "compute.ns_per_touched_edge": "ns",
    "compute.share": "ratio",
    "pipeline.step_s": "s",
    "pipeline.self_s": "s",
    # serve-live only (0 on the run-* workloads):
    "visible_p50_s": "s",
    "visible_p99_s": "s",
    "query_p50_s": "s",
    "query_p99_s": "s",
    "ack_p99_s": "s",
    "serve.batches": "count",
    "serve.batch_edges_p50": "count",
    "serve.cut.target": "count",
    "serve.cut.cad": "count",
    "serve.cut.flush": "count",
    "serve.queue_wait_p50_s": "s",
    "serve.step_p50_s": "s",
    "serve.step_max_s": "s",
    "serve.driver_busy_share": "ratio",
    "serve.admit_waits": "count",
    "serve.lag_edges_end": "count",
    "serve.ack_p50_s": "s",
    "serve.query.pagerank_topk_p50_s": "s",
    "serve.query.degree_p50_s": "s",
    "loadgen.late_p99_s": "s",
    "loadgen.requests": "count",
    "trace.overhead": "ratio",
}
