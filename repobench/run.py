"""Repository benchmark: ``repro run`` and ``repro serve`` on fixed work.

    python3 repobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see NOTES.md): ``run-pr``, ``run-ingest``, ``serve-live``.
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a traced run, beside an untraced
one for the tracing overhead.  Program outputs are checked against the
oracles outside every timed region; a failing oracle exits 1.

The last stdout line is the result::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

The line before it (``detail: {...}``) records provenance, the effective
configuration, the input stream's sha256, the host-drift probe and the
raw samples; the same detail is written under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BENCH_DIR,
    WORK,
    BenchError,
    check_checkout,
    host_probe,
    kill,
    median,
    percentile,
    provenance,
    reap,
    spawn,
    use_bench_pycache,
)
from tracer import busy_and_self  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    SERVE_WORKLOAD,
    WORKLOADS,
)

#: setup_s is the median of at least this many fresh starts per run.
SETUP_SAMPLES = 7


# -- run-* ---------------------------------------------------------------------


def _run_worker(workload: str, seed: int, *, setup_only=False,
                traced=False) -> dict:
    """One fresh program process; returns its report plus ``setup_s``
    (spawn to ready for the first batch) and ``rss_mb``."""
    prefix = WORK / f"run-{uuid.uuid4().hex[:12]}"
    argv = [sys.executable, str(BENCH_DIR / "runworker.py"), workload,
            str(seed), str(prefix)]
    if setup_only:
        argv.append("--setup-only")
    if traced:
        argv.append("--trace")
    spawned = time.monotonic()
    proc = spawn(argv, stdout=subprocess.DEVNULL)
    rss = reap(proc)
    json_path = prefix.with_suffix(".json")
    report = json.loads(json_path.read_text(encoding="utf-8"))
    json_path.unlink()
    report["setup_s"] = report["ready"] - spawned
    report["rss_mb"] = rss
    if not setup_only:
        report["state_path"] = str(prefix) + ".npz"
    return report


def _batch_layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced ``run-*`` process."""
    busy, own, calls = busy_and_self(trace["spans"])
    counters = trace["counters"]
    steps = calls.get("pipeline.step", 0)
    step_s = busy.get("pipeline.step", 0.0)
    batches = counters.get("update.batches", 0)
    round_s = busy.get("compute.round", 0.0)
    touched = counters.get("compute.touched_edges", 0)
    edges = counters.get("graph.edges", 0)
    return {
        "datasets.generate_s": busy.get("datasets.generate", 0.0),
        "graph.apply_s": busy.get("graph.apply", 0.0),
        "graph.apply_ns_per_edge": (
            busy.get("graph.apply", 0.0) / edges * 1e9 if edges else 0.0
        ),
        "graph.views_calls": counters.get("graph.views_calls", 0),
        "update.ingest_s": busy.get("update.ingest", 0.0),
        "update.self_s": own.get("update.ingest", 0.0),
        "update.ro_share": counters.get("update.ro", 0) / batches if batches else 0.0,
        "update.abr_active_share": (
            counters.get("update.abr_active", 0) / batches if batches else 0.0
        ),
        "oca.observe_s": busy.get("oca.observe", 0.0),
        "oca.deferred_share": (
            counters.get("pipeline.deferred", 0) / steps if steps else 0.0
        ),
        "compute.round_s": round_s,
        "compute.rounds": calls.get("compute.round", 0),
        "compute.iterations": counters.get("compute.iterations", 0),
        "compute.touched_edges": touched,
        "compute.ns_per_touched_edge": round_s / touched * 1e9 if touched else 0.0,
        "compute.share": round_s / step_s if step_s else 0.0,
        "pipeline.step_s": step_s,
        "pipeline.self_s": own.get("pipeline.step", 0.0),
    }


def run_batch_workload(workload: str, seed: int, seconds: float,
                       trace: bool) -> dict:
    from oracle import check_degrees, check_ranks, expected_degrees, pagerank, regenerate

    _run_worker(workload, seed, setup_only=True)  # warms the bytecode cache
    probe_before = host_probe()
    reps, setups = [], []
    began = time.monotonic()
    while True:
        # Traced runs alternate traced and untraced reps (overhead).
        traced = trace and len(reps) % 2 == 0
        rep = _run_worker(workload, seed, traced=traced)
        rep["traced"] = traced
        reps.append(rep)
        setups.append(rep["setup_s"])
        elapsed = time.monotonic() - began
        enough = len(reps) >= (2 if trace else 1)
        if enough and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(_run_worker(workload, seed, setup_only=True)["setup_s"])
    probe_after = host_probe()

    config = reps[0]["config"]
    src, dst, n, stream_sha = regenerate(
        config["dataset"], seed, config["batch_size"], config["num_batches"]
    )
    want_out, want_in = expected_degrees(src, dst, n)
    want_ranks = pagerank(src, dst, n) if config["algorithm"] == "pr" else None
    import numpy as np

    rank_errors = []
    for rep in reps:
        with np.load(rep["state_path"]) as state:
            check_degrees(state["out_degree"], state["in_degree"], want_out, want_in)
            if want_ranks is not None:
                rank_errors.append(check_ranks(state["ranks"], want_ranks))
        os.unlink(rep["state_path"])

    untraced = [r for r in reps if not r["traced"]]
    rates = [r["edges"] / r["wall_s"] for r in untraced]
    if trace:
        traced_reps = [r for r in reps if r["traced"]]
        layers = [_batch_layer_metrics(r["trace"]) for r in traced_reps]
        values = {name: median([m[name] for m in layers]) for name in layers[0]}
        values["trace.overhead"] = (
            median([r["wall_s"] for r in traced_reps])
            / median([r["wall_s"] for r in untraced]) - 1.0
        )
    else:
        values = {
            "setup_s": median(setups),
            "edges_per_s": median(rates),
            "peak_rss_mb": median([r["rss_mb"] for r in reps]),
        }
    detail = {
        "config": config,
        "stream_sha256": stream_sha,
        "reps": [
            {k: r[k] for k in ("wall_s", "edges", "setup_s", "rss_mb", "traced")}
            for r in reps
        ],
        "setup_samples_s": setups,
        "rank_worst_relative_error": rank_errors,
    }
    return {
        "attempted": sum(r["batches"] for r in reps),
        "failed": 0,
        "values": values,
        "probe": [probe_before, probe_after],
        "detail": detail,
    }


# -- serve-live ----------------------------------------------------------------


class _Server:
    """A ``repro serve`` process (optionally under the layer trace)."""

    def __init__(self, trace_out: Path | None = None):
        token = uuid.uuid4().hex[:12]
        self.port_file = WORK / f"port-{token}"
        self.log = open(WORK / f"serve-{token}.log", "wb")
        self.trace_out = trace_out
        serve_args = [*SERVE_WORKLOAD["argv"], "--port-file", str(self.port_file)]
        if trace_out is None:
            argv = [sys.executable, "-m", "repro", *serve_args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "servetraced.py"),
                    str(trace_out), *serve_args]
        self.spawned = time.monotonic()
        self.proc = spawn(argv, stdout=self.log, stderr=self.log)
        try:
            self.port = self._wait_port()
            self.setup_s = asyncio.run(self._hello()) - self.spawned
        except BaseException:
            kill(self.proc)
            self._cleanup()
            raise

    def _wait_port(self) -> int:
        deadline = self.spawned + 60.0
        while not self.port_file.exists():
            if time.monotonic() > deadline:
                raise BenchError("serve did not start within 60s")
            pid, status, _ = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                raise BenchError("serve exited before listening")
            time.sleep(0.002)
        return int(self.port_file.read_text().strip())

    async def _hello(self) -> float:
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        writer.write(b'{"op": "hello"}\n')
        await writer.drain()
        reply = json.loads(await reader.readline())
        replied = time.monotonic()
        writer.close()
        await writer.wait_closed()
        if not reply.get("ok"):
            raise BenchError(f"hello failed: {reply}")
        return replied

    def stop(self) -> float:
        """Graceful drain (SIGTERM); returns the server's peak RSS in MB."""
        try:
            os.kill(self.proc.pid, signal.SIGTERM)
            return reap(self.proc)
        finally:
            self._cleanup()

    def _cleanup(self) -> None:
        self.log.close()
        self.port_file.unlink(missing_ok=True)


def _serve_inputs(seed: int, duration: float):
    """Pre-generated fb stream edges for the session, and the degree
    query sample; both from the workload seed."""
    import numpy as np

    from repro.datasets.profiles import get_dataset

    spec = SERVE_WORKLOAD
    needed = (int(duration * spec["request_rate"]) * spec["request_edges"]
              + spec["burst_edges"])
    profile = get_dataset(spec["dataset"])
    generator = profile.generator(seed=seed)
    batches = [generator.generate_batch(i, 10_000)
               for i in range(-(-needed // 10_000))]
    if any(b.is_delete is not None and b.is_delete.any() for b in batches):
        raise BenchError("serve-live expects an insert-only stream")
    src, dst, weight = (
        np.concatenate([getattr(b, name) for b in batches])[:needed]
        for name in ("src", "dst", "weight")
    )
    touched = np.unique(np.concatenate([src, dst]))
    rng = np.random.default_rng(seed)
    sample = np.sort(rng.choice(touched, spec["degree_sample"], replace=False))
    return (src, dst, weight), sample, profile.num_vertices


def _serve_config() -> dict:
    """The effective run config and service settings ``repro serve`` builds
    from the workload's arguments (``REPRO_*`` stripped)."""
    import dataclasses

    from repro.cli import build_parser
    from repro.pipeline.config import RunConfig
    from repro.serve import ServeSettings

    args = build_parser().parse_args(SERVE_WORKLOAD["argv"])
    settings = ServeSettings.from_env(batch_target=args.batch_size)
    return {
        "argv": SERVE_WORKLOAD["argv"],
        "run_config": RunConfig.from_serve_args(args).to_dict(),
        "serve_settings": dataclasses.asdict(settings),
    }


def _serve_session(duration: float, inputs, trace_out=None) -> dict:
    """One server lifetime: start, open loop, burst, checks, drain."""
    from oracle import (
        OracleError, check_degree_replies, check_topk, edge_digest,
        expected_degrees, pagerank,
    )
    from serveload import check_schedule, drive

    edges, sample, n = inputs
    server = _Server(trace_out)
    try:
        report = asyncio.run(
            drive(server.port, edges, SERVE_WORKLOAD, duration, sample)
        )
    finally:
        rss = server.stop()
    report["setup_s"] = server.setup_s
    report["rss_mb"] = rss
    report["late_p99_s"] = check_schedule(
        report["lates"], SERVE_WORKLOAD["late_p99_limit_s"]
    )
    backlog_limit = SERVE_WORKLOAD["backlog_limit_s"] * (
        SERVE_WORKLOAD["request_rate"] * SERVE_WORKLOAD["request_edges"]
    )
    if report["lag_edges_end"] > backlog_limit:
        raise BenchError(
            f"{report['lag_edges_end']} edges not yet visible when the open "
            f"loop ended (limit {backlog_limit:.0f}): the schedule is above "
            "the knee on this host; the run is invalid"
        )
    # Oracles (outside every timed region).
    src, dst, weight = edges
    if report["final_stats"]["visible_seq"] != report["edges_sent"]:
        raise OracleError(
            f"visible_seq {report['final_stats']['visible_seq']} != "
            f"{report['edges_sent']} edges sent"
        )
    check_degree_replies(report["degrees"], *expected_degrees(src, dst, n))
    report["topk_worst_relative_error"] = check_topk(
        report["topk"], pagerank(src, dst, n)
    )
    report["edge_sha256"] = edge_digest(src, dst, weight)
    before = report["stats_open_loop_end"]["cut_reasons"]
    report["burst_cuts"] = {
        reason: count - before.get(reason, 0)
        for reason, count in report["final_stats"]["cut_reasons"].items()
    }
    return report


def _client_metrics(report: dict) -> dict:
    queries = report["query_s"]
    return {
        "visible_p50_s": percentile(report["visible_s"], 0.50),
        "visible_p99_s": percentile(report["visible_s"], 0.99),
        "query_p50_s": percentile(queries["pagerank_topk"] + queries["degree"], 0.50),
        "query_p99_s": percentile(queries["pagerank_topk"] + queries["degree"], 0.99),
        "ack_p99_s": percentile(report["ack_s"], 0.99),
        "serve.ack_p50_s": percentile(report["ack_s"], 0.50),
        "serve.query.pagerank_topk_p50_s": percentile(queries["pagerank_topk"], 0.50),
        "serve.query.degree_p50_s": percentile(queries["degree"], 0.50),
        "loadgen.late_p99_s": report["late_p99_s"],
        "loadgen.requests": report["attempted"],
    }


def _server_layer_metrics(trace: dict, report: dict) -> dict:
    metrics = _batch_layer_metrics(trace)
    samples = trace["samples"]
    steps = [s for s in trace["spans"] if s[0] == "pipeline.step"]
    window = steps[-1][2] - steps[0][1] if steps else 0.0
    cuts = report["final_stats"]["cut_reasons"]
    metrics.update({
        "serve.batches": report["final_stats"]["batches"],
        "serve.batch_edges_p50": percentile(samples["serve.batch_edges"], 0.5),
        "serve.cut.target": cuts.get("target", 0),
        "serve.cut.cad": cuts.get("cad", 0),
        "serve.cut.flush": cuts.get("flush", 0),
        "serve.queue_wait_p50_s": percentile(samples["serve.queue_wait_s"], 0.5),
        "serve.step_p50_s": percentile(samples["serve.step_s"], 0.5),
        "serve.step_max_s": max(samples["serve.step_s"]),
        "serve.driver_busy_share": (
            sum(samples["serve.step_s"]) / window if window else 0.0
        ),
        "serve.admit_waits": trace["counters"].get("serve.admit_waits", 0),
        "serve.lag_edges_end": report["lag_edges_end"],
    })
    return metrics


def run_serve_workload(seed: int, duration: float, trace: bool) -> dict:
    """``serve-live``: the open loop lasts ``duration`` seconds."""
    inputs = _serve_inputs(seed, duration)
    _Server().stop()  # warms the bytecode cache
    setups = []
    while len(setups) < SETUP_SAMPLES - 1:
        server = _Server()
        setups.append(server.setup_s)
        server.stop()
    probe_before = host_probe()
    session = _serve_session(duration, inputs)
    setups.append(session["setup_s"])
    sessions = [session]
    if trace:
        trace_path = WORK / f"serve-trace-{uuid.uuid4().hex[:12]}.json"
        traced = _serve_session(duration, inputs, trace_out=trace_path)
        server_trace = json.loads(trace_path.read_text(encoding="utf-8"))
        trace_path.unlink()
        sessions.append(traced)
    probe_after = host_probe()

    if trace:
        values = {
            **_server_layer_metrics(server_trace, traced),
            **_client_metrics(session),
            "trace.overhead": traced["burst_s"] / session["burst_s"] - 1.0,
        }
    else:
        values = {
            "setup_s": median(setups),
            "edges_per_s": session["burst_edges"] / session["burst_s"],
            "peak_rss_mb": session["rss_mb"],
        }
    detail = {
        "config": {**_serve_config(), "workload": SERVE_WORKLOAD,
                   "open_loop_s": duration},
        "stream_sha256": session["edge_sha256"],
        "setup_samples_s": setups,
        "sessions": [
            {k: s[k] for k in ("burst_s", "burst_cuts", "rss_mb", "late_p99_s",
                               "lag_edges_end", "topk_worst_relative_error",
                               "attempted", "failed")}
            for s in sessions
        ],
        "client": _client_metrics(session),
    }
    return {
        "attempted": sum(s["attempted"] for s in sessions),
        "failed": sum(s["failed"] for s in sessions),
        "values": values,
        "probe": [probe_before, probe_after],
        "detail": detail,
    }


# -- entry point -----------------------------------------------------------------


def _metrics(values: dict, units: dict) -> dict:
    """Every metric named in ``units``; names missing from ``values`` are
    layers the workload does not exercise, reported as 0."""
    unknown = set(values) - set(units)
    if unknown:
        raise BenchError(f"metrics without a declared unit: {sorted(unknown)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    try:
        check_checkout()
        use_bench_pycache()
        (WORK / "results").mkdir(parents=True, exist_ok=True)
        from oracle import OracleError

        try:
            if args.workload == "serve-live":
                outcome = run_serve_workload(args.seed, args.seconds, bool(args.trace))
            else:
                outcome = run_batch_workload(
                    args.workload, args.seed, args.seconds, bool(args.trace)
                )
        except OracleError as exc:
            print(f"oracle failed: {exc}", file=sys.stderr)
            return 1
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(),
        "host_probe_s": outcome["probe"], **outcome["detail"],
    }
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": True,  # a failing oracle exits 1 above, with no result
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": _metrics(
            outcome["values"], PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
        ),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
