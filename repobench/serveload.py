"""Open-loop generator for ``serve-live``: one process, two connections.

The ingest connection sends pre-encoded edge requests on a fixed schedule
whatever the server's replies do (requests are pipelined; replies are
matched to requests in order).  The query connection does the same with
``pagerank_topk`` and ``degree`` queries.  Every latency is timed from
when its request was *due*, so a stall also charges the requests queued
behind it.  A fixed-size burst follows the open-loop phase.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import time

from common import BenchError, percentile


def visible_latencies(dues, seqs, observations) -> list[float]:
    """Due-to-visible latency of each edge request.

    Args:
        dues: due time of each request (monotonic seconds).
        seqs: the sequence number of each request's last edge (from its
            ack).
        observations: ``(time, visible_seq)`` pairs from any reply, in
            receive order; ``visible_seq`` never decreases.

    Returns:
        For each request, the first observation time at which its edges
        were visible, minus its due time.
    """
    times = [t for t, _ in observations]
    marks = [seq for _, seq in observations]
    if any(b < a for a, b in zip(marks, marks[1:])):
        raise BenchError("visible_seq went backwards")
    latencies = []
    for due, seq in zip(dues, seqs):
        index = bisect.bisect_left(marks, seq)
        if index == len(marks):
            raise BenchError(f"edge seq {seq} never became visible")
        latencies.append(times[index] - due)
    return latencies


def check_schedule(lates, limit_s: float) -> float:
    """p99 of how late the generator sent its requests; a generator later
    than ``limit_s`` makes the run invalid (it measured itself)."""
    late_p99 = percentile(lates, 0.99)
    if late_p99 > limit_s:
        raise BenchError(
            f"open-loop generator ran late: p99 {late_p99:.4f}s > "
            f"{limit_s}s; the run is invalid"
        )
    return late_p99


class _Connection:
    """Pipelined line-JSON connection: writes never wait for replies."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "_Connection":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 24
        )
        return cls(reader, writer)

    def send(self, line: bytes) -> None:
        self.writer.write(line)

    async def receive(self) -> tuple[float, dict]:
        line = await self.reader.readline()
        if not line:
            raise BenchError("server closed the connection")
        return time.monotonic(), json.loads(line)

    async def call(self, payload: dict) -> dict:
        self.send(_encode(payload))
        await self.writer.drain()
        return (await self.receive())[1]

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _encode(payload: dict) -> bytes:
    return json.dumps(payload).encode() + b"\n"


async def _sleep_until(deadline: float) -> None:
    delay = deadline - time.monotonic()
    if delay > 0:
        await asyncio.sleep(delay)


async def _paced_send(conn: _Connection, lines, dues, sent) -> None:
    for line, due in zip(lines, dues):
        await _sleep_until(due)
        sent.append(time.monotonic())
        conn.send(line)
    await conn.writer.drain()


async def _wait_visible(conn: _Connection, seq: int, observations) -> float:
    """Wait until ``visible_seq >= seq``; returns the time it was seen.

    Probes with a ``degree`` query, not ``stats``: the driver answers
    queries between steps, so each probe returns right after the next step
    ends and costs the server one cheap reply per step.  Polling ``stats``
    every few milliseconds would take the GIL from the driver thread and
    slow the steps being timed.
    """
    probe = {"op": "query", "what": "degree", "vertex": 0}
    while True:
        reply = await conn.call(probe)
        now = time.monotonic()
        if not reply.get("ok"):
            raise BenchError(f"visibility probe failed: {reply}")
        mark = reply["watermark"]["visible_seq"]
        observations.append((now, mark))
        if mark >= seq:
            return now


#: The server reads request lines with asyncio's default 64 KiB limit.
MAX_LINE_BYTES = 60_000


def _edge_lines(src, dst, weight, per_request: int) -> list[bytes]:
    lines = [
        _encode({
            "op": "edges",
            "edges": [
                [int(s), int(d), float(w)]
                for s, d, w in zip(
                    src[i:i + per_request], dst[i:i + per_request],
                    weight[i:i + per_request],
                )
            ],
        })
        for i in range(0, len(src), per_request)
    ]
    if max(len(line) for line in lines) > MAX_LINE_BYTES:
        raise BenchError("edge request lines exceed the server's line limit")
    return lines


async def drive(port: int, edges, spec: dict, duration: float,
                degree_vertices) -> dict:
    """Run the open-loop phase, the burst and the final check queries.

    Args:
        port: the server's port.
        edges: ``(src, dst, weight)`` arrays; the first part feeds the open
            loop, the last ``spec["burst_edges"]`` the burst.
        spec: the serve workload (:data:`workloads.SERVE_WORKLOAD`).
        duration: open-loop phase length, seconds.
        degree_vertices: vertices the ``degree`` queries cycle over.
    """
    src, dst, weight = edges
    n_requests = int(duration * spec["request_rate"])
    n_open = n_requests * spec["request_edges"]
    burst = spec["burst_edges"]
    if n_open + burst > len(src):
        raise BenchError("not enough pre-generated edges")
    ingest_lines = _edge_lines(
        src[:n_open], dst[:n_open], weight[:n_open], spec["request_edges"]
    )
    burst_lines = _edge_lines(
        src[n_open:n_open + burst], dst[n_open:n_open + burst],
        weight[n_open:n_open + burst], spec["burst_request_edges"],
    )
    n_queries = int(duration * spec["query_rate"])
    query_kinds = ["pagerank_topk" if i % 2 == 0 else "degree"
                   for i in range(n_queries)]
    query_lines = [
        _encode({"op": "query", "what": "pagerank_topk", "k": spec["topk"]})
        if kind == "pagerank_topk"
        else _encode({"op": "query", "what": "degree",
                      "vertex": int(degree_vertices[i // 2 % len(degree_vertices)])})
        for i, kind in enumerate(query_kinds)
    ]

    ingest = await _Connection.open(port)
    queries = await _Connection.open(port)
    try:
        await ingest.call({"op": "hello", "tenant": "bench-ingest"})
        await queries.call({"op": "hello", "tenant": "bench-query"})
        observations: list[tuple[float, int]] = []
        failed = 0
        start = time.monotonic() + 0.05
        ingest_dues = [start + i / spec["request_rate"]
                       for i in range(n_requests)]
        query_dues = [start + (i + 0.5) / spec["query_rate"]
                      for i in range(n_queries)]
        ingest_sent: list[float] = []
        query_sent: list[float] = []

        async def read_acks():
            nonlocal failed
            acked = []  # (due, ack time, seq) of each accepted request
            for i in range(n_requests):
                now, reply = await ingest.receive()
                if not reply.get("ok"):
                    failed += 1
                    continue
                acked.append((ingest_dues[i], now, reply["seq"]))
                observations.append((now, reply["watermark"]))
            # Backlog as the open loop ends, asked on the ingest connection
            # (the query connection may still be working through queries).
            stats = await ingest.call({"op": "stats"})
            observations.append((time.monotonic(), stats["visible_seq"]))
            return acked, stats

        async def read_queries():
            nonlocal failed
            latency = {"pagerank_topk": [], "degree": []}
            for i in range(n_queries):
                now, reply = await queries.receive()
                if not reply.get("ok"):
                    failed += 1
                    continue
                latency[query_kinds[i]].append(now - query_dues[i])
                observations.append((now, reply["watermark"]["visible_seq"]))
            return latency

        (acked, stats), query_latency, _, _ = await asyncio.gather(
            read_acks(), read_queries(),
            _paced_send(ingest, ingest_lines, ingest_dues, ingest_sent),
            _paced_send(queries, query_lines, query_dues, query_sent),
        )
        if not acked:
            raise BenchError("every open-loop edge request failed")
        lag_edges_end = stats["lag_edges"]
        await _wait_visible(queries, acked[-1][2], observations)
        observations.sort(key=lambda item: item[0])
        # Replies on two connections can arrive out of watermark order.
        running = 0
        ordered = []
        for t, mark in observations:
            running = max(running, mark)
            ordered.append((t, running))
        visible = visible_latencies(
            [due for due, _, _ in acked], [seq for _, _, seq in acked], ordered
        )

        burst_start = time.monotonic()
        for line in burst_lines:
            ingest.send(line)
        await ingest.writer.drain()
        burst_seq = 0
        for _ in burst_lines:
            _, reply = await ingest.receive()
            if not reply.get("ok"):
                failed += 1
                continue
            burst_seq = reply["seq"]
        burst_end = await _wait_visible(queries, burst_seq, [])

        degrees = {}
        for vertex in degree_vertices:
            reply = await queries.call(
                {"op": "query", "what": "degree", "vertex": int(vertex)}
            )
            degrees[int(vertex)] = (reply["out_degree"], reply["in_degree"])
        topk = await queries.call(
            {"op": "query", "what": "pagerank_topk", "k": spec["topk"]}
        )
        final = await queries.call({"op": "stats"})
    finally:
        await ingest.close()
        await queries.close()

    lates = [s - d for s, d in zip(ingest_sent + query_sent,
                                   ingest_dues + query_dues)]
    return {
        "attempted": n_requests + n_queries + len(burst_lines),
        "failed": failed,
        "edges_sent": n_open + burst,
        "ack_s": [ack - due for due, ack, _ in acked],
        "visible_s": visible,
        "query_s": query_latency,
        "lates": lates,
        "lag_edges_end": lag_edges_end,
        "burst_edges": burst,
        "burst_s": burst_end - burst_start,
        "degrees": degrees,
        "topk": topk["ranks"],
        "final_stats": final,
        "stats_open_loop_end": stats,
    }
