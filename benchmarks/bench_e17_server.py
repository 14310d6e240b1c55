"""E17 — the wire-protocol server: its own cost, worker scaling, admission.

Four sections:

* **loop scheduling** — the server's own per-request cost, as a count:
  futures plus callbacks the server's event loop schedules per request
  over a fixed sequential query/execute/ping mix.  An idle server
  answers each request inside the read callback that decoded it, so
  the committed ceiling is 0.5 and the value 0.
* **worker scaling** — how 1/2/4/8 workers overlap simulated 8 ms
  stalls (``stall_ms``, the ``debug_ops`` hook): while one request
  stalls, seven others progress.  A scaling shape, not serving speed —
  the stall dwarfs the work.  The committed bar is a ≥5× aggregate
  speedup for 8 workers vs 1.
* **concurrency sweep** — throughput and p50/p99 latency as the number
  of concurrent clients grows at a fixed pool size, over real sockets.
* **admission control** — a burst far beyond the queue's high watermark
  must be *shed* (``queue_full``) in bounded numbers, with the server
  still answering afterwards — overload degrades, never hangs.

``--smoke`` shrinks the workload for CI; with ``REPRO_METRICS_JSON``
set the run also exports the ``server.*`` observability counters the
server-smoke CI job asserts on.
"""

from __future__ import annotations

import asyncio
import socket
import sys
import time

from repro.lang.session import Session
from repro.server import protocol
from repro.server.client import AsyncReproClient, ReproClient
from repro.server.server import ServerConfig, ThreadedServer
from repro.server.store import render_state
from repro.server.admission import percentile

QUERY = "rollback(bench, now)"
SETUP = [
    "define_relation(bench, rollback)",
    "modify_state(bench, state (k: integer, v: integer) "
    "{ (1, 10), (2, 20), (3, 30), (4, 40) })",
]

FULL = {"clients": 16, "requests": 12, "stall_ms": 8.0, "burst": 64}
SMOKE = {"clients": 8, "requests": 6, "stall_ms": 8.0, "burst": 32}


# -- loop scheduling ----------------------------------------------------------


class LoopCounter:
    """Counts ``create_future`` and ``call_soon`` calls on a
    :class:`ThreadedServer`'s event loop, by wrapping both methods."""

    def __init__(self, handle: ThreadedServer) -> None:
        self._handle = handle
        self.futures = self.callbacks = 0
        loop = handle._loop
        create_future, call_soon = loop.create_future, loop.call_soon

        def counted_future():
            self.futures += 1
            return create_future()

        def counted_call_soon(*args, **kwargs):
            self.callbacks += 1
            return call_soon(*args, **kwargs)

        def install() -> None:
            loop.create_future = counted_future
            loop.call_soon = counted_call_soon

        handle._on_loop(install)
        # reading the counts on the loop itself schedules a constant
        # number of callbacks, measured here and subtracted by ``per``
        first, second = self.read(), self.read()
        self._own = (second[0] - first[0], second[1] - first[1])

    def read(self) -> "tuple[int, int]":
        """(futures, callbacks) so far, read on the loop after every
        callback already queued has run."""
        return self._handle._on_loop(lambda: (self.futures, self.callbacks))

    def per(self, calls: int, action) -> "tuple[float, float]":
        """(futures, callbacks) per call of ``action`` over ``calls``
        calls."""
        before = self.read()
        for _ in range(calls):
            action()
        after = self.read()
        return tuple(
            (end - start - own) / calls
            for start, end, own in zip(before, after, self._own)
        )


def loop_scheduling(calls: int = 100) -> "dict[str, tuple[float, float]]":
    """(futures, callbacks) the server loop schedules per request, for
    each op of the sequential mix, on an idle server."""
    handle = _serve(2)
    try:
        _setup_relation(handle)
        with ReproClient(handle.host, handle.port) as client:
            counter = LoopCounter(handle)
            return {
                "query": counter.per(calls, lambda: client.query(QUERY)),
                "execute": counter.per(
                    calls,
                    lambda: client.execute(
                        f"modify_state(bench, {QUERY})"
                    ),
                ),
                "ping": counter.per(calls, client.ping),
            }
    finally:
        handle.stop()


# -- worker scaling -----------------------------------------------------------


async def _hammer(
    host: str, port: int, clients: int, requests: int, stall_ms: float
) -> "tuple[float, list[float]]":
    """``clients`` concurrent connections each issuing ``requests``
    cached reads; returns (wall seconds, per-request latencies)."""
    latencies: "list[float]" = []

    async def one() -> None:
        client = AsyncReproClient(host, port)
        await client.connect()
        try:
            for _ in range(requests):
                started = time.perf_counter()
                await client.query(QUERY, stall_ms=stall_ms)
                latencies.append(time.perf_counter() - started)
        finally:
            await client.close()

    started = time.perf_counter()
    await asyncio.gather(*(one() for _ in range(clients)))
    return time.perf_counter() - started, latencies


def _serve(workers: int, **overrides) -> ThreadedServer:
    config = ServerConfig(
        port=0,
        workers=workers,
        queue_high=1024,
        per_connection=64,
        debug_ops=True,
        **overrides,
    )
    return ThreadedServer(config)


def _setup_relation(handle: ThreadedServer) -> None:
    with ReproClient(handle.host, handle.port) as client:
        for sentence in SETUP:
            client.execute(sentence)
        # correctness before timing: the wire answer must equal the
        # in-process session's printed relation
        oracle = Session()
        for sentence in SETUP:
            oracle.execute(sentence)
        expected = render_state(oracle.query(QUERY))
        actual = client.query(QUERY)
        assert actual == expected, "wire result diverged from session"


def worker_scaling(config: dict) -> "dict[int, float]":
    """Aggregate read throughput (req/s) per worker-pool size."""
    results: "dict[int, float]" = {}
    total = config["clients"] * config["requests"]
    for workers in (1, 2, 4, 8):
        handle = _serve(workers)
        try:
            _setup_relation(handle)
            wall, _ = asyncio.run(
                _hammer(
                    handle.host,
                    handle.port,
                    config["clients"],
                    config["requests"],
                    config["stall_ms"],
                )
            )
            results[workers] = total / wall
        finally:
            handle.stop()
    return results


# -- concurrency sweep --------------------------------------------------------


def concurrency_sweep(config: dict) -> "list[tuple[int, float, float, float]]":
    """(clients, throughput, p50 ms, p99 ms) at a fixed 8-worker pool."""
    rows = []
    handle = _serve(8)
    try:
        _setup_relation(handle)
        for clients in (1, config["clients"] // 2, config["clients"]):
            wall, latencies = asyncio.run(
                _hammer(
                    handle.host,
                    handle.port,
                    clients,
                    config["requests"],
                    config["stall_ms"],
                )
            )
            rows.append(
                (
                    clients,
                    clients * config["requests"] / wall,
                    percentile(latencies, 0.50) * 1e3,
                    percentile(latencies, 0.99) * 1e3,
                )
            )
    finally:
        handle.stop()
    return rows


# -- admission / shedding -----------------------------------------------------


def shed_burst(config: dict) -> "tuple[int, int, int]":
    """Overrun a tiny queue; returns (burst, shed, completed)."""
    handle = ThreadedServer(
        ServerConfig(
            port=0,
            workers=1,
            queue_high=8,
            queue_low=4,
            per_connection=1024,
            debug_ops=True,
        )
    )
    try:
        _setup_relation(handle)
        burst = config["burst"]
        messages = [
            protocol.request(1, "query", QUERY, stall_ms=200)
        ] + [
            protocol.request(i, "query", QUERY)
            for i in range(2, burst + 1)
        ]
        decoder = protocol.FrameDecoder()
        replies = []
        with socket.create_connection(
            (handle.host, handle.port), timeout=60
        ) as sock:
            sock.sendall(
                b"".join(protocol.encode_message(m) for m in messages)
            )
            while len(replies) < burst:
                chunk = sock.recv(65536)
                assert chunk, "server hung up mid-burst"
                replies.extend(
                    protocol.decode_message(p)
                    for p in decoder.feed(chunk)
                )
        shed = sum(
            1
            for r in replies
            if r["status"] == protocol.STATUS_QUEUE_FULL
        )
        completed = sum(
            1 for r in replies if r["status"] == protocol.STATUS_OK
        )
        # the server must still be fully responsive after the burst
        with ReproClient(handle.host, handle.port) as client:
            client.ping()
        return burst, shed, completed
    finally:
        handle.stop()


# -- reporting ---------------------------------------------------------------


def report(smoke: bool = False) -> str:
    config = SMOKE if smoke else FULL
    lines = [
        "E17 — wire-protocol server with admission control "
        f"({'smoke' if smoke else 'full'} run)"
    ]

    lines.append("  loop scheduling per idle request (futures + callbacks):")
    for op, (futures, callbacks) in loop_scheduling().items():
        lines.append(
            f"    {op:<8} {futures:4.1f} futures  {callbacks:4.1f} callbacks"
        )

    scaling = worker_scaling(config)
    base = scaling[1]
    lines.append(
        f"  worker scaling ({config['clients']} clients x "
        f"{config['requests']} cached reads overlapping "
        f"{config['stall_ms']:.0f}ms simulated stalls each):"
    )
    for workers, throughput in scaling.items():
        lines.append(
            f"    {workers} worker{'s' if workers > 1 else ' '}: "
            f"{throughput:8.0f} req/s   "
            f"speedup {throughput / base:5.2f}x"
        )

    lines.append("  concurrency sweep (8 workers):")
    for clients, throughput, p50, p99 in concurrency_sweep(config):
        lines.append(
            f"    {clients:3d} clients: {throughput:8.0f} req/s   "
            f"p50 {p50:7.1f} ms   p99 {p99:7.1f} ms"
        )

    burst, shed, completed = shed_burst(config)
    lines.append(
        f"  admission: burst of {burst} against an 8-deep queue -> "
        f"{completed} served, {shed} shed (queue_full), "
        "server responsive throughout"
    )
    return "\n".join(lines)


def bench_payload() -> dict:
    """Perf-trajectory record for the committed ``BENCH_e17.json``."""
    config = FULL
    scheduling = loop_scheduling()
    per_request = sum(map(sum, scheduling.values())) / len(scheduling)
    scaling = worker_scaling(config)
    burst, shed, completed = shed_burst(config)
    return {
        "experiment": "e17",
        "description": (
            "asyncio wire-protocol server: loop scheduling per idle "
            "request, the overlap of simulated stalls across the worker "
            "pool, and bounded load-shedding under a queue-overrunning "
            "burst"
        ),
        "measurements": {
            "loop_callbacks_per_idle_request": {
                "kind": "ratio",
                "value": round(per_request, 2),
                "ceiling": 0.5,
                "detail": (
                    "futures + call_soon callbacks the server loop "
                    "schedules per sequential query/execute/ping on an "
                    "idle server ("
                    + ", ".join(
                        f"{op} {futures:g}+{callbacks:g}"
                        for op, (futures, callbacks) in scheduling.items()
                    )
                    + "); 3.33 when each request went through a "
                    "handler task and the queue (query 2+2, execute "
                    "2+2, ping 1+1)"
                ),
            },
            "worker_scaling_8v1_speedup": {
                "kind": "speedup",
                "value": round(scaling[8] / scaling[1], 2),
                "floor": 5.0,
                "detail": (
                    f"{scaling[1]:.0f} req/s @1 worker -> "
                    f"{scaling[8]:.0f} req/s @8 workers: the overlap "
                    f"of {config['stall_ms']:.0f}ms simulated stalls "
                    "per cached read, a scaling shape, not serving "
                    "speed"
                ),
            },
            "worker_scaling_4v1_speedup": {
                "kind": "speedup",
                "value": round(scaling[4] / scaling[1], 2),
                "floor": 2.5,
                "detail": (
                    f"{scaling[4]:.0f} req/s @4 workers overlapping "
                    f"{config['stall_ms']:.0f}ms simulated stalls"
                ),
            },
            "shed_burst": {
                "kind": "count",
                "value": shed,
                "detail": (
                    f"burst {burst} vs queue_high 8: {completed} "
                    f"served, {shed} shed, zero hung"
                ),
            },
        },
    }


# -- pytest-benchmark entry points -------------------------------------------


def bench_wire_ping(benchmark):
    handle = _serve(2)
    try:
        with ReproClient(handle.host, handle.port) as client:
            benchmark(client.ping)
    finally:
        handle.stop()


def bench_wire_cached_query(benchmark):
    handle = _serve(2)
    try:
        _setup_relation(handle)
        with ReproClient(handle.host, handle.port) as client:
            client.query(QUERY)  # warm the view's plan cache
            benchmark(client.query, QUERY)
    finally:
        handle.stop()


if __name__ == "__main__":
    from benchmarks.metrics_io import capture_metrics

    with capture_metrics("bench_e17_server"):
        print(report(smoke="--smoke" in sys.argv[1:]))
