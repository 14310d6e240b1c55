"""An idle server answers a request inside the read callback that
decoded it; only requests that must wait go through the queue.

Counted, not timed: the server loop's ``create_future`` and
``call_soon`` are wrapped (``LoopCounter`` from the E17 bench), so a
request that took a task, a queue hop or a drain shows up as futures
and callbacks.  Then the two behaviours the one-pass path changes:
backpressure without an awaiting writer, and a pipelined burst on an
idle server."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from benchmarks.bench_e17_server import LoopCounter
from repro.server import protocol
from repro.server.client import ReproClient
from repro.server.server import ServerConfig, ThreadedServer

STATE = "state (k: integer, v: integer) { (1, 10), (2, 20) }"


@pytest.fixture
def server():
    config = ServerConfig(port=0, workers=2, debug_ops=True)
    with ThreadedServer(config) as handle:
        yield handle


def _read_replies(sock, count, decoder=None):
    decoder = decoder or protocol.FrameDecoder()
    replies = []
    while len(replies) < count:
        chunk = sock.recv(1 << 16)
        assert chunk, "server hung up"
        replies.extend(map(protocol.decode_message, decoder.feed(chunk)))
    return replies


class TestLoopScheduling:
    def test_idle_requests_schedule_nothing(self, server):
        with ReproClient(server.host, server.port) as client:
            client.execute("define_relation(r, rollback)")
            client.execute(f"modify_state(r, {STATE})")
            client.query("rollback(r, now)")
            counter = LoopCounter(server)
            ops = {
                "query": lambda: client.query("rollback(r, now)"),
                "execute": lambda: client.execute(
                    "modify_state(r, rollback(r, now))"
                ),
                "explain": lambda: client.explain("rollback(r, now)"),
                "ping": client.ping,
                "metrics": client.metrics,
            }
            for op, action in ops.items():
                assert counter.per(20, action) == (0, 0), op

    def test_request_behind_a_stall_takes_the_queue(self, server):
        with ReproClient(server.host, server.port) as client:
            client.execute("define_relation(r, rollback)")
            client.execute(f"modify_state(r, {STATE})")
            expected = client.query("rollback(r, now)")
        counter = LoopCounter(server)

        def pipeline():
            with socket.create_connection(
                (server.host, server.port), timeout=30
            ) as sock:
                sock.sendall(
                    protocol.encode_message(
                        protocol.request(
                            1, "query", "rollback(r, now)", stall_ms=50
                        )
                    )
                    + protocol.encode_message(
                        protocol.request(2, "query", "rollback(r, now)")
                    )
                )
                replies = _read_replies(sock, 2)
            assert [r["status"] for r in replies] == ["ok", "ok"]
            assert {r["result"] for r in replies} == {expected}

        futures, callbacks = counter.per(1, pipeline)
        # the stall and the request queued behind it both waited on
        # the loop: a worker's get, a sleep, the wake-ups
        assert futures > 0 and callbacks > 0
        metrics = server.metrics()
        assert metrics["server.queue_depth"] == 0
        assert metrics["server.inflight"] == 0
        assert metrics["server.accepted"] == metrics["server.completed"]


class TestPipelining:
    def test_idle_server_answers_a_burst_in_order(self):
        """Past the per-connection budget, with nothing to wait for:
        each request is answered before the next is admitted, so none
        is shed."""
        config = ServerConfig(port=0, workers=1, per_connection=2)
        with ThreadedServer(config) as handle:
            with socket.create_connection(
                (handle.host, handle.port), timeout=30
            ) as sock:
                sock.sendall(
                    b"".join(
                        protocol.encode_message(protocol.request(i, "ping"))
                        for i in range(1, 11)
                    )
                    + b"".join(
                        protocol.encode_message(
                            protocol.request(i, "query", "rollback(r, now)")
                        )
                        for i in range(11, 31)
                    )
                )
                replies = _read_replies(sock, 30)
            assert [r["id"] for r in replies] == list(range(1, 31))
            # the relation is undefined: every query is admitted and
            # answers with a typed error, none with queue_full
            assert {r["status"] for r in replies[10:]} == {"error"}
            metrics = handle.metrics()
            assert metrics["server.shed"] == 0
            assert metrics["server.errors"] == 20


class TestBackpressure:
    def test_unread_replies_pause_reading_until_read(self):
        """A peer that pipelines without reading its replies stops
        being read; once it reads, every request is answered.  Both
        socket buffers are shrunk so the transport's own write buffer,
        not the kernel, takes the replies."""
        rows = ", ".join(f"({i}, {i * 7})" for i in range(400))
        requests = 200
        with ThreadedServer(ServerConfig(port=0, workers=1)) as handle:
            with ReproClient(handle.host, handle.port) as client:
                client.execute("define_relation(big, rollback)")
                client.execute(
                    "modify_state(big, state (k: integer, v: integer) "
                    f"{{ {rows} }})"
                )
                expected = client.query("rollback(big, now)")
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(30)
            sock.connect((handle.host, handle.port))
            sock.sendall(
                protocol.encode_message(protocol.request(0, "ping"))
            )
            _read_replies(sock, 1)  # accepted: the server side exists

            def server_side():
                return next(
                    connection
                    for connection in handle.server._connections
                    if connection.stream._transport.get_extra_info(
                        "peername"
                    ) == sock.getsockname()
                ).stream._transport

            def shrink():
                server_side().get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                )

            handle._on_loop(shrink)
            burst = b"".join(
                protocol.encode_message(
                    protocol.request(i, "query", "rollback(big, now)")
                )
                for i in range(1, requests + 1)
            )
            sender = threading.Thread(target=sock.sendall, args=(burst,))
            sender.start()
            try:
                deadline = time.monotonic() + 20
                while handle._on_loop(lambda: server_side().is_reading()):
                    assert time.monotonic() < deadline, "never paused"
                    time.sleep(0.01)
                replies = _read_replies(sock, requests)
            finally:
                sender.join(timeout=30)
                sock.close()
        assert [r["id"] for r in replies] == list(range(1, requests + 1))
        assert all(r["result"] == expected for r in replies)
