"""End-to-end server behaviour over real sockets.

Covers the op surface (query/execute/explain/ping/metrics), the error
mapping onto typed client exceptions, all four backing modes composed
through one ``ServerConfig``, framing failures at the socket boundary,
and graceful drain."""

from __future__ import annotations

import socket
import struct

import pytest

from repro.errors import (
    ProtocolError,
    RemoteError,
    ServerError,
    ServerShutdownError,
    UnknownRelationError,
)
from repro.lang.session import Session
from repro.obsv import registry as obsv_registry
from repro.obsv.registry import MetricsRegistry
from repro.server import protocol
from repro.server.client import ReproClient
from repro.server.server import ReproServer, ServerConfig, ThreadedServer
from repro.server.store import render_state


@pytest.fixture
def server():
    with ThreadedServer(ServerConfig(port=0, workers=2)) as handle:
        yield handle


@pytest.fixture
def client(server):
    with ReproClient(server.host, server.port) as c:
        yield c


STATE = "state (k: integer, v: integer) { (1, 10), (2, 20) }"


class TestOps:
    def test_execute_then_query_round_trip(self, client):
        assert client.execute("define_relation(r, rollback)") == 1
        assert client.execute(f"modify_state(r, {STATE})") == 2
        printed = client.query("rollback(r, now)")
        # byte-identical to the in-process session's rendering
        oracle = Session()
        oracle.execute("define_relation(r, rollback)")
        oracle.execute(f"modify_state(r, {STATE})")
        assert printed == render_state(oracle.query("rollback(r, now)"))

    def test_query_renders_empty_marker(self, client):
        client.execute("define_relation(r, rollback)")
        assert client.query("rollback(r, now)") == "∅ (no recorded state)"

    def test_ping_reports_transaction_number(self, client):
        assert client.ping() == 0
        client.execute("define_relation(r, rollback)")
        assert client.ping() == 1

    def test_explain_over_the_wire(self, client):
        client.execute("define_relation(r, rollback)")
        client.execute(f"modify_state(r, {STATE})")
        plan = client.explain("project [k] (rollback(r, now))")
        assert "project" in plan.lower()

    def test_metrics_surface(self, server, client):
        client.execute("define_relation(r, rollback)")
        client.query("rollback(r, now)")
        metrics = client.metrics()
        for key in (
            "server.accepted",
            "server.completed",
            "server.shed",
            "server.killed",
            "server.queue_depth",
            "server.inflight",
            "server.connections_open",
            "server.transaction_number",
            "server.latency_p50_ms",
            "server.latency_p99_ms",
        ):
            assert key in metrics, key
        assert metrics["server.accepted"] >= 2
        assert metrics["server.completed"] >= 2
        assert metrics["server.connections_open"] == 1
        assert metrics["server.transaction_number"] == 1

    def test_sequential_clients_share_the_database(self, server):
        with ReproClient(server.host, server.port) as first:
            first.execute("define_relation(shared, rollback)")
            first.execute(f"modify_state(shared, {STATE})")
            expected = first.query("rollback(shared, now)")
        with ReproClient(server.host, server.port) as second:
            assert second.query("rollback(shared, now)") == expected


class TestErrorMapping:
    def test_remote_error_carries_server_exception_type(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.query("rollback(missing, now)")
        assert excinfo.value.remote_type == "UnknownRelationError"
        assert "missing" in str(excinfo.value)

    def test_remote_error_is_catchable_per_request(self, client):
        """A failed request poisons nothing: the connection keeps
        serving."""
        assert client.execute("define_relation(r, rollback)") == 1
        with pytest.raises(RemoteError) as excinfo:
            client.execute("modify_state(r, rollback(missing, now))")
        assert excinfo.value.remote_type == "UnknownRelationError"
        assert client.execute(f"modify_state(r, {STATE})") == 2

    def test_parse_error_maps_too(self, client):
        with pytest.raises(RemoteError) as excinfo:
            client.query("select [")
        assert excinfo.value.remote_type in ("ParseError", "ReproError")

    def test_unknown_op_rejected(self, server):
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(
                protocol.encode_message({"id": 1, "op": "drop_everything"})
            )
            decoder = protocol.FrameDecoder()
            reply = None
            while reply is None:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                for payload in decoder.feed(chunk):
                    reply = protocol.decode_message(payload)
            assert reply is not None
            assert reply["status"] == protocol.STATUS_ERROR
            assert reply["error_type"] == "ProtocolError"
            # framing is intact but the request was garbage; the server
            # hangs up after reporting
            assert sock.recv(65536) == b""


class TestFramingBoundary:
    def test_corrupt_frame_reported_then_connection_closed(self, server):
        frame = bytearray(
            protocol.encode_message({"id": 1, "op": "ping"})
        )
        frame[-1] ^= 0xFF
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(bytes(frame))
            decoder = protocol.FrameDecoder()
            chunks = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks += chunk
            replies = [
                protocol.decode_message(p)
                for p in decoder.feed(chunks)
            ]
            assert len(replies) == 1
            assert replies[0]["status"] == protocol.STATUS_ERROR
            assert replies[0]["error_type"] == "ProtocolError"
            assert "CRC" in replies[0]["error"]

    def test_malformed_frame_is_counted(self, server):
        frame = bytearray(
            protocol.encode_message({"id": 1, "op": "ping"})
        )
        frame[-1] ^= 0xFF
        registry = obsv_registry.enable(MetricsRegistry())
        try:
            with socket.create_connection(
                (server.host, server.port), timeout=10
            ) as sock:
                sock.sendall(bytes(frame))
                while sock.recv(65536):
                    pass  # the error reply, then the hang-up
            with ReproClient(server.host, server.port) as client:
                assert client.metrics()["server.protocol_errors"] == 1
        finally:
            obsv_registry.disable()
        counters = registry.snapshot()["counters"]
        assert counters["server.protocol_errors"] == 1

    def test_oversized_announced_frame_closes_connection(self):
        config = ServerConfig(port=0, max_frame=1024)
        with ThreadedServer(config) as handle:
            with socket.create_connection(
                (handle.host, handle.port), timeout=10
            ) as sock:
                sock.sendall(struct.pack("<II", 50_000_000, 0))
                # server reports the framing error and hangs up; it
                # must not try to buffer 50MB
                data = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    data += chunk
                reply = protocol.decode_message(
                    protocol.decode_frame(data)
                )
                assert reply["error_type"] == "ProtocolError"

    def test_reply_too_large_for_a_frame_counts_as_an_error(self):
        """The client gets a ProtocolError for a result that does not
        fit one frame, and the server counts the same outcome."""
        config = ServerConfig(port=0, max_frame=1024)
        with ThreadedServer(config) as handle:
            with ReproClient(handle.host, handle.port) as client:
                client.execute("define_relation(r, rollback)")
                for i in range(60):
                    client.execute(
                        "modify_state(r, rollback(r, now) union "
                        f'state (s: string) {{ ("{i:020d}") }})'
                    )
                with pytest.raises(RemoteError, match="exceeds") as excinfo:
                    client.query("rollback(r, now)")
                assert excinfo.value.remote_type == "ProtocolError"
                metrics = client.metrics()
        assert metrics["server.completed"] == 61
        assert metrics["server.errors"] == 1

    def test_client_rejects_oversized_request(self, server):
        client = ReproClient(server.host, server.port, max_frame=256)
        try:
            with pytest.raises(ProtocolError, match="exceeds"):
                client.query("rollback(" + "r" * 1024 + ", now)")
        finally:
            client.close()


class TestBackings:
    def test_durable_backing_survives_restart(self, tmp_path):
        directory = str(tmp_path / "db")
        config = ServerConfig(
            port=0, durable_dir=directory, fsync="always"
        )
        with ThreadedServer(config) as handle:
            with ReproClient(handle.host, handle.port) as c:
                c.execute("define_relation(r, rollback)")
                c.execute(f"modify_state(r, {STATE})")
                expected = c.query("rollback(r, now)")
        # a second server over the same directory recovers the state
        with ThreadedServer(
            ServerConfig(port=0, durable_dir=directory, fsync="always")
        ) as handle:
            with ReproClient(handle.host, handle.port) as c:
                assert c.ping() == 2
                assert c.query("rollback(r, now)") == expected

    def test_sharded_backing(self, tmp_path):
        config = ServerConfig(
            port=0,
            shards=3,
            durable_dir=str(tmp_path / "shards"),
        )
        with ThreadedServer(config) as handle:
            with ReproClient(handle.host, handle.port) as c:
                c.execute("define_relation(r, rollback)")
                c.execute(f"modify_state(r, {STATE})")
                oracle = Session()
                oracle.execute("define_relation(r, rollback)")
                oracle.execute(f"modify_state(r, {STATE})")
                assert c.query("rollback(r, now)") == render_state(
                    oracle.query("rollback(r, now)")
                )

    def test_config_validation(self):
        with pytest.raises(ServerError, match="workers"):
            ServerConfig(workers=0)


class TestShutdown:
    def test_draining_server_sheds_new_work_but_answers_control_ops(
        self, server
    ):
        with ReproClient(server.host, server.port) as c:
            c.execute("define_relation(r, rollback)")
            # flip the drain flag on the loop thread, as stop() would
            server._on_loop(
                lambda: setattr(server.server, "_draining", True)
            )
            with pytest.raises(ServerShutdownError, match="draining"):
                c.query("rollback(r, now)")
            # control ops keep answering so operators can watch
            assert c.ping() == 1
            assert c.metrics()["server.draining"] == 1
            server._on_loop(
                lambda: setattr(server.server, "_draining", False)
            )

    def test_stop_is_idempotent_and_clean(self):
        handle = ThreadedServer(ServerConfig(port=0))
        with ReproClient(handle.host, handle.port) as c:
            c.execute("define_relation(r, rollback)")
        handle.stop()
        # double-stop must not raise
        handle.stop()

    def test_queued_work_drains_before_shutdown(self):
        """stop(drain=True) lets admitted requests finish."""
        config = ServerConfig(
            port=0, workers=1, debug_ops=True, drain_timeout=10.0
        )
        handle = ThreadedServer(config)
        try:
            with ReproClient(handle.host, handle.port) as c:
                c.execute("define_relation(r, rollback)")
                c.execute(f"modify_state(r, {STATE})")
            sock = socket.create_connection(
                (handle.host, handle.port), timeout=30
            )
            stalled = protocol.request(
                1, "query", "rollback(r, now)", stall_ms=200
            )
            sock.sendall(protocol.encode_message(stalled))
            # wait for admission before stopping (loopback is fast but
            # not instantaneous), so drain has something to drain
            import time as _time

            for _ in range(200):
                if handle.metrics()["server.accepted"] >= 3:
                    break
                _time.sleep(0.01)
            handle.stop()  # drains: the stalled query still answers
            decoder = protocol.FrameDecoder()
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
            replies = [
                protocol.decode_message(p) for p in decoder.feed(data)
            ]
            sock.close()
            assert replies and replies[0]["status"] == protocol.STATUS_OK
        finally:
            handle.stop()


def test_repro_server_requires_start_before_port():
    server = ReproServer(ServerConfig(port=0))
    with pytest.raises(ServerError, match="not started"):
        server.port
    server.store.close()


def test_error_taxonomy_the_wire_mapping_depends_on():
    assert issubclass(UnknownRelationError, Exception)
    assert RemoteError("x").remote_type == "ReproError"
