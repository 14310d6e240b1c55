"""``FrameStream``: the one buffered-protocol frame reader the server
and the asyncio client share — the client awaiting ``read_frames``, the
server through a sink called from the read callback.  Driven by hand
against a recording transport (counts and bytes, no clocks), then over
real sockets for the allocation behaviour it exists to fix."""

from __future__ import annotations

import asyncio
import os
import resource
import subprocess
import sys

import pytest

from repro.errors import ProtocolError
from repro.server import protocol
from repro.server.client import AsyncReproClient
from repro.server.stream import READ_BYTES, FrameStream


class RecordingTransport:
    """Records state *changes*: like the selector transport's, its
    ``pause_reading`` and ``resume_reading`` are idempotent."""

    def __init__(self):
        self.calls = []
        self.written = bytearray()
        self.paused = False

    def pause_reading(self):
        if not self.paused:
            self.paused = True
            self.calls.append("pause")

    def resume_reading(self):
        if self.paused:
            self.paused = False
            self.calls.append("resume")

    def write(self, data):
        self.written += data

    def close(self):
        self.calls.append("close")


def deliver(stream, data):
    """What the selector transport does with received bytes."""
    view = memoryview(data)
    while view:
        buffer = stream.get_buffer(-1)
        n = min(len(buffer), len(view))
        buffer[:n] = view[:n]
        stream.buffer_updated(n)
        view = view[n:]


def run(scenario):
    return asyncio.run(scenario())


def connected():
    stream, transport = FrameStream(), RecordingTransport()
    stream.connection_made(transport)
    return stream, transport


class TestReading:
    def test_one_buffer_for_the_life_of_the_connection(self):
        async def scenario():
            stream, _ = connected()
            first = stream.get_buffer(-1)
            assert len(first) == READ_BYTES
            deliver(stream, protocol.encode_frame(b"x" * 100))
            assert stream.get_buffer(1 << 18).obj is first.obj
            assert await stream.read_frames() == [b"x" * 100]

        run(scenario)

    def test_frames_split_and_coalesced_across_reads(self):
        async def scenario():
            stream, _ = connected()
            wire = b"".join(
                protocol.encode_frame(bytes([i]) * (i * 37))
                for i in range(1, 6)
            )
            deliver(stream, wire[:50])
            deliver(stream, wire[50:51])
            deliver(stream, wire[51:])
            frames = await stream.read_frames()
            assert frames == [bytes([i]) * (i * 37) for i in range(1, 6)]

        run(scenario)

    def test_frame_larger_than_the_buffer(self):
        async def scenario():
            stream, _ = connected()
            payload = bytes(range(256)) * 1024  # 256 KiB
            deliver(stream, protocol.encode_frame(payload))
            assert await stream.read_frames() == [payload]

        run(scenario)

    def test_reader_waits_then_wakes(self):
        async def scenario():
            stream, _ = connected()
            reader = asyncio.ensure_future(stream.read_frames())
            await asyncio.sleep(0)
            assert not reader.done()
            deliver(stream, protocol.encode_frame(b"late"))
            assert await reader == [b"late"]

        run(scenario)

    def test_eof_after_pending_frames(self):
        async def scenario():
            stream, _ = connected()
            deliver(stream, protocol.encode_frame(b"last"))
            assert stream.eof_received() is True
            assert await stream.read_frames() == [b"last"]
            assert await stream.read_frames() == []

        run(scenario)

    def test_framing_error_follows_the_good_frames(self):
        async def scenario():
            stream, transport = connected()
            deliver(stream, protocol.encode_frame(b"good"))
            bad = bytearray(protocol.encode_frame(b"damaged"))
            bad[-1] ^= 1
            deliver(stream, bytes(bad))
            assert await stream.read_frames() == [b"good"]
            with pytest.raises(ProtocolError, match="CRC"):
                await stream.read_frames()
            # alignment is lost: the transport is not read again
            assert transport.calls == ["pause"]

        run(scenario)

    def test_connection_error_surfaces(self):
        async def scenario():
            stream, _ = connected()
            stream.connection_lost(ConnectionResetError("peer reset"))
            with pytest.raises(ConnectionResetError):
                await stream.read_frames()
            await stream.wait_closed()

        run(scenario)


class TestBackpressure:
    def test_reading_pauses_past_the_bound_and_resumes_on_read(self):
        async def scenario():
            stream, transport = connected()
            frame = protocol.encode_frame(b"r" * 1000)
            for _ in range(READ_BYTES // 1000):
                deliver(stream, frame)
            assert transport.calls == []
            deliver(stream, frame)  # now more than READ_BYTES unread
            assert transport.calls == ["pause"]
            deliver(stream, frame)
            assert transport.calls == ["pause"]  # once, not per read
            frames = await stream.read_frames()
            assert len(frames) == READ_BYTES // 1000 + 2
            assert transport.calls == ["pause", "resume"]

        run(scenario)

    def test_drain_waits_for_the_transport_and_fails_once_lost(self):
        async def scenario():
            stream, transport = connected()
            stream.write(b"abc")
            assert bytes(transport.written) == b"abc"
            await stream.drain()  # not paused: returns at once
            stream.pause_writing()
            drain = asyncio.ensure_future(stream.drain())
            await asyncio.sleep(0)
            assert not drain.done()
            stream.resume_writing()
            await drain
            stream.pause_writing()
            drain = asyncio.ensure_future(stream.drain())
            await asyncio.sleep(0)
            stream.connection_lost(None)
            with pytest.raises(ConnectionResetError):
                await drain
            with pytest.raises(ConnectionResetError):
                await stream.drain()

        run(scenario)


class RecordingSink:
    """The server's side of a sink-mode stream, as a list of events."""

    def __init__(self):
        self.events = []

    def frame_received(self, payload):
        self.events.append(("frame", payload))

    def framing_failed(self, error):
        self.events.append(("framing_failed", str(error)))

    def eof_received(self):
        self.events.append(("eof",))

    def connection_lost(self, error):
        self.events.append(("lost", error))


def sink_connected(sink=None):
    sink = sink or RecordingSink()
    accepted = []

    def accept(stream):
        accepted.append(stream)
        return sink

    stream, transport = FrameStream(accept=accept), RecordingTransport()
    stream.connection_made(transport)
    assert accepted == [stream]
    return stream, transport, sink


class TestSink:
    def test_frames_split_and_coalesced_arrive_once_in_order(self):
        stream, transport, sink = sink_connected()
        payloads = [bytes([i]) * (i * 37) for i in range(1, 6)]
        wire = b"".join(map(protocol.encode_frame, payloads))
        deliver(stream, wire[:50])
        deliver(stream, wire[50:51])
        deliver(stream, wire[51:])
        deliver(stream, wire)  # all five in one read
        assert sink.events == [("frame", p) for p in payloads * 2]
        assert transport.calls == []  # nothing waits, nothing pauses

    def test_framing_error_follows_the_good_frames_once(self):
        stream, transport, sink = sink_connected()
        deliver(stream, protocol.encode_frame(b"good"))
        bad = bytearray(protocol.encode_frame(b"damaged"))
        bad[-1] ^= 1
        # the good frame sharing the bad one's read is dropped with it
        deliver(stream, protocol.encode_frame(b"shared") + bytes(bad))
        assert [event[0] for event in sink.events] == [
            "frame",
            "framing_failed",
        ]
        assert sink.events[0] == ("frame", b"good")
        assert "CRC" in sink.events[1][1]
        # reading stops for good, even when write pressure lifts
        stream.pause_writing()
        stream.resume_writing()
        assert transport.calls == ["pause"]

    def test_eof_and_loss_are_each_reported_once(self):
        stream, _, sink = sink_connected()
        deliver(stream, protocol.encode_frame(b"last"))
        assert stream.eof_received() is True
        error = ConnectionResetError("peer reset")
        stream.connection_lost(error)
        assert sink.events == [("frame", b"last"), ("eof",), ("lost", error)]

    def test_a_sink_that_hangs_up_gets_no_more_frames(self):
        class HangUp(RecordingSink):
            def frame_received(self, payload):
                super().frame_received(payload)
                stream.close()

        stream, transport, sink = sink_connected(HangUp())
        deliver(
            stream,
            protocol.encode_frame(b"one") + protocol.encode_frame(b"two"),
        )
        assert sink.events == [("frame", b"one")]
        assert transport.calls == ["close"]

    def test_write_pressure_pauses_reading(self):
        stream, transport, sink = sink_connected()
        stream.pause_writing()
        assert transport.calls == ["pause"]
        stream.pause_writing()
        assert transport.calls == ["pause"]
        stream.resume_writing()
        assert transport.calls == ["pause", "resume"]
        deliver(stream, protocol.encode_frame(b"after"))
        assert sink.events == [("frame", b"after")]

    def test_the_owner_side_ignores_write_pressure(self):
        """Without a sink the owner awaits ``drain``; pausing reading
        there could stall both peers on full send buffers."""
        stream, transport = connected()
        stream.pause_writing()
        stream.resume_writing()
        assert transport.calls == []


def _minor_faults(pid: int) -> int:
    with open(f"/proc/{pid}/stat") as stat:
        # field 10; the fields after the parenthesised command name
        return int(stat.read().rsplit(")", 1)[1].split()[7])


@pytest.mark.skipif(
    not os.path.exists("/proc/self/stat"), reason="needs Linux /proc"
)
def test_requests_do_not_fault_pages_in():
    """The defect this class fixes, as a count: asyncio's stream reader
    allocated up to 256 KiB per socket read, which glibc may serve by
    mmap — two minor faults and a munmap per request, on either side of
    the connection, depending on heap layout.  The shipped server is
    the subprocess (``/proc/<pid>/stat``), the client is this process
    (``RUSAGE_SELF``)."""
    requests = 3000
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )

    async def scenario(host, port):
        async with AsyncReproClient(host, port) as client:
            await client.execute("define_relation(r, rollback)")
            await client.execute(
                "modify_state(r, state (k: integer) { (1), (2), (3) })"
            )
            for _ in range(300):
                await client.query("rollback(r, now)")
            server = _minor_faults(process.pid)
            own = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(requests):
                await client.query("rollback(r, now)")
            return (
                _minor_faults(process.pid) - server,
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - own,
            )

    try:
        banner = process.stdout.readline()
        address = banner.split("listening on ", 1)[1].split(" ")[0]
        host, port = address.rsplit(":", 1)
        server_faults, client_faults = asyncio.run(
            scenario(host, int(port))
        )
    finally:
        process.kill()
        process.wait(timeout=10)
        process.stdout.close()
    assert server_faults / requests < 0.2, f"server: {server_faults}"
    assert client_faults / requests < 0.2, f"client: {client_faults}"
