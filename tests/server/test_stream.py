"""``FrameStream``: the one buffered-protocol frame reader the server
and the asyncio client share.  Driven by hand against a recording
transport (counts and bytes, no clocks), then over real sockets for the
allocation behaviour it exists to fix."""

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
