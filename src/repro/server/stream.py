"""One connection's frames over an asyncio transport, read in place.

asyncio's stream reader asks the socket for 256 KiB on every read, and
glibc serves an allocation that large with ``mmap`` unless the heap
happens to hold a free hole of that size — so whether a process paid
an mmap, two page faults and a munmap *per request* depended on
incidental heap layout (a comment added to an unrelated module moved
``read_hot`` by a fifth).  :class:`FrameStream` is an
:class:`asyncio.BufferedProtocol` instead: the transport ``recv_into``s
one buffer allocated when the connection is made, and the received
slice goes straight to :meth:`~repro.server.protocol.FrameDecoder.feed`.

The server and :class:`~repro.server.client.AsyncReproClient` both use
it: ``await read_frames()`` for the payloads completed so far,
``write`` + ``await drain()`` to send with flow control.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

from repro.errors import ProtocolError
from repro.server.protocol import MAX_FRAME_BYTES, FrameDecoder

__all__ = ["READ_BYTES", "FrameStream"]

#: Size of the per-connection receive buffer, and the amount of decoded
#: but unread payload past which the transport stops reading (the peer
#: then blocks on its own send buffer: backpressure).
READ_BYTES = 65536


class FrameStream(asyncio.BufferedProtocol):
    """Protocol half of one framed connection.  ``connected``, when
    given, is called with the stream once its transport exists — the
    server's accept hook.  Create it on the running event loop."""

    def __init__(
        self,
        max_frame: int = MAX_FRAME_BYTES,
        connected: "Optional[Callable[[FrameStream], None]]" = None,
    ) -> None:
        self._decoder = FrameDecoder(max_frame)
        self._buffer = memoryview(bytearray(READ_BYTES))
        self._connected = connected
        self._transport: Optional[asyncio.Transport] = None
        self._frames: list[bytes] = []
        self._queued = 0  # payload bytes in _frames
        self._error: Optional[BaseException] = None
        self._eof = False
        self._readable = asyncio.Event()  # frames, an error or EOF
        self._writable = asyncio.Event()  # transport below high water
        self._writable.set()
        self._closed = asyncio.Event()

    # -- transport callbacks ------------------------------------------------

    def connection_made(self, transport) -> None:
        self._transport = transport
        if self._connected is not None:
            self._connected(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._buffer

    def buffer_updated(self, nbytes: int) -> None:
        try:
            frames = list(self._decoder.feed(self._buffer[:nbytes]))
        except ProtocolError as error:
            # alignment is lost for everything behind the bad frame, and
            # what shared its read is dropped with it
            self._error = error
            self._transport.pause_reading()
        else:
            self._frames.extend(frames)
            self._queued += sum(map(len, frames))
            if self._queued > READ_BYTES:
                self._transport.pause_reading()  # idempotent
        self._readable.set()

    def eof_received(self) -> bool:
        self._eof = True
        self._readable.set()
        return True  # the owner closes the transport, as with streams

    def connection_lost(self, error: Optional[Exception]) -> None:
        self._eof = True
        if self._error is None:
            self._error = error
        self._closed.set()
        self._readable.set()
        self._writable.set()

    def pause_writing(self) -> None:
        self._writable.clear()

    def resume_writing(self) -> None:
        self._writable.set()

    # -- the owner's side ---------------------------------------------------

    async def read_frames(self) -> list[bytes]:
        """Every payload completed since the last call, waiting for at
        least one; ``[]`` once the peer has closed.  Raises the
        :class:`ProtocolError` that broke the framing, or the error the
        connection was lost with."""
        while not self._frames:
            if self._error is not None:
                raise self._error
            if self._eof:
                return []
            self._readable.clear()
            await self._readable.wait()
        frames, self._frames, self._queued = self._frames, [], 0
        if self._error is None:
            self._transport.resume_reading()  # a no-op unless paused
        return frames

    def write(self, data: bytes) -> None:
        self._transport.write(data)

    async def drain(self) -> None:
        """Wait until the transport's write buffer is below its high
        water mark; raises once the connection is lost."""
        await self._writable.wait()
        if self._closed.is_set():
            raise ConnectionResetError("connection lost")

    def close(self) -> None:
        self._transport.close()

    async def wait_closed(self) -> None:
        await self._closed.wait()
