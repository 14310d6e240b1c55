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

:class:`~repro.server.client.AsyncReproClient` reads through it:
``await read_frames()`` for the payloads completed so far, ``write`` +
``await drain()`` to send with flow control.  The server instead gives
each stream a sink, handed every frame inside the read callback that
decoded it, and the stream stops reading while its transport is paused
for writing.
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
    """Protocol half of one framed connection.  Create it on the running
    event loop.  Without ``accept`` frames wait for :meth:`read_frames`.
    With it — the server's side — ``accept(stream)`` is called once the
    transport exists and returns a sink, whose ``frame_received(payload)``
    (each frame, in order), ``framing_failed(error)`` (reading then
    stops for good), ``eof_received()`` and ``connection_lost(error)``
    are called from inside the transport's callbacks."""

    def __init__(
        self,
        max_frame: int = MAX_FRAME_BYTES,
        accept: "Optional[Callable[[FrameStream], object]]" = None,
    ) -> None:
        self._decoder = FrameDecoder(max_frame)
        self._buffer = memoryview(bytearray(READ_BYTES))
        self._accept = accept
        self._sink = None
        self._closing = False
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
        if self._accept is not None:
            self._sink = self._accept(self)

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
            if self._sink is not None:
                self._sink.framing_failed(error)
        else:
            if self._sink is not None:
                for payload in frames:
                    if self._closing:
                        break  # the sink hung up on an earlier frame
                    self._sink.frame_received(payload)
                return
            self._frames.extend(frames)
            self._queued += sum(map(len, frames))
            if self._queued > READ_BYTES:
                self._transport.pause_reading()  # idempotent
        self._readable.set()

    def eof_received(self) -> bool:
        self._eof = True
        self._readable.set()
        if self._sink is not None:
            self._sink.eof_received()
        return True  # the owner closes the transport, as with streams

    def connection_lost(self, error: Optional[Exception]) -> None:
        self._eof = True
        if self._error is None:
            self._error = error
        self._closed.set()
        self._readable.set()
        self._writable.set()
        if self._sink is not None:
            self._sink.connection_lost(error)

    def pause_writing(self) -> None:
        self._writable.clear()
        if self._sink is not None:
            # nobody awaits drain() in sink mode: stop taking requests
            # until the peer reads the replies already buffered
            self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._writable.set()
        if self._sink is not None and self._error is None:
            self._transport.resume_reading()

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
        self._closing = True
        self._transport.close()

    async def wait_closed(self) -> None:
        await self._closed.wait()
