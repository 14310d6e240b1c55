"""Clients for the wire protocol: blocking sockets and asyncio.

Both clients speak strict request/response on one connection (send,
await the matching reply) — the protocol permits pipelining, but the
server's worker pool does not promise cross-request ordering, so the
clients keep effects ordered the simple way.  Server-side failure
statuses surface as the typed exceptions from :mod:`repro.errors`:

=================  =========================================
response status    raised
=================  =========================================
``queue_full``     :class:`QueueFullError` (retry with backoff)
``deadline``       :class:`DeadlineExceededError`
``shutting_down``  :class:`ServerShutdownError`
``degraded``       :class:`ClusterDegradedError` (a shard has no live
                   primary; retry once the supervisor repairs it)
``error``          :class:`RemoteError` (``.remote_type`` holds the
                   server-side exception class name)
=================  =========================================

A connection that closes mid-response (or mid-request — a broken pipe
while sending) raises :class:`ConnectionClosedError`.

:class:`RetryingClient` / :class:`AsyncRetryingClient` wrap the base
clients with reconnect-and-retry under a
:class:`~repro.replication.retry.RetryPolicy`.  Every ``execute``
carries the wrapper's session token and a per-request sequence number,
so a retry after a mid-write connection loss is *exactly once*: if the
original sentence landed, the server's dedup table replays the cached
reply instead of applying it again.
"""

from __future__ import annotations

import asyncio
import os
import socket
from typing import Callable, Optional

from repro.errors import (
    ClusterDegradedError,
    ConnectionClosedError,
    DeadlineExceededError,
    ProtocolError,
    QueueFullError,
    RemoteError,
    RetryExhaustedError,
    ServerShutdownError,
)
from repro.replication.retry import RetryPolicy
from repro.server import protocol
from repro.server.stream import FrameStream

__all__ = [
    "ReproClient",
    "AsyncReproClient",
    "RetryingClient",
    "AsyncRetryingClient",
    "RETRYABLE_ERRORS",
    "raise_for_status",
]

#: What the retrying wrappers retry: saturation, lost connections,
#: draining servers, and shards awaiting repair.  Everything else —
#: deadline expiry (the work may have run), remote evaluation errors —
#: surfaces immediately.
RETRYABLE_ERRORS = (
    QueueFullError,
    ConnectionClosedError,
    ServerShutdownError,
    ClusterDegradedError,
)


def raise_for_status(reply: dict) -> dict:
    """Map a non-``ok`` response onto its typed exception; return the
    reply unchanged when it is ``ok``."""
    status = reply.get("status")
    if status == protocol.STATUS_OK:
        return reply
    error = reply.get("error", "request failed")
    if status == protocol.STATUS_QUEUE_FULL:
        raise QueueFullError(error)
    if status == protocol.STATUS_DEADLINE:
        raise DeadlineExceededError(error)
    if status == protocol.STATUS_SHUTDOWN:
        raise ServerShutdownError(error)
    if status == protocol.STATUS_DEGRADED:
        raise ClusterDegradedError(error)
    if status == protocol.STATUS_ERROR:
        raise RemoteError(
            error, remote_type=reply.get("error_type", "ReproError")
        )
    raise ProtocolError(f"unknown response status {status!r}")


class _RequestMixin:
    """The op surface both clients share; subclasses provide
    ``_request(message) -> reply``."""

    _next_id: int

    def _message(
        self,
        op: str,
        source: Optional[str] = None,
        *,
        deadline_ms: Optional[float] = None,
        stall_ms: Optional[float] = None,
        session: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> dict:
        self._next_id += 1
        return protocol.request(
            self._next_id,
            op,
            source,
            deadline_ms=deadline_ms,
            stall_ms=stall_ms,
            session=session,
            seq=seq,
        )


class ReproClient(_RequestMixin):
    """A blocking, socket-per-instance client."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: Optional[float] = 30.0,
        max_frame: int = protocol.MAX_FRAME_BYTES,
    ) -> None:
        self._socket = socket.create_connection((host, port), timeout)
        self._decoder = protocol.FrameDecoder(max_frame)
        self._max_frame = max_frame
        self._pending: list[bytes] = []
        self._next_id = 0

    # -- plumbing -------------------------------------------------------------

    def _request(self, message: dict) -> dict:
        try:
            self._socket.sendall(
                protocol.encode_message(message, self._max_frame)
            )
        except OSError as error:
            raise ConnectionClosedError(
                f"connection lost sending a request: {error}"
            ) from error
        while True:
            reply = self._read_reply()
            if reply.get("id") == message["id"]:
                return raise_for_status(reply)
            # A reply for an earlier id: a duplicated request frame (a
            # retransmission the network relayed twice) produced an
            # extra response.  Discard it and keep reading.

    def _read_reply(self) -> dict:
        while not self._pending:
            try:
                chunk = self._socket.recv(65536)
            except OSError as error:
                raise ConnectionClosedError(
                    f"connection lost awaiting a response: {error}"
                ) from error
            if not chunk:
                raise ConnectionClosedError(
                    "server closed the connection before responding"
                )
            self._pending.extend(self._decoder.feed(chunk))
        return protocol.decode_message(self._pending.pop(0))

    # -- ops ------------------------------------------------------------------

    def query(
        self,
        source: str,
        *,
        deadline_ms: Optional[float] = None,
        stall_ms: Optional[float] = None,
    ) -> str:
        """Evaluate an expression; returns the printed relation."""
        reply = self._request(
            self._message(
                protocol.OP_QUERY,
                source,
                deadline_ms=deadline_ms,
                stall_ms=stall_ms,
            )
        )
        return reply["result"]

    def execute(
        self,
        source: str,
        *,
        deadline_ms: Optional[float] = None,
        session: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> int:
        """Execute a sentence; returns the new transaction number.

        ``session``/``seq`` opt into the server's exactly-once dedup
        window (see :mod:`repro.server.protocol`); the retrying
        wrappers stamp them automatically."""
        reply = self._request(
            self._message(
                protocol.OP_EXECUTE,
                source,
                deadline_ms=deadline_ms,
                session=session,
                seq=seq,
            )
        )
        return reply["txn"]

    def explain(self, source: str) -> str:
        reply = self._request(self._message(protocol.OP_EXPLAIN, source))
        return reply["result"]

    def ping(self) -> int:
        """Round-trip; returns the server's transaction number."""
        reply = self._request(self._message(protocol.OP_PING))
        return reply["txn"]

    def metrics(self) -> dict:
        """The server's ``server.*`` metrics snapshot."""
        reply = self._request(self._message(protocol.OP_METRICS))
        return reply["metrics"]

    def close(self) -> None:
        try:
            self._socket.close()
        except OSError:
            pass

    def __enter__(self) -> "ReproClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class AsyncReproClient(_RequestMixin):
    """The same surface over an asyncio :class:`FrameStream`; hundreds share
    one event loop in the load driver."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame: int = protocol.MAX_FRAME_BYTES,
    ) -> None:
        self._host = host
        self._port = port
        self._max_frame = max_frame
        self._pending: list[bytes] = []
        self._writer: Optional[FrameStream] = None
        self._next_id = 0

    async def connect(self) -> "AsyncReproClient":
        _, self._writer = (
            await asyncio.get_running_loop().create_connection(
                lambda: FrameStream(self._max_frame),
                self._host,
                self._port,
            )
        )
        return self

    async def _request(self, message: dict) -> dict:
        if self._writer is None:
            raise ConnectionClosedError("client is not connected")
        try:
            self._writer.write(
                protocol.encode_message(message, self._max_frame)
            )
            await self._writer.drain()
        except (ConnectionError, OSError) as error:
            raise ConnectionClosedError(
                f"connection lost sending a request: {error}"
            ) from error
        while True:
            reply = await self._read_reply()
            if reply.get("id") == message["id"]:
                return raise_for_status(reply)
            # Extra reply from a duplicated request frame — discard.

    async def _read_reply(self) -> dict:
        assert self._writer is not None
        while not self._pending:
            try:
                self._pending = await self._writer.read_frames()
            except (ConnectionError, OSError) as error:
                raise ConnectionClosedError(
                    f"connection lost awaiting a response: {error}"
                ) from error
            if not self._pending:
                raise ConnectionClosedError(
                    "server closed the connection before responding"
                )
        return protocol.decode_message(self._pending.pop(0))

    # -- ops ------------------------------------------------------------------

    async def query(
        self,
        source: str,
        *,
        deadline_ms: Optional[float] = None,
        stall_ms: Optional[float] = None,
    ) -> str:
        reply = await self._request(
            self._message(
                protocol.OP_QUERY,
                source,
                deadline_ms=deadline_ms,
                stall_ms=stall_ms,
            )
        )
        return reply["result"]

    async def execute(
        self,
        source: str,
        *,
        deadline_ms: Optional[float] = None,
        session: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> int:
        reply = await self._request(
            self._message(
                protocol.OP_EXECUTE,
                source,
                deadline_ms=deadline_ms,
                session=session,
                seq=seq,
            )
        )
        return reply["txn"]

    async def explain(self, source: str) -> str:
        reply = await self._request(
            self._message(protocol.OP_EXPLAIN, source)
        )
        return reply["result"]

    async def ping(self) -> int:
        reply = await self._request(self._message(protocol.OP_PING))
        return reply["txn"]

    async def metrics(self) -> dict:
        reply = await self._request(self._message(protocol.OP_METRICS))
        return reply["metrics"]

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None

    async def __aenter__(self) -> "AsyncReproClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()


class RetryingClient:
    """A blocking client that reconnects and retries under a
    :class:`RetryPolicy`, with exactly-once executes.

    Each instance owns a session token (random by default, injectable
    for tests) and stamps every ``execute`` with the next sequence
    number.  The seq is fixed *before* the first attempt, so every
    retry retransmits the same ``(session, seq)`` and the server's
    dedup table guarantees the sentence applies at most once; the retry
    loop guarantees it applies at least once or raises
    :class:`~repro.errors.RetryExhaustedError`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        retry: Optional[RetryPolicy] = None,
        timeout: Optional[float] = 30.0,
        max_frame: int = protocol.MAX_FRAME_BYTES,
        session_token: Optional[str] = None,
    ) -> None:
        self._host = host
        self._port = port
        self._timeout = timeout
        self._max_frame = max_frame
        self._retry = retry if retry is not None else RetryPolicy()
        self._session = session_token or os.urandom(12).hex()
        self._seq = 0
        self._client: Optional[ReproClient] = None

    @property
    def session_token(self) -> str:
        return self._session

    @property
    def last_seq(self) -> int:
        """The sequence number of the most recent execute."""
        return self._seq

    # -- plumbing -------------------------------------------------------------

    def _connected(self) -> ReproClient:
        if self._client is None:
            try:
                self._client = ReproClient(
                    self._host,
                    self._port,
                    timeout=self._timeout,
                    max_frame=self._max_frame,
                )
            except OSError as error:
                raise ConnectionClosedError(
                    f"cannot reach {self._host}:{self._port}: {error}"
                ) from error
        return self._client

    def _drop(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None

    def _call(self, op: Callable[[ReproClient], object], describe: str):
        def attempt():
            try:
                return op(self._connected())
            except (ConnectionClosedError, ServerShutdownError):
                # Reconnect next attempt; a draining server's successor
                # needs a fresh connection anyway.
                self._drop()
                raise

        return self._retry.run(
            attempt, retry_on=RETRYABLE_ERRORS, describe=describe
        )

    # -- ops ------------------------------------------------------------------

    def query(
        self,
        source: str,
        *,
        deadline_ms: Optional[float] = None,
        stall_ms: Optional[float] = None,
    ) -> str:
        return self._call(
            lambda client: client.query(
                source, deadline_ms=deadline_ms, stall_ms=stall_ms
            ),
            describe=f"query {source!r}",
        )

    def execute(
        self, source: str, *, deadline_ms: Optional[float] = None
    ) -> int:
        self._seq += 1
        seq = self._seq
        return self._call(
            lambda client: client.execute(
                source,
                deadline_ms=deadline_ms,
                session=self._session,
                seq=seq,
            ),
            describe=f"execute seq {seq}",
        )

    def explain(self, source: str) -> str:
        return self._call(
            lambda client: client.explain(source),
            describe=f"explain {source!r}",
        )

    def ping(self) -> int:
        return self._call(lambda client: client.ping(), describe="ping")

    def metrics(self) -> dict:
        return self._call(
            lambda client: client.metrics(), describe="metrics"
        )

    def close(self) -> None:
        self._drop()

    def __enter__(self) -> "RetryingClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class AsyncRetryingClient:
    """:class:`RetryingClient` semantics over asyncio.

    :meth:`RetryPolicy.run` sleeps synchronously, so the retry loop is
    reimplemented here over :meth:`RetryPolicy.delays` with
    ``asyncio.sleep`` — same attempt budget, deadline, and exhaustion
    behaviour."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        retry: Optional[RetryPolicy] = None,
        max_frame: int = protocol.MAX_FRAME_BYTES,
        session_token: Optional[str] = None,
    ) -> None:
        self._host = host
        self._port = port
        self._max_frame = max_frame
        self._retry = retry if retry is not None else RetryPolicy()
        self._session = session_token or os.urandom(12).hex()
        self._seq = 0
        self._client: Optional[AsyncReproClient] = None

    @property
    def session_token(self) -> str:
        return self._session

    @property
    def last_seq(self) -> int:
        return self._seq

    # -- plumbing -------------------------------------------------------------

    async def _connected(self) -> AsyncReproClient:
        if self._client is None:
            client = AsyncReproClient(
                self._host, self._port, max_frame=self._max_frame
            )
            try:
                await client.connect()
            except OSError as error:
                raise ConnectionClosedError(
                    f"cannot reach {self._host}:{self._port}: {error}"
                ) from error
            self._client = client
        return self._client

    async def _drop(self) -> None:
        if self._client is not None:
            client, self._client = self._client, None
            await client.close()

    async def _call(self, op, describe: str):
        policy = self._retry
        start = policy._clock()
        delays = policy.delays()
        last_error: Optional[BaseException] = None
        for attempt in range(1, policy.max_attempts + 1):
            try:
                client = await self._connected()
                return await op(client)
            except RETRYABLE_ERRORS as error:
                if isinstance(
                    error, (ConnectionClosedError, ServerShutdownError)
                ):
                    await self._drop()
                last_error = error
                if attempt == policy.max_attempts:
                    break
                delay = next(delays)
                if (
                    policy.deadline is not None
                    and policy._clock() - start + delay > policy.deadline
                ):
                    break
                if delay > 0:
                    await asyncio.sleep(delay)
        elapsed = policy._clock() - start
        raise RetryExhaustedError(
            f"{describe} failed after {attempt} attempt(s) in "
            f"{elapsed:.3f}s: {last_error}",
            attempts=attempt,
            elapsed=elapsed,
        ) from last_error

    # -- ops ------------------------------------------------------------------

    async def query(
        self,
        source: str,
        *,
        deadline_ms: Optional[float] = None,
        stall_ms: Optional[float] = None,
    ) -> str:
        return await self._call(
            lambda client: client.query(
                source, deadline_ms=deadline_ms, stall_ms=stall_ms
            ),
            describe=f"query {source!r}",
        )

    async def execute(
        self, source: str, *, deadline_ms: Optional[float] = None
    ) -> int:
        self._seq += 1
        seq = self._seq
        return await self._call(
            lambda client: client.execute(
                source,
                deadline_ms=deadline_ms,
                session=self._session,
                seq=seq,
            ),
            describe=f"execute seq {seq}",
        )

    async def explain(self, source: str) -> str:
        return await self._call(
            lambda client: client.explain(source),
            describe=f"explain {source!r}",
        )

    async def ping(self) -> int:
        return await self._call(
            lambda client: client.ping(), describe="ping"
        )

    async def metrics(self) -> dict:
        return await self._call(
            lambda client: client.metrics(), describe="metrics"
        )

    async def close(self) -> None:
        await self._drop()

    async def __aenter__(self) -> "AsyncRetryingClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()


def connect(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    timeout: Optional[float] = 30.0,
) -> ReproClient:
    """Convenience: a connected blocking client."""
    return ReproClient(host, port, timeout=timeout)
