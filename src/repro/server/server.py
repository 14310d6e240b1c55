"""The asyncio TCP server: wire protocol × admission control × store.

Request lifecycle::

    client ──frame──▶ read callback ──try_admit──┐
                        ╲ shed: queue_full /     │
                          shutting_down          │
          ┌──────────────────────────────────────┤
          ▼                                      ▼
    idle: answer in place              must wait (stall_ms, or work
    deadline → execute → encode →      admitted ahead): request queue →
    finish → write                     worker pop → deadline → stall →
                                       the same answer
                                         ╲ expired in queue: deadline
                                         ╲ wait_for timeout: killed
                                         ╲ dead connection:  orphaned

A request with nothing to wait for is answered inside the transport
callback that decoded it: decode, admit, execute, encode and write in
one synchronous pass, with no task, future or scheduled callback.  The
queue and the ``--workers`` tasks serve only requests that must wait —
a ``stall_ms`` (the simulated-I/O debug hook load tests use to model
slow queries, run under ``asyncio.wait_for`` so a deadline kills it),
or admitted work still queued or running ahead of it.  Admission keeps
the queue bounded (:mod:`repro.server.admission`), and the stream stops
reading a connection whose replies pile up unread.

Shutdown drains: the listener closes first, admitted requests finish
(bounded by ``drain_timeout``), workers are then cancelled and the
store is closed.  A client that disconnects mid-request costs nothing
but an ``orphaned`` count: its queued requests release their admission
slots without executing, and a failing response write marks the
connection dead rather than killing the worker.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import (
    ClusterDegradedError,
    ProtocolError,
    ReproError,
    ServerError,
)
from repro.obsv import registry as _obsv
from repro.server import protocol
from repro.server.admission import AdmissionController
from repro.server.dedup import DedupTable
from repro.server.store import ServerStore
from repro.server.stream import FrameStream

__all__ = ["ServerConfig", "ReproServer", "ThreadedServer", "serve_in_thread"]


@dataclass
class ServerConfig:
    """Everything a server needs; flat and picklable so drivers can ship
    it to child processes."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; ReproServer.port reports the bind
    backlog: int = 128
    workers: int = 4
    #: Admission bounds (see AdmissionController).
    queue_high: int = 64
    queue_low: Optional[int] = None
    per_connection: int = 16
    #: Default per-request deadline; None = no deadline unless the
    #: request carries one.
    deadline_ms: Optional[float] = None
    max_frame: int = protocol.MAX_FRAME_BYTES
    #: Honour the ``stall_ms`` debug op (load tests / benchmarks only).
    debug_ops: bool = False
    #: Seconds stop() waits for admitted requests before cancelling.
    drain_timeout: float = 5.0
    # -- backing (all five Session modes compose here) ----------------
    durable_dir: Optional[str] = None
    fsync: str = "batch(64, 100)"
    checkpoint_every: int = 256
    shards: Optional[int] = None
    replica_of: Optional[str] = field(default=None, repr=False)
    #: A :class:`~repro.cluster.ClusterConfig` (sharded primaries ×
    #: replica sets); mutually exclusive with the three legacy backings.
    cluster: Optional[object] = field(default=None, repr=False)
    #: Write-path isolation on the plain backing: "serial" (the
    #: single-writer TransactionManager), "si" or "ssi" (multi-writer
    #: MVCC, see repro.concurrency.mvcc).
    isolation: str = "serial"
    #: Exactly-once dedup window bounds (see repro.server.dedup).
    dedup_sessions: int = 1024
    dedup_replies: int = 32
    #: Run a ClusterSupervisor on the event loop (cluster backing only):
    #: probe/heal every ``supervise_interval`` seconds, declaring a
    #: primary dead after ``supervise_failures`` consecutive failures.
    supervise: bool = False
    supervise_interval: float = 0.25
    supervise_failures: int = 3

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServerError(f"workers must be ≥ 1, got {self.workers}")
        if self.supervise and self.cluster is None:
            raise ServerError(
                "supervise=True needs a cluster backing "
                "(cluster=ClusterConfig(...))"
            )


class _Connection:
    """Per-connection state — identity, liveness, read view — and the
    sink its :class:`FrameStream` reports to."""

    __slots__ = ("id", "server", "stream", "alive", "view")

    _ids = itertools.count(1)

    def __init__(self, server: "ReproServer", stream: FrameStream) -> None:
        self.id = next(self._ids)
        self.server = server
        self.stream = stream
        self.alive = True
        self.view = server.store.view()

    def frame_received(self, payload: bytes) -> None:
        self.server._receive(self, payload)

    def framing_failed(self, error: ProtocolError) -> None:
        self.server._refuse(self, error)

    def eof_received(self) -> None:
        self.close()

    def connection_lost(self, error: Optional[Exception]) -> None:
        self.server._lost(self)

    def close(self) -> None:
        """Hang up; requests still queued become orphans."""
        self.alive = False
        self.stream.close()


@dataclass
class _Request:
    """One admitted request waiting in / moving through the queue."""

    connection: _Connection
    message: dict
    admitted_at: float
    deadline: Optional[float]  # absolute perf_counter seconds


class ReproServer:
    """One listening socket over one :class:`ServerStore`."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.store = ServerStore(
            durable_dir=config.durable_dir,
            fsync=config.fsync,
            checkpoint_every=config.checkpoint_every,
            shards=config.shards,
            replica_of=config.replica_of,
            cluster=config.cluster,
            isolation=config.isolation,
        )
        self.admission = AdmissionController(
            queue_high=config.queue_high,
            queue_low=config.queue_low,
            per_connection=config.per_connection,
        )
        self.dedup = DedupTable(
            max_sessions=config.dedup_sessions,
            max_replies=config.dedup_replies,
        )
        self.supervisor = None
        self.supervisor_ticks = 0
        self._supervisor_task: Optional[asyncio.Task] = None
        self._queue: "asyncio.Queue[_Request]" = asyncio.Queue()
        self._server: Optional[asyncio.base_events.Server] = None
        self._workers: list[asyncio.Task] = []
        self._connections: set[_Connection] = set()
        self._draining = False
        self.connections_opened = 0
        self.connections_closed = 0
        self.protocol_errors = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The actual bound port (meaningful after start())."""
        if self._server is None:
            raise ServerError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self.config.host

    async def start(self) -> None:
        self._server = await asyncio.get_running_loop().create_server(
            lambda: FrameStream(self.config.max_frame, accept=self._accept),
            self.config.host,
            self.config.port,
            backlog=self.config.backlog,
        )
        self._workers = [
            asyncio.ensure_future(self._worker())
            for _ in range(self.config.workers)
        ]
        if self.config.supervise and self.store.cluster is not None:
            from repro.cluster.supervisor import ClusterSupervisor

            self.supervisor = ClusterSupervisor(
                self.store.cluster,
                probe_interval=self.config.supervise_interval,
                failure_threshold=self.config.supervise_failures,
            )
            self._supervisor_task = asyncio.ensure_future(
                self._supervise()
            )

    async def _supervise(self) -> None:
        """Tick the supervisor on the event loop: probes and repairs
        serialize with writes, so a failover never races an execute."""
        assert self.supervisor is not None
        while True:
            await asyncio.sleep(self.config.supervise_interval)
            try:
                self.supervisor.tick()
            except Exception:  # pragma: no cover - defensive
                pass
            self.supervisor_ticks += 1

    async def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: close the listener, drain admitted
        requests, cancel workers, close connections and the store."""
        self._draining = True
        if self._supervisor_task is not None:
            self._supervisor_task.cancel()
            await asyncio.gather(
                self._supervisor_task, return_exceptions=True
            )
            self._supervisor_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            try:
                await asyncio.wait_for(
                    self._queue.join(), self.config.drain_timeout
                )
            except asyncio.TimeoutError:
                pass
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        for connection in list(self._connections):
            connection.close()
        self._connections.clear()
        self.store.close()

    # -- connection handling --------------------------------------------------
    #
    # Everything here runs inside a transport callback, so nothing may
    # raise out of it: asyncio would fatally close the connection.

    def _accept(self, stream: FrameStream) -> _Connection:
        connection = _Connection(self, stream)
        self._connections.add(connection)
        self.connections_opened += 1
        if _obsv.enabled():
            _obsv.get().counter("server.connections_opened").inc()
        return connection

    def _lost(self, connection: _Connection) -> None:
        connection.alive = False
        self._connections.discard(connection)
        self.connections_closed += 1
        if _obsv.enabled():
            _obsv.get().counter("server.connections_closed").inc()

    def _refuse(self, connection: _Connection, error: ProtocolError) -> None:
        """A broken frame or a malformed request: report and hang up."""
        self.protocol_errors += 1
        if _obsv.enabled():
            _obsv.get().counter("server.protocol_errors").inc()
        self._reply(
            connection,
            None,
            protocol.STATUS_ERROR,
            error=str(error),
            error_type="ProtocolError",
        )
        connection.close()

    def _receive(self, connection: _Connection, payload: bytes) -> None:
        try:
            message = protocol.validate_request(
                protocol.decode_message(payload)
            )
        except ProtocolError as error:
            self._refuse(connection, error)
            return
        try:
            self._admit(connection, message)
        except Exception:  # pragma: no cover - defensive
            connection.close()

    def _admit(self, connection: _Connection, message: dict) -> None:
        request_id = message.get("id")
        op = message["op"]
        # control ops answer inline — no queue, and they keep working
        # while draining so operators can watch the drain
        if op == protocol.OP_PING:
            self._reply(
                connection,
                request_id,
                protocol.STATUS_OK,
                txn=self.store.transaction_number,
            )
            return
        if op == protocol.OP_METRICS:
            self._reply(
                connection,
                request_id,
                protocol.STATUS_OK,
                metrics=self.metrics_snapshot(),
            )
            return
        if self._draining:
            self._reply(
                connection,
                request_id,
                protocol.STATUS_SHUTDOWN,
                error="server is draining",
            )
            return
        if op == protocol.OP_EXECUTE:
            token = message.get("session")
            if token is not None:
                # exactly-once fast path: a retransmission of a request
                # we already answered replays the cached reply without
                # taking a queue slot
                verdict, cached = self.dedup.lookup(
                    token, message["seq"]
                )
                if verdict == "hit":
                    assert cached is not None
                    self._send(
                        connection,
                        dict(cached, id=request_id, replayed=True),
                    )
                    return
                if verdict == "stale":
                    self._reply(
                        connection,
                        request_id,
                        protocol.STATUS_ERROR,
                        error=(
                            f"seq {message['seq']} already executed "
                            "but its cached reply left the dedup "
                            "window; refusing to re-apply"
                        ),
                        error_type="ServerError",
                    )
                    return
            if self.store.fully_degraded:
                # every shard is shedding writes: answer here instead
                # of queueing work guaranteed to fail
                self.admission.shed_degraded()
                self._reply(
                    connection,
                    request_id,
                    protocol.STATUS_DEGRADED,
                    error=(
                        "every shard is degraded (no live "
                        "primaries); writes are shed until the "
                        "supervisor repairs the cluster"
                    ),
                    error_type="ClusterDegradedError",
                )
                return
        reason = self.admission.try_admit(connection.id)
        if reason is not None:
            self._reply(
                connection,
                request_id,
                protocol.STATUS_QUEUE_FULL,
                error=f"request shed: {reason}",
            )
            return
        admitted_at = time.perf_counter()
        deadline_ms = message.get("deadline_ms", self.config.deadline_ms)
        deadline = (
            admitted_at + deadline_ms / 1e3
            if deadline_ms is not None
            else None
        )
        request = _Request(connection, message, admitted_at, deadline)
        if (
            self._stall_ms(message)
            or not self._queue.empty()
            or self.admission.inflight
        ):
            self._queue.put_nowait(request)
        elif self._start(request):
            self._complete(request)

    # -- requests that must wait ----------------------------------------------

    async def _worker(self) -> None:
        while True:
            try:
                request = await self._queue.get()
            except asyncio.CancelledError:
                return
            try:
                await self._process(request)
            except asyncio.CancelledError:
                return
            except Exception:  # pragma: no cover - defensive
                pass
            finally:
                self._queue.task_done()

    async def _process(self, request: _Request) -> None:
        connection = request.connection
        if not connection.alive:
            # the client hung up while this request was queued: release
            # the admission slot without occupying a worker
            self._finish(request, "orphaned", executed=False)
            return
        if not self._start(request):
            return
        stall_ms = self._stall_ms(request.message)
        if stall_ms:
            remaining = (
                request.deadline - time.perf_counter()
                if request.deadline is not None
                else None
            )
            try:
                # simulated I/O: the cancellable await that wait_for
                # kills on deadline, and that lets workers overlap
                await asyncio.wait_for(
                    asyncio.sleep(stall_ms / 1e3), remaining
                )
            except asyncio.TimeoutError:
                self._finish(request, "killed")
                self._reply(
                    connection,
                    request.message.get("id"),
                    protocol.STATUS_DEADLINE,
                    error="deadline expired mid-execution; query killed",
                )
                return
        self._complete(request)

    def _finish(
        self, request: _Request, outcome: str, executed: bool = True
    ) -> None:
        self.admission.finish(
            request.connection.id,
            admitted_at=request.admitted_at,
            executed=executed,
            outcome=outcome,
        )

    def _stall_ms(self, message: dict) -> Optional[float]:
        return message.get("stall_ms") if self.config.debug_ops else None

    # -- answering ------------------------------------------------------------

    def _start(self, request: _Request) -> bool:
        """Start executing an admitted request — unless its deadline
        passed before it could run: then answer ``deadline``."""
        if request.deadline is None or time.perf_counter() < request.deadline:
            self.admission.start()
            return True
        self._finish(request, "expired", executed=False)
        self._reply(
            request.connection,
            request.message.get("id"),
            protocol.STATUS_DEADLINE,
            error="deadline expired while queued",
        )
        return False

    def _complete(self, request: _Request) -> None:
        """Answer a started request, finish it and write the reply.
        The reply is encoded before ``finish``, so one too large for a
        frame counts as the error its client receives."""
        outcome = "completed"
        try:
            data = protocol.encode_message(
                self._answer(request), self.config.max_frame
            )
        except Exception as error:
            if not isinstance(error, ReproError):  # pragma: no cover
                error = ServerError(f"internal server error: {error}")
            # a shard with no live primary shed the write — transient,
            # retryable, never cached
            degraded = isinstance(error, ClusterDegradedError)
            outcome = "degraded" if degraded else "error"
            data = self._encode(
                protocol.response(
                    request.message.get("id"),
                    protocol.STATUS_DEGRADED
                    if degraded
                    else protocol.STATUS_ERROR,
                    error=str(error),
                    error_type=type(error).__name__,
                )
            )
        self._finish(request, outcome)
        self._write(request.connection, data)

    def _answer(self, request: _Request) -> dict:
        message = request.message
        request_id = message.get("id")
        op = message["op"]
        source = message.get("source", "")
        if op == protocol.OP_QUERY:
            return protocol.response(
                request_id,
                protocol.STATUS_OK,
                result=request.connection.view.query(source),
            )
        if op == protocol.OP_EXECUTE:
            token = message.get("session")
            seq = message.get("seq")
            if token is not None:
                # check again at the last moment: the original may have
                # been queued behind this retransmission.  Nothing
                # yields between this lookup and execute-and-record, so
                # the pair is atomic under the event loop.
                verdict, cached = self.dedup.lookup(
                    token, seq, count_miss=False
                )
                if verdict == "hit":
                    assert cached is not None
                    return dict(cached, id=request_id, replayed=True)
                if verdict == "stale":
                    raise ServerError(
                        f"seq {seq} already executed but its cached "
                        "reply left the dedup window; refusing to "
                        "re-apply"
                    )
            try:
                txn = self.store.execute(source)
            except ClusterDegradedError:
                raise  # transient: retryable, never recorded
            except ReproError as error:
                if token is not None:
                    # the sentence executed and failed deterministically:
                    # that verdict is definitive, so retransmissions
                    # must replay it rather than run the sentence again
                    self.dedup.record(
                        token,
                        seq,
                        protocol.response(
                            request_id,
                            protocol.STATUS_ERROR,
                            error=str(error),
                            error_type=type(error).__name__,
                        ),
                    )
                raise
            reply = protocol.response(
                request_id, protocol.STATUS_OK, txn=txn
            )
            if token is not None:
                self.dedup.record(token, seq, reply)
            return reply
        if op == protocol.OP_EXPLAIN:
            return protocol.response(
                request_id,
                protocol.STATUS_OK,
                result=request.connection.view.explain(source),
            )
        raise ProtocolError(f"unhandled op {op!r}")  # pragma: no cover

    def _encode(self, message: dict) -> bytes:
        try:
            return protocol.encode_message(message, self.config.max_frame)
        except ProtocolError as error:
            # too large for one frame: degrade to an error reply
            return protocol.encode_message(
                protocol.response(
                    message.get("id"),
                    protocol.STATUS_ERROR,
                    error=str(error),
                    error_type="ProtocolError",
                ),
                self.config.max_frame,
            )

    def _send(self, connection: _Connection, message: dict) -> None:
        self._write(connection, self._encode(message))

    def _reply(
        self, connection: _Connection, request_id, status: str, **fields
    ) -> None:
        self._send(connection, protocol.response(request_id, status, **fields))

    def _write(self, connection: _Connection, data: bytes) -> None:
        """A failing write marks the connection dead instead of
        raising into the read callback or the worker."""
        if not connection.alive:
            return
        try:
            connection.stream.write(data)
        except (ConnectionError, OSError):
            connection.alive = False

    # -- observation -----------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """The full ``server.*`` surface (always available, independent
        of the process-wide obsv switch)."""
        snapshot = self.admission.snapshot()
        snapshot["server.connections_open"] = len(self._connections)
        snapshot["server.connections_opened"] = self.connections_opened
        snapshot["server.connections_closed"] = self.connections_closed
        snapshot["server.protocol_errors"] = self.protocol_errors
        snapshot["server.transaction_number"] = (
            self.store.transaction_number
        )
        snapshot["server.workers"] = self.config.workers
        snapshot["server.isolation"] = self.store.isolation
        snapshot["server.draining"] = int(self._draining)
        snapshot.update(self.dedup.snapshot())
        snapshot["server.degraded_shards"] = len(
            self.store.degraded_shards
        )
        snapshot["server.supervisor_ticks"] = self.supervisor_ticks
        return snapshot


# -- running a server from synchronous code -----------------------------------


class ThreadedServer:
    """A server running its own event loop in a daemon thread — the
    shape tests, benchmarks and the load driver's parent process use."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.server: Optional[ReproServer] = None
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if self.server is None:
            raise ServerError("server failed to start within 30s")

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            server = ReproServer(self.config)
            self._loop.run_until_complete(server.start())
            self.server = server
        except BaseException as error:
            self._startup_error = error
            self._started.set()
            return
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        assert self.server is not None
        return self._on_loop(lambda: self.server.port)

    def metrics(self) -> dict:
        assert self.server is not None
        return self._on_loop(self.server.metrics_snapshot)

    def _on_loop(self, fn):
        """Evaluate ``fn()`` on the server's event loop thread, so the
        caller never races the single-threaded server state."""
        future = asyncio.run_coroutine_threadsafe(_call(fn), self._loop)
        return future.result(timeout=10)

    def stop(self, drain: bool = True) -> None:
        if self.server is not None and self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.server.stop(drain=drain), self._loop
            )
            try:
                future.result(timeout=30)
            finally:
                self._loop.call_soon_threadsafe(self._loop.stop)
                self._thread.join(timeout=30)

    def __enter__(self) -> "ThreadedServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


async def _call(fn):
    return fn()


def serve_in_thread(config: Optional[ServerConfig] = None) -> ThreadedServer:
    """Start a server on a background thread; returns the handle."""
    return ThreadedServer(config if config is not None else ServerConfig())
