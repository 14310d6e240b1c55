"""The end-to-end run: a real server subprocess, two closed-loop
connections, every reply verified, then a kill and a recovery.

One run of one workload:

1. the sentences and the oracle's replies are generated (no clock);
2. set-up is timed ``setups`` times on fresh servers — spawn
   ``python -m repro serve``, preload over the wire, warm up — and all
   but the last server are killed;
3. the timed window replays the rest of both streams, each connection
   sending its next request only after the previous reply;
4. the server is SIGKILLed, its directory measured and copied, and the
   copies are reopened in this process to time recovery and to check
   that what was acknowledged survived.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import itertools
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from repro.errors import ReproError, UnknownRelationError
from repro.lang.parser import parse_expression, parse_sentence
from repro.lang.session import Session
from repro.server.client import AsyncReproClient
from repro.server.store import render_state
from repro.workloads.sentences import EXECUTE, QUERY

from benchmarks.e2e.workloads import CONNECTIONS, WARMUP_SHARE, Workload

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
SOURCE = os.path.join(ROOT, "src")

#: Every file a run writes lives under here and is removed with it.
WORK_ROOT = os.path.join(ROOT, ".bench_e2e")

#: Set-ups timed per run; ``setup_s`` is their median.
SETUPS = 3

#: Reopens of the killed directory per run; ``recovery_s`` is their
#: median.
RECOVERY_OPENS = 5

#: Writes replayed on the simulated disk whose crash drops unsynced
#: bytes (a SIGKILL leaves them in the operating system's cache).
CRASH_PREFIX = 200

NO_STATE = "∅ (no recorded state)"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def work_directory() -> "tempfile.TemporaryDirectory[str]":
    os.makedirs(WORK_ROOT, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=WORK_ROOT)


@contextlib.contextmanager
def pinned() -> "Iterator[int | None]":
    """Pin this process (the load generator) to one core and yield
    another for the server — ``None`` when only one core is allowed.
    Unpinned, the scheduler moves the two busy processes between the
    box's two cores and identical runs differ by a quarter."""
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2:
        yield None
        return
    server_core, generator_core = sorted(allowed)[:2]
    os.sched_setaffinity(0, {generator_core})
    try:
        yield server_core
    finally:
        os.sched_setaffinity(0, allowed)


# -- the oracle ------------------------------------------------------------------


@dataclass
class Oracle:
    """What an in-process plain ``Session`` answers to the same
    sentences."""

    #: Per connection, one entry per stream item: the reply's digest
    #: for a query, None for a write.
    replies: "list[list[str | None]]"
    #: Per relation, the digest of every state it ever recorded, oldest
    #: first, after the digest of having none.
    versions: "dict[str, list[str]]"


def oracle(workload: Workload) -> Oracle:
    """Replay the workload on a plain session.  Connection 0's stream
    runs before connection 1's: relations are namespaced and timed
    reads name either ``now`` or a preloaded transaction number, so no
    reply depends on how the server interleaves the two."""
    session = Session()
    for _, text in workload.preload:
        session.execute(text)
    if session.transaction_number != len(workload.preload):
        raise AssertionError(
            "every preload item must commit exactly one transaction"
        )
    replies = []
    for stream in workload.streams:
        replies.append([])
        for kind, text in stream:
            if kind == QUERY:
                replies[-1].append(digest(render_state(session.query(text))))
            else:
                session.execute(text)
                replies[-1].append(None)
    versions = {
        name: [digest(NO_STATE)] + [
            digest(render_state(state))
            for state, _ in session.database.require(name)
        ]
        for name in itertools.chain.from_iterable(workload.relations)
    }
    return Oracle(replies, versions)


def current_digest(evaluate, name: str) -> "str | None":
    """The digest of ``name``'s current state under ``evaluate``; None
    when the relation is not defined there."""
    try:
        state = evaluate(parse_expression(f"rollback({name}, now)"))
    except UnknownRelationError:
        return None
    return digest(render_state(state))


# -- the served stack ------------------------------------------------------------


class ServedStack:
    """One server subprocess over a fresh directory and the client
    connections to it.  Leaving the block kills the server (SIGKILL)
    and waits for it; the directory stays for the caller, with the
    server's standard error in ``<directory>.stderr`` beside it."""

    def __init__(
        self, workload: Workload, directory: str, core: "int | None"
    ) -> None:
        self._workload = workload
        self._directory = directory
        self._core = core
        self._process: "subprocess.Popen[str] | None" = None
        self.clients: "list[AsyncReproClient]" = []

    async def __aenter__(self) -> "ServedStack":
        stderr_path = self._directory + ".stderr"
        with open(stderr_path, "wb") as stderr:
            self._process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--port", "0", "--workers", "2",
                    *self._workload.backing.serve_args(self._directory),
                ],
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
                env=dict(os.environ, PYTHONPATH=SOURCE),
                cwd=ROOT,
            )
        try:
            if self._core is not None:
                os.sched_setaffinity(self._process.pid, {self._core})
            banner = self._process.stdout.readline()
            if "listening on" not in banner:
                self._process.kill()
                self._process.wait()
                with open(stderr_path, errors="replace") as stderr:
                    raise RuntimeError(
                        f"server did not start: {banner!r}\n{stderr.read()}"
                    )
            address = banner.split("listening on ")[1].split()[0]
            host, port = address.rsplit(":", 1)
            for _ in range(CONNECTIONS):
                client = AsyncReproClient(host, int(port))
                await client.connect()
                self.clients.append(client)
        except BaseException:
            await self.__aexit__()
            raise
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        try:
            for client in self.clients:
                await client.close()
        finally:
            # whatever a close raised, the server does not outlive us
            self._process.kill()
            self._process.wait()
            self._process.stdout.close()


class Reply(NamedTuple):
    """One request as the client saw it; ``value`` is the exception
    when the request failed in any way."""

    latency_ns: int
    ended_ns: int
    value: object

    @property
    def failed(self) -> bool:
        return isinstance(self.value, Exception)


async def send(client: AsyncReproClient, items, out: "list[Reply]") -> None:
    """Closed loop: send each item only after the previous reply."""
    for kind, text in items:
        started = time.perf_counter_ns()
        try:
            if kind == QUERY:
                value = await client.query(text)
            else:
                value = await client.execute(text)
        except ReproError as error:
            value = error
        ended = time.perf_counter_ns()
        out.append(Reply(ended - started, ended, value))


@dataclass
class ServedRun:
    """Everything one run observed."""

    setup_seconds: "list[float]"
    window_started_ns: int
    preload: "list[Reply]"
    #: Per connection, one reply per stream item (warm-up included, so
    #: indices align with the stream).
    streams: "list[list[Reply]]"
    warmup: int
    server_metrics: dict
    disk_bytes: int = 0
    recovery_seconds: "list[float]" = field(default_factory=list)
    recovery_replayed: int = 0
    #: Replies of the timed window that passed every check.
    verified: int = 0
    #: Human-readable correctness violations (empty when correct).
    violations: "list[str]" = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.preload) + sum(map(len, self.streams))


async def _serve(
    workload: Workload, setups: int, run_dir: str, core: "int | None"
) -> ServedRun:
    warmup = int(len(workload.streams[0]) * WARMUP_SHARE)
    setup_seconds = []
    for attempt in range(setups):
        directory = os.path.join(run_dir, f"data-{attempt}")
        started = time.perf_counter()
        async with ServedStack(workload, directory, core) as stack:
            preload: "list[Reply]" = []
            streams: "list[list[Reply]]" = [[] for _ in stack.clients]

            async def both(part: slice) -> None:
                await asyncio.gather(*(
                    send(client, stream[part], out)
                    for client, stream, out in zip(
                        stack.clients, workload.streams, streams
                    )
                ))

            await send(stack.clients[0], workload.preload, preload)
            await both(slice(0, warmup))
            setup_seconds.append(time.perf_counter() - started)
            if attempt < setups - 1:
                continue
            window_started_ns = time.perf_counter_ns()
            await both(slice(warmup, None))
            try:
                server_metrics = await stack.clients[0].metrics()
            except ReproError:
                server_metrics = {}
    return ServedRun(
        setup_seconds, window_started_ns, preload, streams, warmup,
        server_metrics,
    )


def serve(
    workload: Workload, expected: Oracle, setups: int = SETUPS
) -> ServedRun:
    """Run ``workload`` end to end and verify it against ``expected``."""
    with work_directory() as run_dir, pinned() as core:
        run = asyncio.run(_serve(workload, setups, run_dir, core))
        killed = os.path.join(run_dir, f"data-{setups - 1}")
        run.disk_bytes = sum(
            os.path.getsize(os.path.join(folder, name))
            for folder, _, names in os.walk(killed)
            for name in names
        )
        _verify_replies(workload, expected, run)
        _recover(workload, expected, run, killed, run_dir)
        if workload.backing.fsync == "always":
            _crash_replay(workload, run)
    return run


# -- verification ----------------------------------------------------------------


def _verify_replies(
    workload: Workload, expected: Oracle, run: ServedRun
) -> None:
    """Every reply equals the oracle's, and each connection saw its
    transaction numbers strictly increase.  Counts the timed window's
    replies that did (``run.verified``)."""
    for index, reply in enumerate(run.preload):
        if reply.failed:
            run.violations.append(
                f"preload item {index} failed: {reply.value}"
            )
    for connection, (stream, replies) in enumerate(
        zip(workload.streams, run.streams)
    ):
        last_txn = 0
        for index, ((kind, text), reply) in enumerate(zip(stream, replies)):
            where = f"connection {connection} item {index}"
            violation = None
            if reply.failed:
                violation = f"{where} failed: {reply.value}"
            elif kind == QUERY:
                if digest(reply.value) != expected.replies[connection][index]:
                    violation = (
                        f"{where}: reply to {text!r} differs from the "
                        "oracle's"
                    )
            else:
                if reply.value <= last_txn:
                    violation = (
                        f"{where}: transaction number {reply.value} "
                        f"after {last_txn}"
                    )
                last_txn = reply.value
            if violation is not None:
                run.violations.append(violation)
            elif index >= run.warmup:
                run.verified += 1


def _recover(
    workload: Workload,
    expected: Oracle,
    run: ServedRun,
    killed: str,
    run_dir: str,
) -> None:
    """Reopen fresh copies of the killed directory: time each open, and
    check on the first that every relation is in a state the oracle's
    had — its last under ``--fsync always``, where acknowledged means
    durable; under a batch policy the unsynced tail may be gone."""
    always = workload.backing.fsync == "always"
    for attempt in range(RECOVERY_OPENS):
        copy = os.path.join(run_dir, f"copy-{attempt}")
        shutil.copytree(killed, copy)
        started = time.perf_counter()
        store, replayed = workload.backing.reopen(copy)
        run.recovery_seconds.append(time.perf_counter() - started)
        try:
            if attempt:
                continue
            run.recovery_replayed = replayed
            for name, versions in expected.versions.items():
                recovered = current_digest(store.evaluate, name)
                if always and recovered != versions[-1]:
                    run.violations.append(
                        f"{name}: acknowledged writes are missing after "
                        "recovery under --fsync always"
                    )
                elif recovered is not None and recovered not in versions:
                    run.violations.append(
                        f"{name}: the recovered state is none the "
                        "relation ever had"
                    )
        finally:
            store.close()
            shutil.rmtree(copy)


def _crash_replay(workload: Workload, run: ServedRun) -> None:
    """Replay a short prefix in-process on the simulated disk, crash it
    (dropping every byte not fsynced) and recover: every write was
    acknowledged under ``always``, so the recovered relations are the
    oracle's after the whole prefix."""
    from repro.durability import DurableDatabase, MemoryStore

    store = MemoryStore()
    database = DurableDatabase(store, fsync=workload.backing.fsync)
    session = Session()
    sentences = [text for _, text in workload.preload] + [
        text
        for kind, text in workload.streams[0][:CRASH_PREFIX]
        if kind != QUERY
    ]
    for text in sentences:
        for command in parse_sentence(text):
            database.execute(command)
        session.execute(text)
    database.kill()
    recovered = DurableDatabase(store, fsync=workload.backing.fsync)
    for name in workload.relations[0]:
        if current_digest(recovered.evaluate, name) != current_digest(
            session.query, name
        ):
            run.violations.append(
                f"crash replay: {name} recovered from the simulated "
                "disk lacks acknowledged writes"
            )


# -- metrics ---------------------------------------------------------------------


def latencies_ms(
    workload: Workload, run: ServedRun, kind: str
) -> "list[float]":
    """Client-observed latencies of the timed window's requests of
    ``kind``."""
    return [
        reply.latency_ns / 1e6
        for stream, replies in zip(workload.streams, run.streams)
        for (item_kind, _), reply in zip(
            stream[run.warmup:], replies[run.warmup:]
        )
        if item_kind == kind
    ]


def tail_ms(samples: "list[float]") -> float:
    """The 99th percentile, or the highest one that still has ten
    samples beyond it."""
    ordered = sorted(samples)
    return ordered[max(0, min(int(0.99 * len(ordered)), len(ordered) - 11))]


def throughput_rps(run: ServedRun) -> float:
    """Verified replies of the timed window per second of its wall
    time, first send to last reply: a stall anywhere in the window
    counts."""
    last_ended_ns = max(
        reply.ended_ns
        for replies in run.streams
        for reply in replies[run.warmup:]
    )
    return run.verified * 1e9 / (last_ended_ns - run.window_started_ns)


def end_to_end(workload: Workload, run: ServedRun) -> dict:
    """The end-to-end metrics of one run, ``name → (value, unit)``."""
    user_bytes = sum(
        len(text.encode("utf-8"))
        for stream, replies in zip(
            [workload.preload, *workload.streams],
            [run.preload, *run.streams],
        )
        for (kind, text), reply in zip(stream, replies)
        if kind == EXECUTE and not reply.failed
    )

    def p50(kind: str) -> float:
        return statistics.median(latencies_ms(workload, run, kind))

    return {
        "throughput_rps": (throughput_rps(run), "1/s"),
        "read_p50_ms": (p50(QUERY), "ms"),
        "write_p50_ms": (p50(EXECUTE), "ms"),
        "setup_s": (statistics.median(run.setup_seconds), "s"),
        "disk_bytes_per_user_byte": (
            run.disk_bytes / user_bytes, "bytes/byte"
        ),
        "recovery_s": (statistics.median(run.recovery_seconds), "s"),
    }
