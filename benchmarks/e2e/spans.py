"""Outside-in spans: time each layer from the benchmark's own files.

``TABLE`` names the public call into each layer — a module, optionally
a class in it, and an attribute.  ``Recorder.install`` replaces each
with a wrapper that records one span per call while a traced replay is
running, and ``uninstall`` puts the originals back.  Nothing in
``src/`` knows about this.  A row whose target no longer exists is
skipped and counted (``Recorder.missing``), so a refactor of the
program is never blocked by this file.

A function imported by name into the module that calls it
(``from repro.lang.parser import parse_sentence``) is wrapped at that
use site, which is also what says which layer the call was made for.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

#: The thread ``serve_in_thread`` runs the server's event loop on.
SERVER_THREAD = "repro-server"


@dataclass(frozen=True)
class Row:
    """One wrapped call: ``getattr(module[.owner], attribute)`` recorded
    as span ``name``.  ``size`` optionally maps ``(args, result)`` to a
    byte count kept with the span."""

    module: str
    owner: Optional[str]
    attribute: str
    name: str
    size: Optional[Callable] = None


TABLE = (
    # client + server: framing, admission, dispatch, rendering
    Row("repro.server.client", "AsyncReproClient", "query", "client.request"),
    Row("repro.server.client", "AsyncReproClient", "execute", "client.request"),
    Row("repro.server.protocol", None, "encode_message", "wire.encode"),
    Row("repro.server.protocol", None, "decode_message", "wire.decode"),
    Row("repro.server.protocol", "FrameDecoder", "feed", "wire.decode"),
    Row("repro.server.admission", "AdmissionController", "try_admit",
        "server.admit"),
    Row("repro.server.admission", "AdmissionController", "start",
        "server.start"),
    Row("repro.server.admission", "AdmissionController", "finish",
        "server.finish"),
    Row("repro.server.store", "SessionView", "query", "server.query"),
    Row("repro.server.store", "ServerStore", "execute", "server.execute"),
    Row("repro.server.store", None, "render_state", "server.render",
        size=lambda args, result: len(result.encode("utf-8"))),
    # lang: parsing at its use sites
    Row("repro.server.store", None, "parse_sentence", "lang.parse"),
    Row("repro.lang.session", None, "parse_sentence", "lang.parse"),
    Row("repro.lang.session", None, "parse_expression", "lang.parse"),
    # optimizer
    Row("repro.lang.session", "Session", "statistics", "optimizer.stats"),
    Row("repro.optimizer.rewriter", "CostGuidedRewriter", "rewrite",
        "optimizer.rewrite"),
    # core: compile, evaluation, commands, FINDSTATE
    Row("repro.lang.session", None, "compile_expression", "core.compile"),
    Row("repro.core.compile", "CompiledPlan", "__call__", "core.eval"),
    Row("repro.durability.durable", "DurableDatabase", "evaluate",
        "core.eval"),
    Row("repro.replication.replica", "Replica", "evaluate", "core.eval"),
    Row("repro.durability.durable", None, "execute_command", "core.command"),
    Row("repro.core.relation", "Relation", "find_state", "core.find_state"),
    # durability
    Row("repro.durability.durable", None, "encode_record",
        "durability.encode"),
    Row("repro.durability.wal", "WriteAheadLog", "append",
        "durability.append"),
    Row("repro.durability.wal", "WriteAheadLog", "sync", "durability.fsync"),
    Row("repro.durability.durable", "DurableDatabase", "checkpoint",
        "durability.checkpoint"),
    Row("repro.durability.files", "DirectoryStore", "replace",
        "durability.replace",
        size=lambda args, result: len(args[2])),
    # replication
    Row("repro.replication.replica", "Replica", "catch_up",
        "replication.catch_up"),
    Row("repro.replication.stream", "PrimaryStream", "fetch",
        "replication.fetch"),
    # sharding
    Row("repro.sharding.sharded", "ShardedDatabase", "execute",
        "sharding.route"),
    Row("repro.sharding.sharded", "ShardedDatabase", "evaluate",
        "sharding.route"),
    Row("repro.sharding.router", "ScatterGatherRouter", "evaluate",
        "sharding.route"),
    Row("repro.sharding.journal", "CoordinatorJournal", "record",
        "sharding.journal"),
    # cluster
    Row("repro.cluster.cluster", "Cluster", "execute", "cluster.execute"),
    Row("repro.cluster.cluster", "Cluster", "evaluate", "cluster.evaluate"),
    # quel (runs while the workload is generated, before any request)
    Row("repro.quel.translate", "QuelTranslator", "translate",
        "quel.translate"),
)

ROOT_SPAN = "client.request"


class Span:
    """One recorded call.  ``parent`` indexes ``Recorder.spans`` (-1 for
    none); ``request`` numbers the client request in flight (0 before
    the first); ``server`` says which side's thread made the call."""

    __slots__ = (
        "name", "start_ns", "end_ns", "parent", "request", "server",
        "size", "child_ns",
    )

    def __init__(
        self, name: str, parent: int, request: int, server: bool
    ) -> None:
        self.name = name
        self.parent = parent
        self.request = request
        self.server = server
        self.size = 0
        #: Time covered by this span's direct children.
        self.child_ns = 0
        self.end_ns = 0
        self.start_ns = time.perf_counter_ns()

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns


class Recorder:
    """Spans in memory.  The traced replay keeps exactly one request in
    flight, so every span recorded between two root spans belongs to
    the first of them, whichever thread made the call.  The client's
    thread and the server's both record: appends are locked, and each
    thread keeps its own stack of open spans, which ``_close`` checks —
    two wrapped coroutines interleaving on one thread would break the
    one-request-in-flight assumption and fail there, not skew self
    times."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self.active = False
        self.missing = 0
        self._request = 0
        self._lock = threading.Lock()
        self._stacks = threading.local()
        self._installed: "list[tuple[object, str, object]]" = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        stack = self._stacks.__dict__.setdefault("stack", [])
        server = threading.current_thread().name == SERVER_THREAD
        parent = stack[-1] if stack else -1
        with self._lock:
            if name == ROOT_SPAN:
                self._request += 1
            index = len(self.spans)
            self.spans.append(Span(name, parent, self._request, server))
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end_ns = time.perf_counter_ns()
        popped = self._stacks.stack.pop()
        if popped != index:
            raise AssertionError(
                f"span {span.name!r} closed while span "
                f"{self.spans[popped].name!r} was innermost: more than "
                "one request in flight on this thread"
            )
        if span.parent >= 0:
            self.spans[span.parent].child_ns += span.duration_ns

    def _wrap(self, row: Row, original):
        recorder = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                if not recorder.active:
                    return await original(*args, **kwargs)
                index = recorder._open(row.name)
                try:
                    return await original(*args, **kwargs)
                finally:
                    recorder._close(index)

            return wrapper

        # a generator does its work while it is consumed; every caller
        # of the one generator in the table drains it at once
        drain = list if inspect.isgeneratorfunction(original) else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return original(*args, **kwargs)
            index = recorder._open(row.name)
            try:
                result = original(*args, **kwargs)
                if drain is not None:
                    result = drain(result)
            finally:
                recorder._close(index)
            if row.size is not None:
                recorder.spans[index].size = row.size(args, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every row of ``TABLE`` that resolves."""
        self.missing = 0
        for row in TABLE:
            try:
                owner = importlib.import_module(row.module)
                if row.owner is not None:
                    owner = getattr(owner, row.owner)
                original = getattr(owner, row.attribute)
            except (ImportError, AttributeError):
                self.missing += 1
                continue
            setattr(owner, row.attribute, self._wrap(row, original))
            self._installed.append((owner, row.attribute, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        """All spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "name": span.name,
                    "start_ns": span.start_ns,
                    "end_ns": span.end_ns,
                    "parent": span.parent,
                    "request": span.request,
                    "side": "server" if span.server else "client",
                    "size": span.size,
                }) + "\n")
