"""Admission control: the server's bounded front door.

The server must *shed* load it cannot serve rather than queue it without
bound (memory) or serve it arbitrarily late (latency).  The controller
implements the classic watermark discipline:

* a **global queue bound** with high/low watermarks and hysteresis:
  once depth reaches ``queue_high`` the server enters a *shedding*
  state and rejects new requests (``queue_full``) until the workers
  drain the queue below ``queue_low`` — the gap prevents flapping at
  the boundary;
* a **per-connection budget** (``per_connection``): one aggressive
  client cannot occupy the whole queue;
* **deadline accounting**: every admitted request carries an
  admission-time stamp; a request whose deadline expires while queued
  is killed without executing, and the server kills (cancels) requests
  whose deadline expires mid-execution.

The controller is the single bookkeeping point for the ``server.*``
metrics surface.  It keeps its own counters — the ``metrics`` op must
answer even when the process-wide obsv registry is disabled — and
mirrors every event into :mod:`repro.obsv` when that is enabled.  All
methods run on the server's event loop, so plain integers suffice; no
locks.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.obsv import registry as _obsv

__all__ = ["AdmissionController", "percentile"]


def percentile(values: "list[float]", q: float) -> float:
    """The ``q``-quantile (0 ≤ q ≤ 1) of ``values`` by the
    nearest-rank method; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


class AdmissionController:
    """Bounded-queue admission with watermark hysteresis.

    ``try_admit`` answers with ``None`` (admitted) or a shed reason
    string; the server turns reasons into ``queue_full`` responses.
    """

    #: How many completed-request latencies the p50/p99 window retains.
    LATENCY_WINDOW = 2048

    def __init__(
        self,
        *,
        queue_high: int,
        queue_low: Optional[int] = None,
        per_connection: int = 16,
    ) -> None:
        from repro.errors import ServerError

        if queue_high < 1:
            raise ServerError(
                f"queue_high must be ≥ 1, got {queue_high}"
            )
        if queue_low is None:
            queue_low = max(1, queue_high // 2)
        if not 0 < queue_low <= queue_high:
            raise ServerError(
                f"need 0 < queue_low ≤ queue_high, got "
                f"queue_low={queue_low}, queue_high={queue_high}"
            )
        if per_connection < 1:
            raise ServerError(
                f"per_connection must be ≥ 1, got {per_connection}"
            )
        self.queue_high = queue_high
        self.queue_low = queue_low
        self.per_connection = per_connection
        #: Requests admitted but not yet finished (queued + executing).
        self.depth = 0
        #: Requests currently executing, in place or in a worker.
        self.inflight = 0
        self._per_conn: dict[int, int] = {}
        self._shedding = False
        # counters (the server.* surface)
        self.accepted = 0
        self.shed = 0
        self.killed = 0
        self.expired_in_queue = 0
        self.completed = 0
        self.errors = 0
        self.orphaned = 0
        self.degraded = 0
        self.degraded_shed = 0
        self._latencies: list[float] = []
        self._latency_cursor = 0

    # -- admission ----------------------------------------------------------

    def try_admit(self, connection_id: int) -> Optional[str]:
        """Admit a request from ``connection_id`` or return the shed
        reason (``"saturated"`` / ``"connection budget"``)."""
        if self._shedding:
            if self.depth > self.queue_low:
                self._count_shed()
                return "saturated"
            self._shedding = False  # drained below the low watermark
        elif self.depth >= self.queue_high:
            self._shedding = True
            self._count_shed()
            return "saturated"
        if self._per_conn.get(connection_id, 0) >= self.per_connection:
            self._count_shed()
            return "connection budget"
        self.depth += 1
        self._per_conn[connection_id] = (
            self._per_conn.get(connection_id, 0) + 1
        )
        self.accepted += 1
        if _obsv.enabled():
            registry = _obsv.get()
            registry.counter("server.accepted").inc()
            registry.gauge("server.queue_depth").set(self.depth)
        return None

    def _count_shed(self) -> None:
        self.shed += 1
        if _obsv.enabled():
            _obsv.get().counter("server.shed").inc()

    # -- lifecycle of an admitted request ------------------------------------

    def start(self) -> None:
        """Execution of an admitted request began."""
        self.inflight += 1
        if _obsv.enabled():
            _obsv.get().gauge("server.inflight").set(self.inflight)

    def finish(
        self,
        connection_id: int,
        *,
        admitted_at: float,
        executed: bool,
        outcome: str,
    ) -> None:
        """An admitted request left the system.

        ``outcome`` is one of ``completed`` / ``error`` / ``killed`` /
        ``expired`` / ``orphaned`` / ``degraded``; ``executed`` says
        whether ``start`` was called (its slot must be released).
        """
        self.depth -= 1
        remaining = self._per_conn.get(connection_id, 0) - 1
        if remaining > 0:
            self._per_conn[connection_id] = remaining
        else:
            self._per_conn.pop(connection_id, None)
        if executed:
            self.inflight -= 1
        if outcome == "completed":
            self.completed += 1
            self._observe_latency(time.perf_counter() - admitted_at)
        elif outcome == "error":
            self.errors += 1
            self._observe_latency(time.perf_counter() - admitted_at)
        elif outcome == "killed":
            self.killed += 1
        elif outcome == "expired":
            self.expired_in_queue += 1
        elif outcome == "orphaned":
            self.orphaned += 1
        elif outcome == "degraded":
            self.degraded += 1
        if self._shedding and self.depth <= self.queue_low:
            self._shedding = False
        if _obsv.enabled():
            registry = _obsv.get()
            registry.counter(f"server.{outcome}").inc()
            registry.gauge("server.queue_depth").set(self.depth)
            registry.gauge("server.inflight").set(self.inflight)

    def _observe_latency(self, seconds: float) -> None:
        if len(self._latencies) < self.LATENCY_WINDOW:
            self._latencies.append(seconds)
        else:
            self._latencies[self._latency_cursor] = seconds
            self._latency_cursor = (
                self._latency_cursor + 1
            ) % self.LATENCY_WINDOW
        if _obsv.enabled():
            _obsv.get().histogram("server.request_seconds").observe(
                seconds
            )

    def shed_degraded(self) -> None:
        """A write was refused at admission because every shard is
        degraded — no queue slot was taken."""
        self.degraded_shed += 1
        if _obsv.enabled():
            _obsv.get().counter("server.degraded_shed").inc()

    # -- inspection -----------------------------------------------------------

    @property
    def shedding(self) -> bool:
        """True while the high watermark has been hit and the queue has
        not yet drained below the low watermark."""
        return self._shedding

    def snapshot(self) -> dict:
        """The ``server.*`` metrics surface as plain data (served by the
        ``metrics`` op regardless of the obsv switch)."""
        return {
            "server.accepted": self.accepted,
            "server.shed": self.shed,
            "server.killed": self.killed,
            "server.expired_in_queue": self.expired_in_queue,
            "server.completed": self.completed,
            "server.errors": self.errors,
            "server.orphaned": self.orphaned,
            "server.degraded": self.degraded,
            "server.degraded_shed": self.degraded_shed,
            "server.queue_depth": self.depth,
            "server.inflight": self.inflight,
            "server.shedding": int(self._shedding),
            "server.latency_p50_ms": percentile(self._latencies, 0.50)
            * 1e3,
            "server.latency_p99_ms": percentile(self._latencies, 0.99)
            * 1e3,
        }
