"""`ClusterSupervisor` — the cluster's health loop.

Failover, replica resync and degraded-mode shedding all exist as
manual seams on :class:`~repro.cluster.cluster.Cluster`; the supervisor
is the small deterministic loop that drives them, turning the cluster
self-healing:

* **probing** — each tick, every shard's primary is probed (default: a
  ``sync()`` plus an atomic probe-file write, which exercises the
  store's write path end to end — a passive check cannot work, because
  an *idle* primary has nothing pending to flush and may own no files
  at all).  ``failure_threshold`` consecutive failures condemn the
  primary; a shard the *write path* already marked degraded is
  condemned immediately, because a shed write is stronger evidence
  than any probe.
* **auto-failover** — a condemned primary is replaced through the same
  :meth:`~repro.cluster.cluster.Cluster.failover` an operator would
  call: the candidate replica is caught up and validated byte-for-byte
  *before* promotion, so a botched auto-failover (no live candidate,
  validation failure) raises inside the supervisor, is counted, and
  leaves the cluster exactly as it was — degraded, shedding writes,
  still serving reads — rather than half-switched.
* **replica tending** — condemned (diverged) replicas are quarantined
  by the read path already; the supervisor repairs them through
  :meth:`~repro.replication.replica.Replica.resync` (a full
  re-snapshot, the only honest rebuild after divergence) and then
  backfills each shard's live replica set to the configured size.

Time is injected (``clock``/``sleep``), mirroring
:class:`~repro.replication.retry.RetryPolicy`: tests drive ``tick()``
directly with a fake clock and the chaos harness gets deterministic,
seed-reproducible schedules.  All activity lands under the
``cluster.health.*`` metrics.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.errors import ReproError
from repro.obsv import registry as _obsv
from repro.replication.replica import Replica

from repro.cluster.cluster import Cluster

__all__ = ["ClusterSupervisor", "ShardHealth", "TickReport"]

#: The health probe's scratch file — written and deleted atomically by
#: every probe tick; recovery ignores it (it is neither a WAL segment
#: nor a checkpoint), so a crash between the two steps is harmless.
PROBE_FILE = "health-probe"


class ShardHealth:
    """One shard's rolling probe state."""

    __slots__ = ("consecutive_failures", "down_since")

    def __init__(self) -> None:
        self.consecutive_failures = 0
        self.down_since: Optional[float] = None

    def __repr__(self) -> str:
        return (
            f"ShardHealth(failures={self.consecutive_failures}, "
            f"down_since={self.down_since})"
        )


class TickReport:
    """What one :meth:`ClusterSupervisor.tick` did."""

    __slots__ = (
        "probes",
        "probe_failures",
        "failovers",
        "failover_failures",
        "resyncs",
        "backfills",
        "degraded_marked",
        "degraded_cleared",
    )

    def __init__(self) -> None:
        self.probes = 0
        self.probe_failures = 0
        self.failovers = 0
        self.failover_failures = 0
        self.resyncs = 0
        self.backfills = 0
        self.degraded_marked = 0
        self.degraded_cleared = 0

    def __repr__(self) -> str:
        return (
            f"TickReport(probes={self.probes}, "
            f"probe_failures={self.probe_failures}, "
            f"failovers={self.failovers}, "
            f"failover_failures={self.failover_failures}, "
            f"resyncs={self.resyncs}, backfills={self.backfills})"
        )


class ClusterSupervisor:
    """The health loop over one :class:`Cluster`.

    ``probe`` overrides how a primary is checked (it receives the
    shard's :class:`~repro.durability.durable.DurableDatabase` and
    raises on failure) — the chaos harness's injection seam.
    ``replicas_per_shard`` is the live-set size backfill restores
    (default: the cluster config's).
    """

    def __init__(
        self,
        cluster: Cluster,
        *,
        probe_interval: float = 0.25,
        failure_threshold: int = 3,
        replicas_per_shard: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        probe: Optional[Callable[[object], None]] = None,
    ) -> None:
        if probe_interval <= 0:
            raise ValueError(
                f"probe_interval must be > 0, got {probe_interval}"
            )
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be ≥ 1, got {failure_threshold}"
            )
        self._cluster = cluster
        self._interval = probe_interval
        self._threshold = failure_threshold
        self._replicas_per_shard = (
            replicas_per_shard
            if replicas_per_shard is not None
            else cluster.config.replicas_per_shard
        )
        self._clock = clock
        self._sleep = sleep
        self._probe = probe if probe is not None else self._default_probe
        self._health: dict[int, ShardHealth] = {}
        self._running = False
        self.ticks = 0

    @property
    def cluster(self) -> Cluster:
        return self._cluster

    @property
    def failure_threshold(self) -> int:
        return self._threshold

    def health(self, shard: int) -> ShardHealth:
        return self._health.setdefault(shard, ShardHealth())

    @staticmethod
    def _default_probe(primary) -> None:
        """Prove the primary can still commit: closed is dead, and an
        atomic probe-file write drives the store's write+fsync path end
        to end.  Passive checks are not enough — ``sync()`` no-ops when
        nothing is pending and an idle shard may own no files at all,
        so a write-dead primary that happens to get no client writes
        would pass any read-only probe forever."""
        if primary.closed:
            raise ReproError("primary is closed")
        primary.sync()
        primary.store.replace(PROBE_FILE, b"probe")
        primary.store.delete(PROBE_FILE)

    # -- one tick ----------------------------------------------------------

    def tick(self) -> TickReport:
        """Probe every shard, heal what needs healing, tend replicas.
        One tick is re-entrant-free and deterministic given the injected
        clock and probe outcomes."""
        report = TickReport()
        cluster = self._cluster
        for shard in range(cluster.shard_count):
            health = self.health(shard)
            ok = True
            try:
                self._probe(cluster.primaries[shard])
            except (ReproError, OSError):
                ok = False
            report.probes += 1
            if _obsv.enabled():
                registry = _obsv.get()
                registry.counter("cluster.health.probes").inc()
                if not ok:
                    registry.counter("cluster.health.probe_failures").inc()
            degraded = shard in cluster.degraded_shards
            if ok and not degraded:
                health.consecutive_failures = 0
                health.down_since = None
                continue
            if not ok:
                report.probe_failures += 1
                health.consecutive_failures += 1
            if health.down_since is None:
                health.down_since = self._clock()
            # the write path's own degraded mark is stronger evidence
            # than any probe count: heal immediately
            if degraded or health.consecutive_failures >= self._threshold:
                if not degraded:
                    cluster.mark_degraded(shard)
                    report.degraded_marked += 1
                self._heal_primary(shard, health, report)
        self._tend_replicas(report)
        self.ticks += 1
        return report

    def _heal_primary(
        self, shard: int, health: ShardHealth, report: TickReport
    ) -> None:
        cluster = self._cluster
        live = [
            r
            for r in cluster.replicas(shard)
            if not r.diverged and not r.promoted
        ]
        if not live:
            # nothing to promote: try to grow a candidate off the dead
            # primary's stream (reads still serve, so snapshot/fetch
            # work); promotion happens on a later tick once it exists
            try:
                cluster.add_replica(shard)
            except ReproError:
                if _obsv.enabled():
                    _obsv.get().counter(
                        "cluster.health.failover_failures"
                    ).inc()
                report.failover_failures += 1
            return
        try:
            cluster.failover(shard)
        except ReproError:
            # validate-then-promote refused: the cluster is untouched
            # and still degraded; count it and retry next tick
            if _obsv.enabled():
                _obsv.get().counter("cluster.health.failover_failures").inc()
            report.failover_failures += 1
            return
        report.failovers += 1
        report.degraded_cleared += 1
        down_since = health.down_since
        health.consecutive_failures = 0
        health.down_since = None
        if _obsv.enabled():
            registry = _obsv.get()
            registry.counter("cluster.health.auto_failovers").inc()
            registry.histogram("cluster.health.mttr_seconds").observe(
                self._clock() - down_since
                if down_since is not None
                else 0.0
            )

    def _tend_replicas(self, report: TickReport) -> None:
        cluster = self._cluster
        for shard in range(cluster.shard_count):
            live = 0
            for replica in cluster.replicas(shard):
                if replica.promoted:
                    continue
                if replica.diverged:
                    # quarantine-and-repair: a diverged replay can never
                    # rejoin, so rebuild from the primary's checkpoint
                    try:
                        replica.resync(cluster.stream(shard))
                    except ReproError:
                        continue  # retried next tick
                    report.resyncs += 1
                    if _obsv.enabled():
                        _obsv.get().counter("cluster.health.resyncs").inc()
                    try:
                        replica.catch_up()
                    except ReproError:
                        # the rebuilt replica merely lags (or the
                        # transport hiccuped); later ticks converge it
                        continue
                live += 1
            while live < self._replicas_per_shard:
                try:
                    cluster.add_replica(shard)
                except ReproError:
                    break  # e.g. the primary can't snapshot right now
                live += 1
                report.backfills += 1
                if _obsv.enabled():
                    _obsv.get().counter("cluster.health.backfills").inc()

    # -- the loop ----------------------------------------------------------

    def run(self, max_ticks: Optional[int] = None) -> None:
        """Tick every ``probe_interval`` seconds until :meth:`stop` (or
        ``max_ticks``).  Uses the injected sleep, so tests run it
        full-speed; the server drives :meth:`tick` from its event loop
        instead of calling this."""
        self._running = True
        ticked = 0
        while self._running:
            self.tick()
            ticked += 1
            if max_ticks is not None and ticked >= max_ticks:
                break
            self._sleep(self._interval)

    def stop(self) -> None:
        self._running = False

    def __repr__(self) -> str:
        return (
            f"ClusterSupervisor(ticks={self.ticks}, "
            f"interval={self._interval}, threshold={self._threshold})"
        )
