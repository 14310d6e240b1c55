"""Observer installation for the expression-evaluation and WAL hot paths.

Expression evaluation is the innermost loop of the whole stack — every
``modify_state``, Quel statement and benchmark hits it — so it uses the
cheapest possible disabled-state guard: a module-global observer slot in
:mod:`repro.core.expressions` that is ``None`` until metrics are enabled.
Each node's ``evaluate`` pays one global load and an ``is None`` test;
when metrics are on, the installed :class:`ExpressionObserver` holds its
counters directly so the enabled path is a bound-method call and an
integer add, with no per-event name lookup.

The durability layer uses the same pattern: :class:`WalObserver` holds
the ``wal.*`` instruments (records appended, fsyncs, rotations,
compactions, recovery replay lengths), and
:func:`repro.durability.wal` / ``checkpoint`` / ``recovery`` fetch it
through :func:`wal_observer`, which is ``None`` until metrics are on —
appends in the ``never``/``batch`` fsync configurations stay on the
fast path.

:func:`install` / :func:`uninstall` are called by
:func:`repro.obsv.registry.enable` / ``disable``; they are not part of
the public surface.
"""

from __future__ import annotations

from typing import Optional

from repro.obsv.registry import MetricsRegistry

__all__ = [
    "ClusterObserver",
    "EngineObserver",
    "ExpressionObserver",
    "OptimizerObserver",
    "ReplicationObserver",
    "ShardObserver",
    "WalObserver",
    "install",
    "uninstall",
    "cluster_observer",
    "repl_observer",
    "shard_observer",
    "wal_observer",
]


class ExpressionObserver:
    """Per-event callbacks the expression evaluator fires when metrics
    are enabled.  Counters are resolved once, at installation."""

    __slots__ = ("_nodes", "_rollbacks", "_memo_hits", "_memo_misses")

    def __init__(self, registry: MetricsRegistry) -> None:
        self._nodes = registry.counter("expr.nodes_evaluated")
        self._rollbacks = registry.counter("expr.rollback_evaluations")
        self._memo_hits = registry.counter("expr.memo_hits")
        self._memo_misses = registry.counter("expr.memo_misses")

    def node(self) -> None:
        """An expression node was evaluated."""
        self._nodes.inc()

    def rollback(self) -> None:
        """A ``ρ(I, N)`` leaf was evaluated — the fan-out of reads an
        expression issues against relation histories."""
        self._rollbacks.inc()

    def memo_hit(self) -> None:
        """``evaluate_memoized`` served a subtree from its cache."""
        self._memo_hits.inc()

    def memo_miss(self) -> None:
        """``evaluate_memoized`` had to compute a subtree."""
        self._memo_misses.inc()


class EngineObserver:
    """Per-event callbacks the compiled expression engine fires when
    metrics are enabled (``engine.*``).  Counters are resolved once, at
    installation; the per-step hot path reuses the expression layer's
    ``expr.nodes_evaluated`` counter through :meth:`node` so interpreted
    and compiled evaluation report node work under one name."""

    __slots__ = (
        "_nodes",
        "_compiled",
        "_steps_compiled",
        "_cse_saved",
        "_executions",
        "_steps_executed",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self._nodes = registry.counter("expr.nodes_evaluated")
        self._compiled = registry.counter("engine.plans_compiled")
        self._steps_compiled = registry.counter("engine.steps_compiled")
        self._cse_saved = registry.counter("engine.cse_nodes_saved")
        self._executions = registry.counter("engine.plan_executions")
        self._steps_executed = registry.counter("engine.steps_executed")

    def node(self) -> None:
        """A compiled step computed one composite node's result."""
        self._nodes.inc()

    def compiled(self, steps: int, tree_nodes: int) -> None:
        """A plan was compiled: ``steps`` distinct subtrees covering a
        tree of ``tree_nodes`` nodes (the difference is CSE sharing)."""
        self._compiled.inc()
        self._steps_compiled.inc(steps)
        self._cse_saved.inc(max(0, tree_nodes - steps))

    def executed(self, steps: int) -> None:
        """A compiled plan ran to completion."""
        self._executions.inc()
        self._steps_executed.inc(steps)


class OptimizerObserver:
    """Per-event callbacks the cost-guided rewriter fires when metrics
    are enabled (``optimizer.*``).  Counters are resolved once, at
    installation."""

    __slots__ = (
        "_plans",
        "_considered",
        "_accepted",
        "_rejected",
        "_cost_ratio",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self._plans = registry.counter("optimizer.plans_optimized")
        self._considered = registry.counter(
            "optimizer.rewrites_considered"
        )
        self._accepted = registry.counter("optimizer.rewrites_accepted")
        self._rejected = registry.counter("optimizer.rewrites_rejected")
        self._cost_ratio = registry.histogram("optimizer.cost_ratio")

    def rewrite(self, accepted: bool) -> None:
        """One candidate rewrite was priced against the cost gate."""
        self._considered.inc()
        if accepted:
            self._accepted.inc()
        else:
            self._rejected.inc()

    def optimized(self, baseline: float, final: float) -> None:
        """A plan finished optimization; record the cost ratio (final
        over baseline — below 1.0 means the optimizer found a win)."""
        self._plans.inc()
        if baseline > 0:
            self._cost_ratio.observe(final / baseline)


class WalObserver:
    """Per-event callbacks for the durability layer (``wal.*`` metrics).
    Instruments are resolved once, at installation."""

    __slots__ = (
        "_records",
        "_bytes",
        "_fsyncs",
        "_rotations",
        "_torn",
        "_compactions",
        "_segments_dropped",
        "_checkpoints",
        "_checkpoint_bytes",
        "_invalid_checkpoints",
        "_recoveries",
        "_replay_length",
        "_recovery_seconds",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self._records = registry.counter("wal.records_appended")
        self._bytes = registry.counter("wal.bytes_appended")
        self._fsyncs = registry.counter("wal.fsyncs")
        self._rotations = registry.counter("wal.segments_rotated")
        self._torn = registry.counter("wal.torn_records_truncated")
        self._compactions = registry.counter("wal.compactions")
        self._segments_dropped = registry.counter("wal.segments_dropped")
        self._checkpoints = registry.counter("wal.checkpoints_written")
        self._checkpoint_bytes = registry.counter("wal.checkpoint_bytes")
        self._invalid_checkpoints = registry.counter(
            "wal.checkpoints_invalid_skipped"
        )
        self._recoveries = registry.counter("wal.recoveries")
        self._replay_length = registry.histogram(
            "wal.recovery_replay_length"
        )
        self._recovery_seconds = registry.histogram(
            "wal.recovery_seconds"
        )

    def appended(self, nbytes: int) -> None:
        """One record (``nbytes`` framed bytes) was appended."""
        self._records.inc()
        self._bytes.inc(nbytes)

    def fsynced(self) -> None:
        """The log fsynced its current segment."""
        self._fsyncs.inc()

    def rotated(self) -> None:
        """A full segment was closed and a new one started."""
        self._rotations.inc()

    def torn(self, records: int) -> None:
        """Torn/corrupt records were truncated away at log open."""
        self._torn.inc(records)

    def compacted(self, segments: int) -> None:
        """A compaction pass dropped fully-checkpointed segments."""
        self._compactions.inc()
        self._segments_dropped.inc(segments)

    def checkpointed(self, nbytes: int) -> None:
        """A checkpoint was published, writing ``nbytes`` (its new
        segment, if any, and its manifest)."""
        self._checkpoints.inc()
        self._checkpoint_bytes.inc(nbytes)

    def invalid_checkpoint(self) -> None:
        """Recovery skipped a checkpoint that failed validation."""
        self._invalid_checkpoints.inc()

    def recovered(self, replayed: int, seconds: float) -> None:
        """A recovery completed, re-executing ``replayed`` records."""
        self._recoveries.inc()
        self._replay_length.observe(replayed)
        self._recovery_seconds.observe(seconds)


class ReplicationObserver:
    """Per-event callbacks for the replication layer (``repl.*``
    metrics).  Instruments are resolved once, at installation."""

    __slots__ = (
        "_batches",
        "_applied",
        "_duplicates",
        "_gaps",
        "_divergences",
        "_transient_errors",
        "_retries",
        "_retry_sleep",
        "_resnapshots",
        "_promotions",
        "_stale_rejected",
        "_stale_served",
        "_lag",
        "_batch_size",
        "_apply_seconds",
        "_catchup_seconds",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self._batches = registry.counter("repl.batches_fetched")
        self._applied = registry.counter("repl.records_applied")
        self._duplicates = registry.counter("repl.duplicates_skipped")
        self._gaps = registry.counter("repl.gaps_detected")
        self._divergences = registry.counter("repl.divergences_detected")
        self._transient_errors = registry.counter(
            "repl.transient_errors"
        )
        self._retries = registry.counter("repl.retries")
        self._retry_sleep = registry.histogram("repl.retry_sleep_seconds")
        self._resnapshots = registry.counter("repl.resnapshots")
        self._promotions = registry.counter("repl.promotions")
        self._stale_rejected = registry.counter(
            "repl.stale_reads_rejected"
        )
        self._stale_served = registry.counter("repl.stale_reads_served")
        self._lag = registry.histogram("repl.lag_records")
        self._batch_size = registry.histogram("repl.batch_records")
        self._apply_seconds = registry.histogram("repl.apply_seconds")
        self._catchup_seconds = registry.histogram(
            "repl.catchup_seconds"
        )

    def fetched(self, records: int) -> None:
        """One batch came back from the stream (possibly empty)."""
        self._batches.inc()
        self._batch_size.observe(records)

    def applied(self, records: int, seconds: float) -> None:
        """An apply round executed ``records`` shipped records."""
        self._applied.inc(records)
        self._apply_seconds.observe(seconds)

    def duplicate(self) -> None:
        """A record at or below the applied LSN was skipped."""
        self._duplicates.inc()

    def gap(self) -> None:
        """A delivery skipped LSNs (reorder/drop or compaction)."""
        self._gaps.inc()

    def diverged(self) -> None:
        """Replay produced a transaction number the record disagrees
        with — the replica is now condemned."""
        self._divergences.inc()

    def transient_error(self) -> None:
        """A fetch failed in a way retry may clear."""
        self._transient_errors.inc()

    def retried(self, sleep_seconds: float) -> None:
        """The retry policy is about to back off and go again."""
        self._retries.inc()
        self._retry_sleep.observe(sleep_seconds)

    def resnapshotted(self) -> None:
        """A replica rebuilt itself from a primary checkpoint."""
        self._resnapshots.inc()

    def promoted(self) -> None:
        """A replica was promoted to a standalone primary."""
        self._promotions.inc()

    def stale_read(self, served: bool) -> None:
        """A read hit the ``max_lag`` bound (served stale or rejected)."""
        if served:
            self._stale_served.inc()
        else:
            self._stale_rejected.inc()

    def lag(self, records: int) -> None:
        """An observed primary-minus-replica LSN lag sample."""
        self._lag.observe(records)

    def caught_up(self, seconds: float) -> None:
        """A catch-up loop reached the primary's tail."""
        self._catchup_seconds.observe(seconds)


class ShardObserver:
    """Per-event callbacks for the sharding layer (``shard.*``
    metrics).  Instruments are resolved once, at installation."""

    __slots__ = (
        "_routed",
        "_coordinated",
        "_noops",
        "_queries",
        "_single",
        "_scattered",
        "_subqueries",
        "_merges",
        "_fanout",
        "_rebalances",
        "_moves_wal",
        "_moves_copy",
        "_moves_repaired",
        "_rebalance_seconds",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self._routed = registry.counter("shard.commands_routed")
        self._coordinated = registry.counter("shard.commands_coordinated")
        self._noops = registry.counter("shard.commands_noop")
        self._queries = registry.counter("shard.queries")
        self._single = registry.counter("shard.queries_single_shard")
        self._scattered = registry.counter("shard.queries_scattered")
        self._subqueries = registry.counter("shard.subqueries_routed")
        self._merges = registry.counter("shard.merges")
        self._fanout = registry.histogram("shard.query_fanout")
        self._rebalances = registry.counter("shard.rebalances")
        self._moves_wal = registry.counter("shard.moves_wal_replayed")
        self._moves_copy = registry.counter("shard.moves_state_copied")
        self._moves_repaired = registry.counter(
            "shard.moves_stale_repaired"
        )
        self._rebalance_seconds = registry.histogram(
            "shard.rebalance_seconds"
        )

    def routed(self) -> None:
        """A command was shipped untouched to its owning shard."""
        self._routed.inc()

    def coordinated(self) -> None:
        """A cross-shard ``modify_state`` was evaluated at the
        coordinator and shipped to the owner as a constant state."""
        self._coordinated.inc()

    def noop(self) -> None:
        """The coordinator short-circuited a paper no-op (modify of an
        unbound identifier) without touching any shard."""
        self._noops.inc()

    def query(self, fanout: int) -> None:
        """A top-level scatter-gather evaluation touched ``fanout``
        shards."""
        self._queries.inc()
        self._fanout.observe(fanout)
        if fanout > 1:
            self._scattered.inc()
        else:
            self._single.inc()

    def subquery(self) -> None:
        """A (sub)expression was routed to a single shard."""
        self._subqueries.inc()

    def merge(self) -> None:
        """The coordinator merged cross-shard operands for one node."""
        self._merges.inc()

    def rebalanced(
        self,
        wal_replayed: int,
        state_copied: int,
        repaired: int,
        seconds: float,
    ) -> None:
        """A rebalance pass finished, having moved identifiers by WAL
        replay or state copy, repairing stale target copies in place."""
        self._rebalances.inc()
        self._moves_wal.inc(wal_replayed)
        self._moves_copy.inc(state_copied)
        self._moves_repaired.inc(repaired)
        self._rebalance_seconds.observe(seconds)


class ClusterObserver:
    """Per-event callbacks for the cluster layer (``cluster.*``
    metrics).  Instruments are resolved once, at installation."""

    __slots__ = (
        "_failovers",
        "_reads_replica",
        "_reads_primary",
        "_stale_rejections",
        "_replicas_added",
        "_shards_added",
        "_catchup_records",
        "_lag",
        "_probes",
        "_probe_failures",
        "_auto_failovers",
        "_failover_failures",
        "_resyncs",
        "_backfills",
        "_degraded_marked",
        "_degraded_cleared",
        "_writes_shed",
        "_mttr",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self._failovers = registry.counter("cluster.failovers")
        self._reads_replica = registry.counter("cluster.reads_replica")
        self._reads_primary = registry.counter("cluster.reads_primary")
        self._stale_rejections = registry.counter(
            "cluster.stale_rejections"
        )
        self._replicas_added = registry.counter("cluster.replicas_added")
        self._shards_added = registry.counter("cluster.shards_added")
        self._catchup_records = registry.counter(
            "cluster.catchup_records"
        )
        self._lag = registry.histogram("cluster.shard_lag_records")
        self._probes = registry.counter("cluster.health.probes")
        self._probe_failures = registry.counter(
            "cluster.health.probe_failures"
        )
        self._auto_failovers = registry.counter(
            "cluster.health.auto_failovers"
        )
        self._failover_failures = registry.counter(
            "cluster.health.failover_failures"
        )
        self._resyncs = registry.counter("cluster.health.resyncs")
        self._backfills = registry.counter("cluster.health.backfills")
        self._degraded_marked = registry.counter(
            "cluster.health.degraded_marked"
        )
        self._degraded_cleared = registry.counter(
            "cluster.health.degraded_cleared"
        )
        self._writes_shed = registry.counter(
            "cluster.health.writes_shed"
        )
        self._mttr = registry.histogram("cluster.health.mttr_seconds")

    def failed_over(self) -> None:
        """A shard's primary was replaced by a promoted replica."""
        self._failovers.inc()

    def read(self, from_replica: bool) -> None:
        """A fan-out read was served — from a replica or, when a shard
        has none attached, from its primary."""
        if from_replica:
            self._reads_replica.inc()
        else:
            self._reads_primary.inc()

    def stale_rejected(self) -> None:
        """A bounded-staleness read was refused (``on_stale='reject'``
        and the chosen replica sat beyond ``max_lag``)."""
        self._stale_rejections.inc()

    def replica_added(self) -> None:
        """A replica was attached to a shard's primary stream."""
        self._replicas_added.inc()

    def shard_added(self) -> None:
        """A primary (plus replica set) joined the topology."""
        self._shards_added.inc()

    def caught_up(self, records: int) -> None:
        """A catch-up pass applied ``records`` shipped records."""
        self._catchup_records.inc(records)

    def lag(self, records: int) -> None:
        """An observed per-shard replica lag sample (LSN distance)."""
        self._lag.observe(records)

    def probed(self, ok: bool) -> None:
        """The supervisor probed one shard primary."""
        self._probes.inc()
        if not ok:
            self._probe_failures.inc()

    def auto_failed_over(self, seconds: float) -> None:
        """The supervisor promoted a replica over a dead primary;
        ``seconds`` is the detection-to-recovery time (MTTR)."""
        self._auto_failovers.inc()
        self._mttr.observe(seconds)

    def auto_failover_failed(self) -> None:
        """A supervisor-initiated failover was refused (no candidate,
        or validation failed); the shard stays degraded."""
        self._failover_failures.inc()

    def resynced(self) -> None:
        """A condemned replica was rebuilt from its primary's
        checkpoint and returned to service."""
        self._resyncs.inc()

    def backfilled(self) -> None:
        """The supervisor attached a replacement replica to bring a
        shard's live set back to the configured size."""
        self._backfills.inc()

    def degraded(self, marked: bool) -> None:
        """A shard entered (``marked=True``) or left degraded mode."""
        if marked:
            self._degraded_marked.inc()
        else:
            self._degraded_cleared.inc()

    def write_shed(self) -> None:
        """A write was refused because its target shard is degraded."""
        self._writes_shed.inc()


_WAL_OBSERVER: Optional[WalObserver] = None
_REPL_OBSERVER: Optional[ReplicationObserver] = None
_SHARD_OBSERVER: Optional[ShardObserver] = None
_CLUSTER_OBSERVER: Optional[ClusterObserver] = None


def wal_observer() -> Optional[WalObserver]:
    """The installed :class:`WalObserver`, or None while metrics are
    disabled (the durability layer's zero-cost guard)."""
    return _WAL_OBSERVER


def repl_observer() -> Optional[ReplicationObserver]:
    """The installed :class:`ReplicationObserver`, or None while metrics
    are disabled (the replication layer's zero-cost guard)."""
    return _REPL_OBSERVER


def shard_observer() -> Optional[ShardObserver]:
    """The installed :class:`ShardObserver`, or None while metrics are
    disabled (the sharding layer's zero-cost guard)."""
    return _SHARD_OBSERVER


def cluster_observer() -> Optional[ClusterObserver]:
    """The installed :class:`ClusterObserver`, or None while metrics
    are disabled (the cluster layer's zero-cost guard)."""
    return _CLUSTER_OBSERVER


def install(registry: MetricsRegistry) -> None:
    """Point the expression evaluator's, durability layer's,
    replication layer's, sharding layer's and cluster layer's observer
    slots at ``registry``."""
    global _WAL_OBSERVER, _REPL_OBSERVER, _SHARD_OBSERVER
    global _CLUSTER_OBSERVER
    from repro.core import compile as engine
    from repro.core import expressions
    from repro.optimizer import rewriter

    expressions._OBSERVER = ExpressionObserver(registry)
    engine._OBSERVER = EngineObserver(registry)
    rewriter._OBSERVER = OptimizerObserver(registry)
    _WAL_OBSERVER = WalObserver(registry)
    _REPL_OBSERVER = ReplicationObserver(registry)
    _SHARD_OBSERVER = ShardObserver(registry)
    _CLUSTER_OBSERVER = ClusterObserver(registry)


def uninstall() -> None:
    """Clear the observer slots (the disabled, zero-cost state)."""
    global _WAL_OBSERVER, _REPL_OBSERVER, _SHARD_OBSERVER
    global _CLUSTER_OBSERVER
    from repro.core import compile as engine
    from repro.core import expressions
    from repro.optimizer import rewriter

    expressions._OBSERVER = None
    engine._OBSERVER = None
    rewriter._OBSERVER = None
    _WAL_OBSERVER = None
    _REPL_OBSERVER = None
    _SHARD_OBSERVER = None
    _CLUSTER_OBSERVER = None
