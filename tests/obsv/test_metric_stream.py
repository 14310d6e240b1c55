"""Characterisation of the metric stream: one fixed script through every
instrumented layer, and exactly what it records.

The script is seed-free and the WAL's batch-fsync clock is frozen, so
every count below is a function of the code alone.  Counters are
compared by value.  Histograms are compared by observation count, and
those that record sizes rather than timings (replay lengths, fan-out,
lag, batch sizes, cost ratios) by their minimum and maximum too.  An
instrument that recorded nothing is not listed: whether a silent
instrument shows up in a snapshot is not part of the stream.
"""

from __future__ import annotations

import itertools
import os
import struct
import types

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.supervisor import ClusterSupervisor
from repro.core.commands import DefineRelation, ModifyState
from repro.core.expressions import Const, Rollback, Union, evaluate_memoized
from repro.core.txn import NOW
from repro.durability import DurableDatabase, MemoryStore
from repro.durability import wal as wal_module
from repro.errors import ClusterDegradedError, ReproError, StaleReadError
from repro.lang.parser import parse_command, parse_expression
from repro.lang.session import Session
from repro.obsv import registry as obsv_registry
from repro.obsv.registry import MetricsRegistry
from repro.replication import PrimaryStream, Replica, RetryPolicy
from repro.snapshot.attributes import INTEGER, Attribute
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState

K = Schema([Attribute("k", INTEGER)])


def _state(*keys):
    return SnapshotState(K, [[key] for key in keys])


def _plain_session():
    session = Session(plan_cache_capacity=2)
    session.execute("define_relation(r, rollback);")
    session.execute("modify_state(r, state (k: integer) { (1), (2) });")
    session.execute_many(
        [
            "modify_state(r, rollback(r, now) union "
            "state (k: integer) { (3) });",
            "modify_state(r, rollback(r, now) minus "
            "state (k: integer) { (1) });",
        ]
    )
    session.query("rollback(r, now)")
    session.query("rollback(r, now)")  # the same text: a plan-cache hit
    session.query("select[k = 2](rollback(r, 2) union rollback(r, 3))")
    session.query("select[k = 2](select[k = 3](rollback(r, now)))")
    session.execute("define_relation(s, rollback);")
    session.query("rollback(r, now)")  # the catalog moved: a re-plan
    session.query("rollback(s, now) minus rollback(r, now)")  # evicts
    evaluate_memoized(
        parse_expression(
            "rollback(r, now) minus (rollback(r, now) minus rollback(r, 2))"
        ),
        session.database,
    )


def _durable_session(directory):
    session = Session(
        durable_dir=directory, fsync="always", checkpoint_every=0
    )
    session.execute("define_relation(d, rollback);")
    for key in range(4):
        session.execute(
            f"modify_state(d, state (k: integer) {{ ({key}) }});"
        )
    session.checkpoint()
    session.execute(
        "modify_state(d, rollback(d, now) union state (k: integer) { (9) });"
    )
    segment = os.path.join(directory, session.durable.wal.segment_names()[-1])
    session.close()
    with open(segment, "ab") as handle:
        # a torn final frame: the header promises more than follows
        handle.write(struct.pack("<II", 100, 0) + b"torn")
    for name in os.listdir(directory):
        if name.startswith("checkpoint-"):
            # a damaged manifest: recovery skips it and replays the log
            with open(os.path.join(directory, name), "w") as handle:
                handle.write("{")
    reopened = Session(durable_dir=directory, fsync="always")
    reopened.query("rollback(d, 3)")
    reopened.close()


class _ScriptedStream(PrimaryStream):
    """The primary's own stream, except that the second fetch re-delivers
    the last applied record and the third drops its first record."""

    def __init__(self, primary):
        super().__init__(primary)
        self._fetches = 0

    def fetch(self, after_lsn, limit=256):
        self._fetches += 1
        if self._fetches == 2:
            return super().fetch(after_lsn - 1, limit)
        batch = super().fetch(after_lsn, limit)
        return batch[1:] if self._fetches == 3 else batch


def _replica():
    primary = DurableDatabase(
        MemoryStore(),
        fsync="always",
        checkpoint_every=0,
        keep_checkpoints=1,
        segment_bytes=256,
    )
    primary.execute(DefineRelation("x", "rollback"))
    for key in range(5):
        primary.execute(ModifyState("x", Const(_state(key))))
    replica = Replica(
        _ScriptedStream(primary),
        fsync="always",
        retry=RetryPolicy(max_attempts=4, base_delay=0.0, max_delay=0.0),
        batch_records=2,
        max_lag=0,
        on_stale="serve",
    )
    replica.catch_up()
    primary.execute(ModifyState("x", Const(_state(7))))
    replica.evaluate(Rollback("x", NOW))  # one behind: served stale
    strict = Replica(PrimaryStream(primary), fsync="always", max_lag=0)
    with pytest.raises(StaleReadError):
        strict.evaluate(Rollback("x", NOW))
    replica.catch_up()
    replica.resync()
    replica.promote()
    primary.checkpoint()  # one kept chain: the rotated segments go


def _sharded_session():
    # with two shards r lives on shard 1 and t on shard 0; a third shard
    # pulls t over to shard 2 on rebalance
    session = Session(shards=2, fsync="always", checkpoint_every=0)
    session.execute("define_relation(r, rollback);")
    session.execute("define_relation(t, rollback);")
    session.execute("define_relation(r, rollback);")  # already bound
    session.execute("modify_state(r, state (k: integer) { (1) });")
    session.execute("modify_state(t, state (k: integer) { (2) });")
    session.execute(
        "modify_state(r, rollback(r, now) union rollback(t, now));"
    )
    session.execute("modify_state(ghost, rollback(r, now));")
    session.query("rollback(r, now) union rollback(t, now)")
    session.query("rollback(t, 4)")
    session.add_shard()
    session.rebalance()
    session.query("rollback(t, now) minus rollback(r, now)")
    session.close()


def _cluster():
    cluster = Cluster(
        ClusterConfig(
            shards=2, replicas_per_shard=0, fsync="always", checkpoint_every=0
        )
    )
    cluster.execute(DefineRelation("r", "rollback"))
    cluster.execute(DefineRelation("t", "rollback"))
    cluster.execute(ModifyState("r", Const(_state(1, 2))))
    cluster.execute(ModifyState("t", Const(_state(3))))
    cluster.add_replica(1)
    both = Union(Rollback("r", NOW), Rollback("t", NOW))
    cluster.evaluate(both)  # r from a replica, t from its primary
    cluster.failover(1)
    cluster.add_replica(0)
    cluster.add_replica(1)
    cluster.execute(ModifyState("r", Const(_state(4))))
    cluster.catch_up()
    cluster.evaluate(both)
    cluster.lags()
    cluster.mark_degraded(0)
    with pytest.raises(ClusterDegradedError):
        cluster.execute(ModifyState("t", Const(_state(5))))
    cluster.clear_degraded(0)
    return cluster


def _supervisor_tick(cluster):
    dead = cluster.primaries[0]

    def probe(primary):
        if primary is dead:
            raise ReproError("primary 0 is down")

    supervisor = ClusterSupervisor(
        cluster,
        failure_threshold=1,
        replicas_per_shard=1,
        clock=itertools.count(10.0, 0.5).__next__,
        sleep=lambda seconds: None,
        probe=probe,
    )
    supervisor.tick()
    cluster.close()


@pytest.fixture
def stream(tmp_path, monkeypatch):
    """Run the script with metrics on; returns the registry snapshot."""
    # batch fsync policies also sync on elapsed time; a frozen clock
    # makes the fsync count depend on record counts alone
    monkeypatch.setattr(
        wal_module, "time", types.SimpleNamespace(monotonic=lambda: 0.0)
    )
    registry = obsv_registry.enable(MetricsRegistry())
    try:
        _plain_session()
        _durable_session(str(tmp_path / "durable"))
        _replica()
        _sharded_session()
        _supervisor_tick(_cluster())
    finally:
        obsv_registry.disable()
    return registry.snapshot()


def _is_timing(name):
    return name.endswith("_seconds")


EXPECTED_COUNTERS = {
    "cluster.catchup_records": 5,
    "cluster.failovers": 2,
    "cluster.health.auto_failovers": 1,
    "cluster.health.backfills": 1,
    "cluster.health.degraded_cleared": 2,
    "cluster.health.degraded_marked": 2,
    "cluster.health.probe_failures": 1,
    "cluster.health.probes": 2,
    "cluster.health.writes_shed": 1,
    "cluster.reads_primary": 1,
    "cluster.reads_replica": 3,
    "cluster.replicas_added": 4,
    "engine.plan_executions": 7,
    "engine.plans_compiled": 6,
    "engine.steps_compiled": 13,
    "engine.steps_executed": 14,
    "expr.memo_hits": 1,
    "expr.memo_misses": 4,
    "expr.nodes_evaluated": 75,
    "expr.rollback_evaluations": 27,
    "lang.batches_executed": 1,
    "lang.plan_cache.evictions": 3,
    "lang.plan_cache.hits": 1,
    "lang.plan_cache.misses": 9,
    "lang.queries": 10,
    "lang.statements_executed": 18,
    "optimizer.plans_optimized": 9,
    "optimizer.rewrites_accepted": 2,
    "optimizer.rewrites_considered": 3,
    "optimizer.rewrites_rejected": 1,
    "repl.batches_fetched": 9,
    "repl.duplicates_skipped": 1,
    "repl.gaps_detected": 1,
    "repl.promotions": 3,
    "repl.records_applied": 14,
    "repl.resnapshots": 1,
    "repl.retries": 1,
    "repl.stale_reads_rejected": 1,
    "repl.stale_reads_served": 1,
    "repl.transient_errors": 1,
    "shard.commands_coordinated": 1,
    "shard.commands_noop": 2,
    "shard.commands_routed": 9,
    "shard.merges": 5,
    "shard.moves_wal_replayed": 1,
    "shard.queries": 5,
    "shard.queries_scattered": 4,
    "shard.queries_single_shard": 1,
    "shard.rebalances": 1,
    "shard.subqueries_routed": 11,
    "wal.bytes_appended": 4249,
    "wal.checkpoint_bytes": 2585,
    "wal.checkpoints_invalid_skipped": 1,
    "wal.checkpoints_written": 7,
    "wal.commands_executed": 40,
    "wal.compactions": 1,
    "wal.fsyncs": 36,
    "wal.records_appended": 40,
    "wal.recoveries": 15,
    "wal.segments_dropped": 3,
    "wal.segments_rotated": 3,
    "wal.torn_records_truncated": 1,
}

#: count for timings; (count, min, max) for sizes and ratios
EXPECTED_HISTOGRAMS = {
    "cluster.health.mttr_seconds": 1,
    "cluster.shard_lag_records": (2, 0, 0),
    "optimizer.cost_ratio": (9, 0.7824675324675325, 1.0),
    "repl.apply_seconds": 9,
    "repl.batch_records": (9, 1, 3),
    "repl.catchup_seconds": 9,
    "repl.lag_records": (4, 0, 7),
    "repl.retry_sleep_seconds": 1,
    "shard.query_fanout": (5, 1, 2),
    "shard.rebalance_seconds": 1,
    "wal.recovery_replay_length": (15, 0, 6),
    "wal.recovery_seconds": 15,
}


def test_counters(stream):
    counters = {
        name: value for name, value in stream["counters"].items() if value
    }
    assert counters == EXPECTED_COUNTERS


def test_histograms(stream):
    histograms = {}
    for name, summary in stream["histograms"].items():
        if not summary["count"]:
            continue
        if _is_timing(name):
            histograms[name] = summary["count"]
        else:
            histograms[name] = (
                summary["count"],
                summary["min"],
                summary["max"],
            )
    assert histograms == EXPECTED_HISTOGRAMS
