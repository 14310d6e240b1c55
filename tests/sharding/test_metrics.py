"""The ``shard.*`` observability surface: every counter and histogram
records real coordinator events, and nothing fires while disabled."""

import pytest

from repro.core.commands import DefineRelation, ModifyState
from repro.core.expressions import Const, Rollback, Union
from repro.core.txn import NOW
from repro.obsv import registry as obsv_registry
from repro.obsv.registry import MetricsRegistry
from repro.sharding import HashPartitioner, RangePartitioner, ShardedDatabase
from repro.workloads.generators import StateGenerator

GEN = StateGenerator(seed=3, key_space=20)
S1 = GEN.snapshot_state(2)
S2 = GEN.snapshot_state(3)


@pytest.fixture
def metrics():
    registry = obsv_registry.enable(MetricsRegistry())
    try:
        yield registry
    finally:
        obsv_registry.disable()


def drive(sharded):
    sharded.execute(DefineRelation("alpha", "rollback"))
    sharded.execute(DefineRelation("zeta", "rollback"))
    sharded.execute(DefineRelation("alpha", "rollback"))  # no-op
    sharded.execute(ModifyState("ghost", Const(S1)))  # no-op
    sharded.execute(ModifyState("alpha", Const(S1)))  # routed
    sharded.execute(ModifyState("zeta", Const(S2)))  # routed
    sharded.execute(  # coordinated (cross-shard expression)
        ModifyState(
            "zeta", Union(Rollback("alpha", NOW), Rollback("zeta", NOW))
        )
    )
    sharded.evaluate(Rollback("alpha", NOW))  # single-shard query
    sharded.evaluate(  # scattered query
        Union(Rollback("alpha", NOW), Rollback("zeta", NOW))
    )


class TestShardMetrics:
    def test_command_and_query_counters(self, metrics):
        with ShardedDatabase(
            2, partitioner=RangePartitioner(["m"])
        ) as sharded:
            drive(sharded)
        counters = metrics.snapshot()["counters"]
        assert counters["shard.commands_routed"] == 4  # 2 defines + 2
        assert counters["shard.commands_coordinated"] == 1
        assert counters["shard.commands_noop"] == 2
        # the coordinated modify's expression is a coordinator read too
        assert counters["shard.queries"] == 3
        assert counters["shard.queries_single_shard"] == 1
        assert counters["shard.queries_scattered"] == 2
        # one per ρ leaf: two in the modify, one, then two in the queries
        assert counters["shard.subqueries_routed"] == 5

    def test_fanout_histogram(self, metrics):
        with ShardedDatabase(
            2, partitioner=RangePartitioner(["m"])
        ) as sharded:
            drive(sharded)
        fanout = metrics.snapshot()["histograms"]["shard.query_fanout"]
        assert fanout["count"] == 3  # the coordinated modify, two queries
        assert fanout["max"] == 2
        assert fanout["min"] == 1

    def test_rebalance_metrics(self, metrics):
        with ShardedDatabase(
            2, partitioner=HashPartitioner()
        ) as sharded:
            sharded.execute(DefineRelation("alpha", "rollback"))
            sharded.execute(ModifyState("alpha", Const(S1)))
            sharded.rebalance(HashPartitioner(salt=1))
            snapshot = metrics.snapshot()
            assert snapshot["counters"]["shard.rebalances"] == 1
            moves = (
                snapshot["counters"]["shard.moves_wal_replayed"]
                + snapshot["counters"]["shard.moves_state_copied"]
            )
            assert moves >= 0
            seconds = snapshot["histograms"]["shard.rebalance_seconds"]
            assert seconds["count"] == 1

    def test_disabled_records_nothing(self):
        assert not obsv_registry.enabled()
        with ShardedDatabase(
            2, partitioner=RangePartitioner(["m"])
        ) as sharded:
            drive(sharded)
            sharded.rebalance()
        assert obsv_registry.get().snapshot()["counters"] == {}
