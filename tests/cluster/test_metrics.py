"""The ``cluster.*`` observability surface: every counter and histogram
records real topology events, and nothing fires while disabled."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core.commands import DefineRelation, ModifyState
from repro.core.expressions import Const, Rollback
from repro.core.txn import NOW
from repro.errors import StaleReadError
from repro.obsv import registry as obsv_registry
from repro.obsv.registry import MetricsRegistry
from repro.workloads.generators import StateGenerator

GEN = StateGenerator(seed=13, key_space=20)
S1 = GEN.snapshot_state(2)
S2 = GEN.snapshot_state(3)


@pytest.fixture
def metrics():
    registry = obsv_registry.enable(MetricsRegistry())
    try:
        yield registry
    finally:
        obsv_registry.disable()


class TestClusterMetrics:
    def test_read_failover_and_topology_counters(self, metrics):
        with Cluster(ClusterConfig(shards=1, replicas_per_shard=2)) as c:
            c.execute(DefineRelation("r", "rollback"))
            c.execute(ModifyState("r", Const(S1)))
            c.evaluate(Rollback("r", NOW))  # replica-served
            c.failover(0)
            c.evaluate(Rollback("r", NOW))  # still replica-served
            c.add_replica(0)
            index = c.add_shard()
            assert index == 1
            c.catch_up()
            c.lags()
        counters = metrics.snapshot()["counters"]
        assert counters["cluster.reads_replica"] == 2
        assert counters["cluster.failovers"] == 1
        assert counters["cluster.replicas_added"] == 1
        assert counters["cluster.shards_added"] == 1
        lag = metrics.snapshot()["histograms"]["cluster.shard_lag_records"]
        assert lag["count"] >= 3  # one sample per replica in lags()

    def test_primary_fallback_reads_are_counted(self, metrics):
        with Cluster(ClusterConfig(shards=1, replicas_per_shard=0)) as c:
            c.execute(DefineRelation("r", "rollback"))
            c.execute(ModifyState("r", Const(S1)))
            c.evaluate(Rollback("r", NOW))
        counters = metrics.snapshot()["counters"]
        assert counters["cluster.reads_primary"] == 1
        assert counters.get("cluster.reads_replica", 0) == 0

    def test_stale_rejections_are_counted(self, metrics):
        config = ClusterConfig(
            shards=1,
            replicas_per_shard=1,
            freshness="bounded",
            max_lag=0,
            on_stale="reject",
        )
        with Cluster(config) as c:
            c.execute(DefineRelation("r", "rollback"))
            c.execute(ModifyState("r", Const(S1)))
            with pytest.raises(StaleReadError):
                c.evaluate(Rollback("r", NOW))
        counters = metrics.snapshot()["counters"]
        assert counters["cluster.stale_rejections"] == 1

    def test_rebalance_repair_counter_fires(self, metrics):
        from repro.sharding import Partitioner

        class Pin(Partitioner):
            def __init__(self, index):
                self.index = index

            def shard_for(self, identifier, shard_count):
                return self._check(self.index, shard_count)

        with Cluster(
            ClusterConfig(
                shards=2, replicas_per_shard=0, partitioner=Pin(0)
            )
        ) as c:
            c.execute(DefineRelation("r", "rollback"))
            c.execute(ModifyState("r", Const(S1)))
            c.rebalance(Pin(1))
            c.execute(ModifyState("r", Const(S2)))
            c.rebalance(Pin(0))  # back onto the stale copy: repair
        counters = metrics.snapshot()["counters"]
        assert counters["shard.moves_stale_repaired"] == 1
        assert counters["shard.rebalances"] == 2

    def test_disabled_records_nothing(self):
        assert not obsv_registry.enabled()
        with Cluster(ClusterConfig(shards=1, replicas_per_shard=1)) as c:
            c.execute(DefineRelation("r", "rollback"))
            c.execute(ModifyState("r", Const(S1)))
            c.evaluate(Rollback("r", NOW))
            c.failover(0)
            c.lags()
        assert obsv_registry.get().snapshot()["counters"] == {}
