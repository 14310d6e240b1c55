"""ScatterGatherRouter: the routing policy over a fake coordinator, and
leaf routing over real shards and replicas."""

from types import SimpleNamespace

import pytest

from repro.core.expressions import (
    Const,
    Derive,
    Difference,
    Product,
    Project,
    Rename,
    Rollback,
    Select,
    Union,
)
from repro.core.relation import RelationType
from repro.core.txn import NOW
from repro.sharding import ScatterGatherRouter
from repro.snapshot.predicates import Comparison, attr, lit
from repro.workloads.generators import StateGenerator

OWNERS = {"a": 0, "b": 1, "c": 1}


class FakeCoordinator:
    """The static OWNERS map at global transaction 10; the fake
    localizer shifts every explicit numeral down by one."""

    transaction_number = 10

    def __init__(self, localize=lambda identifier, numeral: numeral - 1):
        self._localize = localize

    def shard_of(self, identifier):
        return OWNERS[identifier]

    def localize_numeral(self, identifier, numeral):
        return self._localize(identifier, numeral)

    def owner_relation(self, identifier):
        return SimpleNamespace(rtype=RelationType.ROLLBACK)


def make_router(node_of=lambda shard: None):
    """A router over :class:`FakeCoordinator`."""
    return ScatterGatherRouter(FakeCoordinator(), node_of)


SOME_STATE = StateGenerator(seed=1).snapshot_state(2)


class TestShardsOf:
    def test_const_only_touches_no_shard(self):
        router = make_router()
        assert router.shards_of(Const(SOME_STATE)) == frozenset()

    def test_single_leaf(self):
        router = make_router()
        assert router.shards_of(Rollback("a", NOW)) == {0}

    def test_union_of_colocated_leaves_is_single_shard(self):
        router = make_router()
        expression = Union(Rollback("b", NOW), Rollback("c", 3))
        assert router.shards_of(expression) == {1}

    def test_cross_shard_union(self):
        router = make_router()
        expression = Union(Rollback("a", NOW), Rollback("b", NOW))
        assert router.shards_of(expression) == {0, 1}


class TestLocalize:
    def test_now_leaf_returned_by_identity(self):
        router = make_router()
        leaf = Rollback("a", NOW)
        assert router.localize(leaf, 0) is leaf

    def test_const_returned_by_identity(self):
        router = make_router()
        leaf = Const(SOME_STATE)
        assert router.localize(leaf, 0) is leaf

    def test_unchanged_numeral_returned_by_identity(self):
        router = ScatterGatherRouter(
            FakeCoordinator(localize=lambda identifier, numeral: numeral),
            lambda shard: None,
        )
        leaf = Rollback("a", 4)
        assert router.localize(leaf, 0) is leaf

    def test_numeral_rewritten(self):
        router = make_router()
        localized = router.localize(Rollback("a", 4), 0)
        assert isinstance(localized, Rollback)
        assert localized.identifier == "a"
        assert localized.numeral == 3

    def test_rebuild_shares_unchanged_children(self):
        router = make_router()
        unchanged = Rollback("b", NOW)
        expression = Union(unchanged, Rollback("c", 5))
        localized = router.localize(expression, 1)
        assert localized is not expression
        assert localized.left is unchanged
        assert localized.right.numeral == 4

    @pytest.mark.parametrize(
        "wrap",
        [
            lambda leaf: Union(leaf, leaf),
            lambda leaf: Difference(leaf, leaf),
            lambda leaf: Product(leaf, Rename(leaf, {"key": "key2"})),
            lambda leaf: Project(leaf, ["key"]),
            lambda leaf: Select(
                leaf, Comparison(attr("key"), ">=", lit(0))
            ),
            lambda leaf: Rename(leaf, {"key": "k2"}),
            lambda leaf: Derive(leaf),
        ],
    )
    def test_every_node_shape_rebuilds(self, wrap):
        router = make_router()
        expression = wrap(Rollback("a", 9))
        localized = router.localize(expression, 0)
        assert localized is not expression
        assert type(localized) is type(expression)
        # the rewritten tree carries the translated numeral everywhere
        assert all(
            leaf.numeral == 8 for leaf in _rollback_leaves(localized)
        )


def _rollback_leaves(expression):
    if isinstance(expression, Rollback):
        yield expression
    for child in expression.children():
        yield from _rollback_leaves(child)




# -- leaf routing ------------------------------------------------------------


class RecordingNode:
    """A shard node that records each leaf it answers and answers every
    one with SOME_STATE."""

    def __init__(self):
        self.leaves = []

    def evaluate(self, expression):
        self.leaves.append(expression)
        return SOME_STATE


def routed(expression):
    """``(result, picks, nodes)``: ``expression`` read through a router
    over two recording nodes; ``picks`` lists each ``node_of`` call."""
    nodes = {0: RecordingNode(), 1: RecordingNode()}
    picks = []

    def node_of(shard):
        picks.append(shard)
        return nodes[shard]

    return make_router(node_of).evaluate(expression), picks, nodes


@pytest.fixture
def metrics():
    from repro.obsv import registry as obsv_registry
    from repro.obsv.registry import MetricsRegistry

    registry = obsv_registry.enable(MetricsRegistry())
    try:
        yield registry
    finally:
        obsv_registry.disable()


class TestLeafRouting:
    def test_past_leaf_reaches_its_owner_localized(self):
        _, picks, nodes = routed(Rollback("a", 4))
        assert picks == [0]
        assert nodes[0].leaves == [Rollback("a", 3)]
        assert nodes[1].leaves == []

    def test_now_leaf_reaches_its_owner_as_now(self):
        _, picks, nodes = routed(Rollback("b", NOW))
        assert picks == [1]
        assert nodes[1].leaves == [Rollback("b", NOW)]

    def test_the_current_global_numeral_reaches_its_owner_as_now(self):
        # FakeCoordinator's global counter is 10
        _, _, nodes = routed(Rollback("c", 10))
        assert nodes[1].leaves == [Rollback("c", NOW)]

    def test_operators_run_where_the_read_runs(self):
        result, _, nodes = routed(
            Select(
                Union(Rollback("b", NOW), Rollback("c", 7)),
                Comparison(attr("key"), ">=", lit(0)),
            )
        )
        # the shard sees leaves only, never the union or the selection
        assert nodes[1].leaves == [Rollback("b", NOW), Rollback("c", 6)]
        assert result == SOME_STATE

    def test_constant_only_read_touches_no_node(self, metrics):
        result, picks, _ = routed(Const(SOME_STATE))
        assert result == SOME_STATE
        assert picks == []
        snapshot = metrics.snapshot()
        fanout = snapshot["histograms"]["shard.query_fanout"]
        assert (fanout["count"], fanout["min"], fanout["max"]) == (1, 1, 1)
        assert snapshot["counters"]["shard.queries_single_shard"] == 1
        assert "shard.subqueries_routed" not in snapshot["counters"]

    def test_one_node_pick_per_touched_shard(self, metrics):
        expression = Union(
            Difference(Rollback("b", NOW), Rollback("a", 3)),
            Union(Rollback("c", 5), Rollback("a", NOW)),
        )
        _, picks, nodes = routed(expression)
        assert sorted(picks) == [0, 1]
        assert len(nodes[0].leaves) == 2
        assert len(nodes[1].leaves) == 2
        counters = metrics.snapshot()["counters"]
        assert counters["shard.queries_scattered"] == 1
        assert counters["shard.subqueries_routed"] == 4
        fanout = metrics.snapshot()["histograms"]["shard.query_fanout"]
        assert fanout["max"] == 2

    def test_a_compiled_plan_routes_as_its_tree_does(self):
        from repro.core.compile import compile_expression

        expression = Difference(
            Union(Rollback("a", 4), Rollback("b", NOW)), Rollback("a", 4)
        )
        tree_result, tree_picks, tree_nodes = routed(expression)
        plan_result, plan_picks, plan_nodes = routed(
            compile_expression(expression)
        )
        assert plan_result == tree_result
        assert sorted(plan_picks) == sorted(tree_picks)
        # the plan's one step for the repeated leaf asks the shard once
        assert plan_nodes[0].leaves == [Rollback("a", 3)]
        assert plan_nodes[1].leaves == tree_nodes[1].leaves


# -- error parity on real shards and replicas ---------------------------------


def _sentence():
    """Relations on both sides of ``RangePartitioner(["m"])``: ``alpha``
    (rollback) on shard 0; ``tsnap`` (snapshot) and ``zeta``
    (rollback) on shard 1, so global and shard-local numerals differ."""
    from repro.lang.parser import parse_sentence

    return parse_sentence(
        "define_relation(alpha, rollback);"
        "modify_state(alpha, state (k: integer) { (1) });"
        "define_relation(zeta, rollback);"
        "define_relation(tsnap, snapshot);"
        "modify_state(tsnap, state (k: integer) { (2) });"
        "modify_state(alpha, rollback(alpha, now) union "
        "state (k: integer) { (3) });"
        "modify_state(zeta, state (k: integer) { (4) })"
    )


def _oracle():
    from repro.core.database import EMPTY_DATABASE

    database = EMPTY_DATABASE
    for command in _sentence():
        database = command.execute(database)
    return database


def _raised(read, expression):
    from repro.errors import ReproError

    with pytest.raises(ReproError) as error:
        read(expression)
    return type(error.value), str(error.value)


PARITY_READS = [
    Rollback("nosuch", NOW),
    Rollback("nosuch", 3),
    Rollback("tsnap", 2),
    Union(Rollback("alpha", 2), Rollback("tsnap", 5)),
]


class TestErrorParity:
    @pytest.mark.parametrize("expression", PARITY_READS, ids=repr)
    def test_sharded_read_raises_what_one_node_raises(self, expression):
        from repro.sharding import RangePartitioner, ShardedDatabase

        with ShardedDatabase(
            2, partitioner=RangePartitioner(["m"])
        ) as sharded:
            for command in _sentence():
                sharded.execute(command)
            assert _raised(sharded.evaluate, expression) == _raised(
                lambda x: x.evaluate(_oracle()), expression
            )

    @pytest.mark.parametrize("expression", PARITY_READS, ids=repr)
    def test_cluster_read_raises_what_one_node_raises(self, expression):
        from repro.cluster import Cluster, ClusterConfig
        from repro.sharding import RangePartitioner

        config = ClusterConfig(
            shards=2, replicas_per_shard=1,
            partitioner=RangePartitioner(["m"]),
        )
        with Cluster(config) as cluster:
            for command in _sentence():
                cluster.execute(command)
            assert _raised(cluster.evaluate, expression) == _raised(
                lambda x: x.evaluate(_oracle()), expression
            )

    @pytest.mark.parametrize(
        "expression",
        [
            Rollback("zeta", NOW),  # received, but the replica lags
            Rollback("tsnap", 2),  # a past state would be refused too
            Rollback("pending", NOW),  # not received by the replica yet
        ],
        ids=repr,
    )
    def test_a_lagging_replica_rejects_first(self, expression):
        from repro.cluster import Cluster, ClusterConfig
        from repro.core.commands import DefineRelation
        from repro.errors import StaleReadError
        from repro.sharding import RangePartitioner

        config = ClusterConfig(
            shards=2, replicas_per_shard=1, freshness="bounded",
            max_lag=0, on_stale="reject",
            partitioner=RangePartitioner(["m"]),
        )
        with Cluster(config) as cluster:
            for command in _sentence():
                cluster.execute(command)
            cluster.catch_up()
            cluster.execute(DefineRelation("pending", "rollback"))
            with pytest.raises(StaleReadError):
                cluster.evaluate(expression)
            cluster.catch_up()
            cluster.evaluate(Rollback("zeta", NOW))


class TestClusterNodePicks:
    def test_fresh_read_picks_and_catches_up_once_per_shard(self, metrics):
        from repro.cluster import Cluster, ClusterConfig
        from repro.replication.replica import Replica
        from repro.sharding import RangePartitioner
        from tests.conftest import calls_to

        config = ClusterConfig(
            shards=2, replicas_per_shard=1,
            partitioner=RangePartitioner(["m"]),
        )
        # leaves of each shard sit in different cross-shard subtrees
        expression = Union(
            Union(Rollback("alpha", NOW), Rollback("zeta", NOW)),
            Difference(Rollback("alpha", 2), Rollback("zeta", NOW)),
        )
        with Cluster(config) as cluster:
            for command in _sentence():
                cluster.execute(command)
            with calls_to(Cluster, "_pick_replica") as picks:
                with calls_to(Replica, "catch_up") as catch_ups:
                    result = cluster.evaluate(expression)
        assert result == expression.evaluate(_oracle())
        assert sorted(args[1] for args in picks) == [0, 1]
        assert len(catch_ups) == 2
        counters = metrics.snapshot()["counters"]
        assert counters["cluster.reads_replica"] == 2
        assert counters["shard.subqueries_routed"] == 4
