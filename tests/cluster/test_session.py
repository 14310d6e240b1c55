"""`Session(cluster=...)`: the language-level surface over a cluster,
and the composition error paths (legacy kwargs must point at the
supported ``cluster=`` form with precise messages)."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.errors import ClusterError
from repro.lang.session import Session


@pytest.fixture
def session():
    s = Session(cluster=ClusterConfig(shards=2, replicas_per_shard=1))
    yield s
    s.close()


STATE = "state (k: integer, v: integer) { (1, 10), (2, 20) }"
STATE2 = "state (k: integer, v: integer) { (3, 30) }"


class TestClusterSessions:
    def test_execute_and_query_round_trip(self, session):
        session.execute("define_relation(r, rollback)")
        session.execute(f"modify_state(r, {STATE})")
        oracle = Session()
        oracle.execute("define_relation(r, rollback)")
        oracle.execute(f"modify_state(r, {STATE})")
        assert session.query("rollback(r, now)") == oracle.query(
            "rollback(r, now)"
        )
        assert session.query("rollback(r, 2)") == oracle.query(
            "rollback(r, 2)"
        )
        assert session.database == oracle.database

    def test_accepts_a_prebuilt_cluster(self):
        cluster = Cluster(ClusterConfig(shards=1, replicas_per_shard=0))
        session = Session(cluster=cluster)
        try:
            assert session.cluster is cluster
            session.execute("define_relation(r, rollback)")
            assert session.transaction_number == 1
        finally:
            session.close()
        assert cluster.closed

    def test_failover_through_the_session(self, session):
        session.execute("define_relation(r, rollback)")
        session.execute(f"modify_state(r, {STATE})")
        shard = session.cluster.sharded.shard_of("r")
        session.failover(shard)
        session.execute(f"modify_state(r, {STATE2})")
        assert "3" in str(session.query("rollback(r, now)"))

    def test_add_shard_add_replica_rebalance(self, session):
        session.execute("define_relation(r, rollback)")
        session.execute(f"modify_state(r, {STATE})")
        index = session.add_shard()
        session.add_replica(index)
        report = session.rebalance()
        assert report.moved >= 0
        assert session.catch_up() >= 0
        assert session.query("rollback(r, now)") is not None


class TestCompositionErrors:
    def test_cluster_with_legacy_shards_is_rejected(self):
        with pytest.raises(ValueError, match="drop the legacy shards="):
            Session(shards=2, cluster=ClusterConfig())

    def test_cluster_with_legacy_replica_of_is_rejected(self):
        with pytest.raises(
            ValueError, match="drop the legacy replica_of="
        ):
            Session(replica_of=object(), cluster=ClusterConfig())

    def test_cluster_with_durable_dir_is_rejected(self, tmp_path):
        with pytest.raises(
            ValueError, match=r"Cluster\(config, directory=\.\.\.\)"
        ):
            Session(str(tmp_path), cluster=ClusterConfig())

    def test_legacy_shards_plus_replica_points_at_cluster(self):
        with pytest.raises(
            ValueError,
            match=r"cluster=ClusterConfig\(shards=N",
        ):
            Session(shards=2, replica_of=object())

    def test_cluster_of_wrong_type_is_rejected(self):
        with pytest.raises(ValueError, match="must be a ClusterConfig"):
            Session(cluster="3x2")

    def test_non_cluster_session_rejects_cluster_ops(self):
        with Session() as session:
            with pytest.raises(ClusterError, match="failover"):
                session.failover(0)
            with pytest.raises(ClusterError, match="add_replica"):
                session.add_replica(0)
