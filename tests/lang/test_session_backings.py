"""Characterisation of the five ``Session`` backings.

A database is a value and a command a function from one value to the
next (``C[[C1, C2]] d = C[[C2]](C[[C1]] d)``), so where the current value
lives — memory, a WAL directory, a replica, a shard coordinator or a
cluster — must not change what a session observes.  For every backing
each public ``Session`` member either returns what a plain in-memory
oracle returns (or its documented value) or raises its documented typed
error; the server's :class:`ServerStore` is held to the same oracle.
"""

from __future__ import annotations

import gc

import pytest

from repro.cluster import ClusterConfig
from repro.concurrency import TransactionManager
from repro.core.database import Database
from repro.core.expressions import Rollback, is_empty_set
from repro.core.sentences import run
from repro.core.txn import NOW
from repro.errors import (
    ClusterError,
    ConcurrencyError,
    ReplicationError,
    ShardingError,
)
from repro.lang.parser import parse_command
from repro.lang.session import Session
from repro.replication import Replica, RetryPolicy
from repro.server.store import ServerStore, render_state

KINDS = ("plain", "durable", "replica", "sharded", "cluster")
COORDINATED = ("sharded", "cluster")

SCRIPT = (
    "define_relation(r, rollback)",
    "modify_state(r, state (k: integer, v: integer) { (1, 10), (2, 20) })",
    "define_relation(s, snapshot)",
    "modify_state(s, state (k: integer) { (7) })",
    "modify_state(r, rollback(r, now) union "
    "state (k: integer, v: integer) { (3, 30) })",
)

QUERIES = (
    "rollback(r, now)",
    "rollback(r, 2)",
    "rollback(r, 3)",
    "rollback(s, now)",
    "project [k] (rollback(r, now))",
    "select [v > 15] (rollback(r, now))",
    "rollback(r, now) times rename(rollback(s, now), k -> j)",
)

WRITE = "modify_state(s, state (k: integer) { (8) })"

# add, rename and drop an attribute on a rollback and a temporal relation
SCHEME_SCRIPT = (
    "define_relation(r, rollback)",
    "modify_state(r, state (k: integer, v: integer) { (1, 10), (2, 20) })",
    "define_relation(h, temporal)",
    "modify_state(h, state (k: integer) { (1) @ [0, 5), (2) @ [3, 9) })",
    'modify_state(r, rollback(r, now) times state (w: string) { ("x") })',
    "modify_state(h, rollback(h, now) "
    'times state (w: string) { ("x") @ [0, forever) })',
    "modify_state(r, rename(rollback(r, now), w -> z))",
    "modify_state(h, rename(rollback(h, now), w -> z))",
    "modify_state(r, project [k, z] (rollback(r, now)))",
    "modify_state(h, project [k, z] (rollback(h, now)))",
)


def oracle() -> Session:
    session = Session()
    for source in SCRIPT:
        session.execute(source)
    return session


class Backing:
    """One session over one backing kind, plus how to write to it: a
    replica's writes land on its primary and arrive by catch-up."""

    def __init__(self, kind: str, tmp_path) -> None:
        self.kind = kind
        self.primary = None
        if kind == "plain":
            self.session = Session()
        elif kind == "durable":
            self.session = Session(durable_dir=str(tmp_path / "db"))
        elif kind == "replica":
            self.primary = Session(durable_dir=str(tmp_path / "primary"))
            self.session = Session(
                replica_of=self.primary, retry=RetryPolicy.none()
            )
        elif kind == "sharded":
            self.session = Session(shards=2)
        else:
            self.session = Session(
                cluster=ClusterConfig(shards=2, replicas_per_shard=1)
            )

    def write(self, source: str) -> None:
        if self.primary is None:
            self.session.execute(source)
        else:
            self.primary.execute(source)
            self.session.catch_up()

    def close(self) -> None:
        self.session.close()
        if self.primary is not None:
            self.primary.close()


@pytest.fixture(params=KINDS)
def backing(request, tmp_path):
    backing = Backing(request.param, tmp_path)
    for source in SCRIPT:
        backing.write(source)
    yield backing
    backing.close()


class TestReads:
    def test_value_and_transaction_number(self, backing):
        expected = oracle()
        session = backing.session
        assert session.transaction_number == expected.transaction_number
        assert isinstance(session.database, Database)
        assert session.database == expected.database
        assert session.isolation == "serial"

    @pytest.mark.parametrize("kind", KINDS)
    def test_history(self, kind, tmp_path):
        backing = Backing(kind, tmp_path)
        session = backing.session
        try:
            for step, source in enumerate(SCRIPT, start=1):
                backing.write(source)
                expected = run(
                    [parse_command(text) for text in SCRIPT[:step]]
                )
                if kind in COORDINATED:
                    coordinator = session.sharded or session.cluster
                    assert (
                        coordinator.transaction_number
                        == expected.transaction_number
                    )
                    assert coordinator.as_database() == expected, step
                else:
                    assert session.database == expected, step
        finally:
            backing.close()

    def test_queries_match_the_oracle(self, backing):
        expected = oracle()
        session = backing.session
        for text in QUERIES:
            assert session.query(text) == expected.query(text), text
            # a second run is served from the plan cache
            assert session.query(text) == expected.query(text), text
        info = session.plan_cache_info()
        # rollback(r, 2) and rollback(r, 3) share one plan
        assert info["size"] == len(QUERIES) - 1
        assert info["hits"] == len(QUERIES) + 1
        assert info["misses"] == len(QUERIES) - 1
        assert session.query(Rollback("r", NOW)) == expected.query(
            Rollback("r", NOW)
        )

    def test_inspection_matches_the_oracle(self, backing):
        expected = oracle()
        session = backing.session
        assert session.current_state("r") == expected.current_state("r")
        assert session.display("r") == expected.display("r")
        assert session.display("r", 2) == expected.display("r", 2)
        assert session.catalog() == expected.catalog()
        stats, oracle_stats = session.statistics(), expected.statistics()
        assert dict(stats.items()) == dict(oracle_stats.items())
        for identifier in ("r", "s"):
            assert stats.version_count(identifier) == (
                oracle_stats.version_count(identifier)
            )
        text = "project [k] (select [v > 15] (rollback(r, now)))"
        assert session.explain(text) == expected.explain(text)
        retrieve = "retrieve (k) from r where v > 15"
        assert session.quel(retrieve) == expected.quel(retrieve)

    def test_accessors_name_only_their_own_backing(self, backing):
        session = backing.session
        assert (session.durable is not None) == (backing.kind == "durable")
        assert (session.replica is not None) == (backing.kind == "replica")
        assert (session.sharded is not None) == (backing.kind == "sharded")
        assert (session.cluster is not None) == (backing.kind == "cluster")

    def test_replication_surface(self, backing):
        session = backing.session
        session.catch_up()
        assert session.catch_up() == 0
        assert session.lag() == 0


class TestWrites:
    def test_execute_matches_the_oracle(self, backing):
        session = backing.session
        if backing.kind == "replica":
            with pytest.raises(ReplicationError):
                session.execute(WRITE)
            with pytest.raises(ReplicationError):
                session.execute_command(WRITE)
            with pytest.raises(ReplicationError):
                session.execute_many([WRITE])
            with pytest.raises(ReplicationError):
                session.quel("append to r (k = 4, v = 40)")
            assert session.database == oracle().database
            return
        expected = oracle()
        assert session.execute(WRITE) == expected.execute(WRITE)
        command = parse_command(WRITE)
        assert session.execute_command(command) == (
            expected.execute_command(command)
        )
        assert session.execute_many([WRITE, command]) == (
            expected.execute_many([WRITE, command])
        )
        assert session.quel("append to r (k = 4, v = 40)") == (
            expected.quel("append to r (k = 4, v = 40)")
        )
        assert session.transaction_number == expected.transaction_number
        assert session.query("rollback(s, now)") == expected.query(
            "rollback(s, now)"
        )

    @pytest.mark.parametrize("kind", ("plain", "durable", "replica"))
    def test_past_values_are_not_kept_alive(self, kind, tmp_path):
        """A snapshot relation keeps no past, and neither does the
        session: after 300 writes only the current values are live."""

        def live_databases() -> int:
            gc.collect()
            return sum(isinstance(o, Database) for o in gc.get_objects())

        before = live_databases()
        backing = Backing(kind, tmp_path)
        try:
            rows = ", ".join(f"({k})" for k in range(1000))
            backing.write("define_relation(big, snapshot)")
            backing.write(
                f"modify_state(big, state (k: integer) {{ {rows} }})"
            )
            for k in range(1000, 1300):
                backing.write(
                    "modify_state(big, rollback(big, now) union "
                    f"state (k: integer) {{ ({k}) }})"
                )
            assert backing.session.transaction_number == 302
            # the session's value, and a replica's primary's
            assert live_databases() - before <= 3
        finally:
            backing.close()

    def test_durability_controls(self, backing):
        session = backing.session
        assert session.checkpoint() is None
        assert session.database == oracle().database

    def test_context_manager_returns_the_session(self, backing):
        with backing.session as entered:
            assert entered is backing.session


class TestTransactions:
    def test_plain_sessions_have_a_manager(self, backing):
        session = backing.session
        if backing.kind != "plain":
            with pytest.raises(ConcurrencyError, match="commit path"):
                session.transaction_manager
            with pytest.raises(ConcurrencyError):
                session.begin()
            with pytest.raises(ConcurrencyError):
                session.run(lambda txn: None)
            with pytest.raises(ConcurrencyError):
                session.commit(None)
            with pytest.raises(ConcurrencyError):
                session.abort(None)
            return
        assert isinstance(session.transaction_manager, TransactionManager)
        expected = oracle()
        transaction = session.begin()
        transaction.stage(parse_command(WRITE))
        assert session.commit(transaction) == expected.execute(WRITE)
        doomed = session.begin()
        doomed.stage(parse_command(WRITE))
        session.abort(doomed)
        database = session.run(
            lambda txn: txn.stage(parse_command(WRITE))
        )
        assert database == expected.execute(WRITE)
        assert session.database == database


class TestTopology:
    def test_sharding_operations(self, backing):
        session = backing.session
        if backing.kind not in COORDINATED:
            with pytest.raises(ShardingError, match=r"^rebalance\(\)"):
                session.rebalance()
            with pytest.raises(ShardingError, match=r"^add_shard\(\)"):
                session.add_shard()
            return
        assert session.add_shard() == 2
        assert session.rebalance().moved >= 0
        assert session.database == oracle().database

    def test_cluster_operations(self, backing):
        session = backing.session
        if backing.kind != "cluster":
            with pytest.raises(ClusterError, match=r"^failover\(\)"):
                session.failover(0)
            with pytest.raises(ClusterError, match=r"^add_replica\(\)"):
                session.add_replica(0)
            return
        assert isinstance(session.add_replica(0), Replica)
        assert session.failover(0) is None
        assert session.database == oracle().database
        for text in QUERIES:
            assert session.query(text) == oracle().query(text)

    def test_promote(self, backing):
        session = backing.session
        if backing.kind != "replica":
            with pytest.raises(ReplicationError, match=r"^promote\(\)"):
                session.promote()
            return
        expected = oracle()
        assert session.promote() == expected.database
        assert session.replica is None and session.durable is not None
        assert session.database == expected.database
        assert session.execute(WRITE) == expected.execute(WRITE)
        assert session.query("rollback(s, now)") == expected.query(
            "rollback(s, now)"
        )


class TestSchemeChanges:
    """A scheme change is a ``modify_state``, so every backing keeps the
    scheme at ``N`` as the schema of ``rollback(I, N)``."""

    @staticmethod
    def past(read) -> list:
        """Every ``rollback(I, N)`` of the script: text, value, schema."""
        reads = []
        for n in range(1, len(SCHEME_SCRIPT) + 1):
            for identifier in ("r", "h"):
                text = f"rollback({identifier}, {n})"
                state = read(text)
                schema = None if is_empty_set(state) else state.schema
                reads.append((text, state, schema))
        return reads

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_past_scheme_matches_the_oracle(self, kind, tmp_path):
        expected = Session()
        for source in SCHEME_SCRIPT:
            expected.execute(source)
        oracle_past = self.past(expected.query)
        assert oracle_past[-1][2].names == ("k", "z")
        backing = Backing(kind, tmp_path)
        try:
            for source in SCHEME_SCRIPT:
                backing.write(source)
            assert self.past(backing.session.query) == oracle_past
        finally:
            backing.close()
        if kind == "durable":
            with Session(durable_dir=str(tmp_path / "db")) as reopened:
                assert reopened.database == expected.database
                assert self.past(reopened.query) == oracle_past


# -- the server's shared store ------------------------------------------------


class Store:
    """A :class:`ServerStore` over one backing kind."""

    def __init__(self, kind: str, tmp_path) -> None:
        self.kind = kind
        self.primary = None
        if kind == "plain":
            self.store = ServerStore()
        elif kind == "durable":
            self.store = ServerStore(durable_dir=str(tmp_path / "db"))
        elif kind == "replica":
            self.primary = Session(durable_dir=str(tmp_path / "primary"))
            self.store = ServerStore(replica_of=self.primary)
        elif kind == "sharded":
            self.store = ServerStore(shards=2)
        else:
            self.store = ServerStore(
                cluster=ClusterConfig(shards=2, replicas_per_shard=1)
            )

    def write(self, source: str) -> int:
        if self.primary is None:
            return self.store.execute(source)
        self.primary.execute(source)
        return self.primary.transaction_number

    def close(self) -> None:
        self.store.close()
        if self.primary is not None:
            self.primary.close()


@pytest.fixture(params=KINDS)
def store(request, tmp_path):
    store = Store(request.param, tmp_path)
    yield store
    store.close()


class TestServerStore:
    def test_writes_return_the_oracle_transaction_numbers(self, store):
        expected = Session()
        for source in SCRIPT:
            assert store.write(source) == (
                expected.execute(source).transaction_number
            )
        store.store.catch_up()
        assert store.store.transaction_number == (
            expected.transaction_number
        )

    def test_manager_and_isolation(self, store):
        assert store.store.isolation == "serial"
        if store.kind == "plain":
            assert isinstance(store.store.manager, TransactionManager)
        else:
            assert store.store.manager is None

    def test_reads_match_the_oracle(self, store):
        for source in SCRIPT:
            store.write(source)
        expected = oracle()
        store.store.catch_up()
        assert store.store.catch_up() == expected.catch_up() == 0
        view = store.store.view()
        for text in QUERIES:
            assert view.query(text) == render_state(expected.query(text))
        # a fresh view reads the same value
        for text in QUERIES:
            assert store.store.view().query(text) == view.query(text)

    def test_one_view_follows_every_write(self, store):
        view = store.store.view()
        expected = Session()
        for source in SCRIPT:
            store.write(source)
            expected.execute(source)
            store.store.catch_up()
            for text in ("rollback(r, now)", "rollback(r, 2)"):
                assert view.query(text) == render_state(
                    expected.query(text)
                ), (source, text)

    def test_scheme_changes_through_a_view(self, store):
        expected = Session()
        for source in SCHEME_SCRIPT:
            store.write(source)
            expected.execute(source)
        store.store.catch_up()
        view = store.store.view()
        for text, state, _ in TestSchemeChanges.past(expected.query):
            assert view.query(text) == render_state(state), text
