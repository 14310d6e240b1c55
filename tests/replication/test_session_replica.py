"""Session(replica_of=...): the read-only replica surface of the
language layer."""

import pytest

from repro.errors import ReplicationError, StaleReadError
from repro.lang.session import Session
from repro.replication import PrimaryStream, Replica, RetryPolicy


@pytest.fixture
def primary_session(tmp_path):
    session = Session(
        durable_dir=str(tmp_path / "primary"), fsync="always"
    )
    session.execute(
        "define_relation(r, rollback);"
        'modify_state(r, state (k: integer) { (1), (2) });'
    )
    yield session
    session.close()


def _replica_session(primary_session, **kwargs):
    kwargs.setdefault("retry", RetryPolicy.none())
    return Session(replica_of=primary_session, **kwargs)


class TestReadOnly:
    def test_queries_match_the_primary(self, primary_session):
        replica = _replica_session(primary_session)
        assert replica.transaction_number == 2
        assert replica.query("rollback(r, now)") == primary_session.query(
            "rollback(r, now)"
        )
        assert replica.display("r") == primary_session.display("r")
        assert "r" in replica.catalog()

    def test_commands_are_refused(self, primary_session):
        replica = _replica_session(primary_session)
        with pytest.raises(ReplicationError):
            replica.execute("define_relation(x, snapshot);")
        with pytest.raises(ReplicationError):
            replica.execute_command(
                'modify_state(r, state (k: integer) { (9) });'
            )
        # quel updates route through the same write path
        with pytest.raises(ReplicationError):
            replica.quel("append to r (k = 7)")

    def test_catch_up_and_lag(self, primary_session):
        replica = _replica_session(primary_session)
        assert replica.lag() == 0
        primary_session.execute(
            "modify_state(r, (rollback(r, now) union"
            ' state (k: integer) { (3) }));'
        )
        assert replica.lag() == 1
        assert replica.catch_up() == 1
        assert replica.transaction_number == 3
        assert replica.database == primary_session.database

    def test_staleness_bound_applies_to_queries(self, primary_session):
        replica = _replica_session(primary_session, max_lag=0)
        primary_session.execute(
            'modify_state(r, state (k: integer) { (4) });'
        )
        with pytest.raises(StaleReadError):
            replica.query("rollback(r, now)")
        replica.catch_up()
        assert replica.query("rollback(r, now)") is not None


class TestSources:
    def test_accepts_durable_database(self, primary_session):
        replica = Session(
            replica_of=primary_session.durable, retry=RetryPolicy.none()
        )
        assert replica.database == primary_session.database

    def test_accepts_stream_and_prebuilt_replica(self, primary_session):
        stream = PrimaryStream(primary_session.durable)
        by_stream = Session(replica_of=stream, retry=RetryPolicy.none())
        assert by_stream.database == primary_session.database
        prebuilt = Replica(stream, retry=RetryPolicy.none())
        by_replica = Session(replica_of=prebuilt)
        assert by_replica.replica is prebuilt

    def test_rejects_in_memory_session_and_junk(self):
        with pytest.raises(ValueError):
            Session(replica_of=Session())
        with pytest.raises(ValueError):
            Session(replica_of=42)

    def test_rejects_primary_and_replica_at_once(
        self, primary_session, tmp_path
    ):
        with pytest.raises(ValueError):
            Session(
                durable_dir=str(tmp_path / "both"),
                replica_of=primary_session,
            )


class TestFailover:
    def test_promote_makes_the_session_writable(self, primary_session):
        replica = _replica_session(primary_session)
        replica.promote()
        assert replica.replica is None
        assert replica.durable is not None
        replica.execute(
            "modify_state(r, (rollback(r, now) minus"
            ' state (k: integer) { (1) }));'
        )
        assert replica.transaction_number == 3
        state = replica.query("rollback(r, now)")
        assert sorted(t.values[0] for t in state.tuples) == [2]
        replica.close()

    def test_promote_requires_a_replica(self, primary_session):
        with pytest.raises(ReplicationError):
            primary_session.promote()
        assert primary_session.catch_up() == 0
        assert primary_session.lag() == 0
