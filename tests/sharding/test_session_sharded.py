"""Sharded sessions: the language surface over a ShardedDatabase must
behave exactly like the unsharded session executing the same program."""

import pytest

from repro.errors import ShardingError
from repro.lang.session import Session
from repro.sharding import HashPartitioner

PROGRAM = """
define_relation(faculty, rollback);
modify_state(faculty,
    state (name: string, rank: string) { ("merrie", "assistant") });
define_relation(staff, rollback);
modify_state(staff,
    state (name: string, rank: string) { ("ann", "dean") });
modify_state(faculty,
    rollback(faculty, now)
    union state (name: string, rank: string) { ("tom", "full") });
"""


def sharded_session(**kwargs):
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("partitioner", HashPartitioner())
    return Session(**kwargs)


class TestConstruction:
    def test_shards_and_replica_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="sharded"):
            Session(shards=2, replica_of=object())

    def test_unsharded_sessions_reject_sharding_calls(self):
        session = Session()
        with pytest.raises(ShardingError, match="not sharded"):
            session.rebalance()
        with pytest.raises(ShardingError, match="not sharded"):
            session.add_shard()
        assert session.sharded is None

    def test_durable_dir_hosts_the_shard_stores(self, tmp_path):
        session = sharded_session(durable_dir=str(tmp_path))
        try:
            session.execute(PROGRAM)
            session.checkpoint()
        finally:
            session.close()
        assert (tmp_path / "shard-0").is_dir()
        assert (tmp_path / "shard-1").is_dir()


class TestEquivalence:
    def test_program_matches_the_unsharded_session(self):
        plain = Session()
        plain.execute(PROGRAM)
        session = sharded_session()
        try:
            session.execute(PROGRAM)
            assert session.transaction_number == plain.transaction_number
            assert session.database == plain.database
            assert session.current_state(
                "faculty"
            ) == plain.current_state("faculty")
        finally:
            session.close()

    def test_query_routes_through_the_router(self):
        session = sharded_session()
        try:
            session.execute(PROGRAM)
            result = session.query(
                'select [rank = "full"] (rollback(faculty, now))'
            )
            assert result.sorted_rows() == [("tom", "full")]
            cross = session.query(
                "rollback(faculty, now) union rollback(staff, now)"
            )
            assert len(cross) == 3
        finally:
            session.close()

    def test_display_and_catalog(self):
        session = sharded_session()
        try:
            session.execute(PROGRAM)
            assert "tom" in session.display("faculty")
            assert set(session.catalog()) == {"faculty", "staff"}
        finally:
            session.close()

    def test_quel_statements(self):
        session = sharded_session()
        try:
            session.execute(PROGRAM)
            session.quel(
                'append to faculty (name = "liz", rank = "assoc")'
            )
            rows = session.quel(
                'retrieve (name) from faculty where rank = "assoc"'
            )
            assert rows.sorted_rows() == [("liz",)]
        finally:
            session.close()

    def test_execute_many_groups_and_syncs(self):
        session = sharded_session()
        try:
            database = session.execute_many(
                [
                    "define_relation(r, rollback)",
                    'modify_state(r, state (k: integer) { (1) })',
                ]
            )
            assert database.transaction_number == 2
        finally:
            session.close()


class TestScaleOut:
    def test_rebalance_and_add_shard(self):
        session = sharded_session()
        try:
            session.execute(PROGRAM)
            before = session.database
            assert session.add_shard() == 2
            report = session.rebalance(HashPartitioner(salt=3))
            assert report.moved >= 0
            assert session.database == before
        finally:
            session.close()
