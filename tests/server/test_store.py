"""The plain :class:`ServerStore` has one owner of the current value.

Writes through the store and through its authoritative session must
see each other: a store that kept its own transaction manager beside
the session's database let a store write silently drop whatever the
session had executed (it committed against a stale value).

On the plain and the durable backing alike, a sentence commits whole
or not at all.
"""

import pytest

from repro.errors import ReproError, SchemaError
from repro.server.store import ServerStore

STATE = "state (k: integer) { (1) }"


@pytest.mark.parametrize("isolation", ["serial", "si", "ssi"])
class TestSingleOwner:
    def test_store_write_keeps_a_session_write(self, isolation):
        store = ServerStore(isolation=isolation)
        store.session.execute("define_relation(r, rollback)")
        assert store.session.transaction_number == 1
        assert store.execute(f"modify_state(r, {STATE})") == 2
        assert store.session.database.lookup("r") is not None
        assert store.manager.database is store.session.database
        assert "1" in store.view().query("rollback(r, now)")

    def test_session_write_sees_a_store_write(self, isolation):
        store = ServerStore(isolation=isolation)
        assert store.execute("define_relation(r, rollback)") == 1
        store.session.execute(f"modify_state(r, {STATE})")
        assert store.transaction_number == 2
        assert store.execute("define_relation(s, snapshot)") == 3
        assert [db.transaction_number for db in store.session.history] == [
            0, 1, 2, 3,
        ]

    def test_a_failing_sentence_leaves_no_partial_effect(self, isolation):
        store = ServerStore(isolation=isolation)
        store.execute("define_relation(r, rollback)")
        with pytest.raises(ReproError):
            store.execute(
                f"modify_state(r, {STATE}); "
                "modify_state(r, rollback(missing, now))"
            )
        assert store.transaction_number == 1
        assert store.manager.outstanding_count == 0


#: Two commands; the second fails its schema check after the first ran.
FAILING = (
    "modify_state(r, state (k: integer) { (2) }); "
    'modify_state(r, rollback(r, now) union state (z: string) { ("x") })'
)


@pytest.mark.parametrize("backing", ["plain", "durable"])
class TestSentencesAreAtomic:
    """A sentence either commits whole or leaves nothing behind — on the
    durable backing too, where its first command used to be logged,
    fsynced and kept when a later one failed."""

    @staticmethod
    def open(backing, tmp_path):
        if backing == "plain":
            return ServerStore()
        return ServerStore(durable_dir=str(tmp_path), fsync="always")

    def test_a_failing_sentence_leaves_no_partial_effect(
        self, backing, tmp_path
    ):
        store = self.open(backing, tmp_path)
        store.execute("define_relation(r, rollback)")
        assert store.execute(f"modify_state(r, {STATE})") == 2
        with pytest.raises(SchemaError):
            store.execute(FAILING)
        assert store.transaction_number == 2
        before = store.view().query("rollback(r, now)")
        assert "1" in before and "2" not in before
        store.close()
        if backing == "durable":
            reopened = self.open(backing, tmp_path)
            assert reopened.transaction_number == 2
            assert reopened.view().query("rollback(r, now)") == before
            reopened.close()

    def test_a_sentence_is_one_commit(self, backing, tmp_path):
        store = self.open(backing, tmp_path)
        store.execute("define_relation(r, rollback)")
        durable = store.session.durable
        records = durable.wal.last_lsn if durable else 0
        assert store.execute(
            f"modify_state(r, {STATE}); "
            "modify_state(r, rollback(r, now) union "
            "state (k: integer) { (2) })"
        ) == 3
        if durable:
            assert durable.wal.last_lsn == records + 1
        store.close()


class TestReplicaViews:
    def test_plan_cache_info_applies_no_shipped_records(self, tmp_path):
        from repro.lang.session import Session

        with Session(str(tmp_path / "primary"), fsync="always") as primary:
            primary.execute("define_relation(r, rollback)")
            store = ServerStore(replica_of=primary)
            try:
                view = store.view()
                primary.execute("define_relation(s, rollback)")
                replica = store.session.replica
                assert replica.applied_lsn == 1
                view.plan_cache_info()
                # an observation: nothing applied, the trail unchanged
                assert replica.applied_lsn == 1
                assert len(store.session.history) == 1
                # a read still serves fresh
                view.query("rollback(s, now)")
                assert replica.applied_lsn == 2
            finally:
                store.close()

    def test_every_view_shares_the_store_plan_cache(self):
        store = ServerStore()
        store.execute("define_relation(r, rollback)")
        first, second = store.view(), store.view()
        first.query("rollback(r, now)")
        second.query("rollback(r, now)")
        info = second.plan_cache_info()
        assert (info["misses"], info["hits"]) == (1, 1)
        assert first.plan_cache_info() == store.session.plan_cache_info()
