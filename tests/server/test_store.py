"""The plain :class:`ServerStore` has one owner of the current value.

Writes through the store and through its authoritative session must
see each other: a store that kept its own transaction manager beside
the session's database let a store write silently drop whatever the
session had executed (it committed against a stale value).
"""

import pytest

from repro.errors import ReproError
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
