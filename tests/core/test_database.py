"""Tests for database states and databases."""

import pytest

from repro.errors import UnknownRelationError
from repro.core.database import EMPTY_DATABASE, Database, DatabaseState
from repro.core.relation import Relation, RelationType


@pytest.fixture
def relation():
    return Relation(RelationType.ROLLBACK, ())


class TestDatabaseState:
    def test_empty_maps_everything_to_bottom(self):
        state = DatabaseState()
        assert state.lookup("anything") is None
        assert not state.is_bound("anything")

    def test_bind_is_functional_update(self, relation):
        state = DatabaseState()
        bound = state.bind("r", relation)
        assert bound.lookup("r") is relation
        assert state.lookup("r") is None  # original untouched

    def test_require(self, relation):
        state = DatabaseState().bind("r", relation)
        assert state.require("r") is relation
        with pytest.raises(UnknownRelationError):
            state.require("s")

    def test_unbind(self, relation):
        state = DatabaseState().bind("r", relation)
        assert state.unbind("r").lookup("r") is None
        assert state.lookup("r") is relation

    def test_identifiers_sorted(self, relation):
        state = (
            DatabaseState()
            .bind("zebra", relation)
            .bind("alpha", relation)
        )
        assert state.identifiers == ("alpha", "zebra")
        assert list(state) == ["alpha", "zebra"]

    def test_len_and_contains(self, relation):
        state = DatabaseState().bind("r", relation)
        assert len(state) == 1
        assert "r" in state

    def test_equality(self, relation):
        a = DatabaseState().bind("r", relation)
        b = DatabaseState({"r": relation})
        assert a == b
        assert hash(a) == hash(b)


class TestDatabase:
    def test_empty_database(self):
        assert EMPTY_DATABASE.transaction_number == 0
        assert len(EMPTY_DATABASE.state) == 0

    def test_with_binding(self, relation):
        db = EMPTY_DATABASE.with_binding("r", relation, 1)
        assert db.transaction_number == 1
        assert db.lookup("r") is relation
        assert EMPTY_DATABASE.lookup("r") is None

    def test_negative_txn_rejected(self):
        with pytest.raises(UnknownRelationError):
            Database(DatabaseState(), -1)

    def test_equality_includes_txn(self, relation):
        a = EMPTY_DATABASE.with_binding("r", relation, 1)
        b = EMPTY_DATABASE.with_binding("r", relation, 2)
        assert a != b

    def test_require_delegates(self, relation):
        db = EMPTY_DATABASE.with_binding("r", relation, 1)
        assert db.require("r") is relation
        with pytest.raises(UnknownRelationError):
            db.require("missing")


class TestCatalogToken:
    """The token is shared exactly by writes that keep every relation's
    existence, type and current scheme."""

    @staticmethod
    def run(*sources):
        from repro.lang.parser import parse_command

        database = EMPTY_DATABASE
        trail = [database]
        for source in sources:
            database = parse_command(source).execute(database)
            trail.append(database)
        return trail

    def test_same_scheme_writes_share_it(self):
        trail = self.run(
            "define_relation(r, rollback)",
            "modify_state(r, state (k: integer) { (1) })",
            "modify_state(r, rollback(r, now) union "
            "state (k: integer) { (2) })",
            "modify_state(r, state (k: integer) { (3), (4) })",
            # deleting every row leaves a typed empty state: same scheme
            "modify_state(r, rollback(r, now) minus rollback(r, now))",
        )
        tokens = {id(database.catalog_token) for database in trail[2:]}
        assert len(tokens) == 1

    @pytest.mark.parametrize(
        "change",
        [
            "define_relation(s, rollback)",
            "modify_state(r, state (k: integer, v: integer) { (1, 2) })",
            "modify_state(r, state (k: string) { (\"1\") })",
        ],
    )
    def test_a_catalog_change_makes_a_fresh_one(self, change):
        before, after = self.run(
            "define_relation(r, rollback)",
            "modify_state(r, state (k: integer) { (1) })",
            change,
        )[-2:]
        assert before.catalog_token is not after.catalog_token

    def test_a_first_state_makes_a_fresh_one(self):
        defined, stated = self.run(
            "define_relation(r, rollback)",
            "modify_state(r, state (k: integer) { (1) })",
        )[-2:]
        assert defined.catalog_token is not stated.catalog_token

    def test_a_type_change_makes_a_fresh_one(self):
        database = self.run("define_relation(r, rollback)")[-1]
        retyped = database.with_binding(
            "r", Relation(RelationType.SNAPSHOT, ()), 2
        )
        assert retyped.catalog_token is not database.catalog_token

    def test_it_takes_no_part_in_equality(self):
        one = Database(DatabaseState(), 3)
        other = Database(DatabaseState(), 3)
        assert one.catalog_token is not other.catalog_token
        assert one == other and hash(one) == hash(other)
