"""Tests for relations, FINDSTATE and the other auxiliary functions."""

import pytest

from repro.errors import RelationTypeError, RollbackError
from repro.core.relation import (
    EMPTY_STATE,
    Relation,
    RelationType,
    find_state,
    find_type,
)
from repro.core.txn import NOW, as_transaction_number, is_now
from repro.historical.state import HistoricalState
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState

KV = Schema(["k"])


def snap(*rows):
    return SnapshotState(KV, [[r] for r in rows])


class TestTransactionNumbers:
    def test_as_transaction_number(self):
        assert as_transaction_number(0) == 0
        assert as_transaction_number(42) == 42

    def test_negative_rejected(self):
        with pytest.raises(RollbackError):
            as_transaction_number(-1)

    def test_bool_rejected(self):
        with pytest.raises(RollbackError):
            as_transaction_number(True)

    def test_now_is_greatest(self):
        assert NOW > 10**12
        assert is_now(NOW)
        assert not is_now(5)

    def test_now_singleton(self):
        from repro.core.txn import _Now

        assert _Now() is NOW


class TestRelationType:
    def test_from_name(self):
        assert RelationType.from_name("rollback") is RelationType.ROLLBACK
        assert RelationType.from_name("SNAPSHOT") is RelationType.SNAPSHOT

    def test_unknown_rejected(self):
        with pytest.raises(RelationTypeError):
            RelationType.from_name("bitemporal")

    def test_keeps_history(self):
        assert RelationType.ROLLBACK.keeps_history
        assert RelationType.TEMPORAL.keeps_history
        assert not RelationType.SNAPSHOT.keeps_history
        assert not RelationType.HISTORICAL.keeps_history

    def test_stores_valid_time(self):
        assert RelationType.HISTORICAL.stores_valid_time
        assert RelationType.TEMPORAL.stores_valid_time
        assert not RelationType.SNAPSHOT.stores_valid_time
        assert not RelationType.ROLLBACK.stores_valid_time


class TestRelationConstruction:
    def test_empty_sequence(self):
        r = Relation(RelationType.ROLLBACK, ())
        assert r.history_length == 0
        assert r.current_state is EMPTY_STATE

    def test_strictly_increasing_enforced(self):
        with pytest.raises(RelationTypeError):
            Relation(
                RelationType.ROLLBACK,
                [(snap(1), 3), (snap(2), 3)],
            )

    def test_snapshot_single_element_enforced(self):
        with pytest.raises(RelationTypeError):
            Relation(
                RelationType.SNAPSHOT,
                [(snap(1), 1), (snap(2), 2)],
            )

    def test_state_kind_enforced(self):
        historical = HistoricalState.empty(KV)
        with pytest.raises(RelationTypeError):
            Relation(RelationType.ROLLBACK, [(historical, 1)])
        with pytest.raises(RelationTypeError):
            Relation(RelationType.TEMPORAL, [(snap(1), 1)])


class TestFindState:
    @pytest.fixture
    def relation(self):
        return Relation(
            RelationType.ROLLBACK,
            [(snap(1), 2), (snap(1, 2), 5), (snap(3), 9)],
        )

    def test_exact_hit(self, relation):
        assert find_state(relation, 5) == snap(1, 2)

    def test_interpolation(self, relation):
        # paper: largest transaction number <= the probe
        assert find_state(relation, 7) == snap(1, 2)
        assert find_state(relation, 4) == snap(1)

    def test_after_last(self, relation):
        assert find_state(relation, 100) == snap(3)

    def test_before_first_is_empty(self, relation):
        assert find_state(relation, 1) is EMPTY_STATE

    def test_empty_sequence_is_empty(self):
        empty = Relation(RelationType.ROLLBACK, ())
        assert find_state(empty, 10) is EMPTY_STATE

    def test_method_matches_function(self, relation):
        for probe in range(0, 12):
            assert relation.find_state(probe) == find_state(
                relation, probe
            )

    def test_find_type_constant(self, relation):
        assert find_type(relation, 0) is RelationType.ROLLBACK
        assert find_type(relation, 100) is RelationType.ROLLBACK


class TestWithNewState:
    def test_rollback_appends(self):
        r = Relation(RelationType.ROLLBACK, [(snap(1), 1)])
        r2 = r.with_new_state(snap(2), 2)
        assert r2.history_length == 2
        assert r.history_length == 1  # original untouched

    def test_snapshot_replaces(self):
        r = Relation(RelationType.SNAPSHOT, [(snap(1), 1)])
        r2 = r.with_new_state(snap(2), 2)
        assert r2.history_length == 1
        assert r2.current_state == snap(2)

    def test_transaction_numbers_accessor(self):
        r = Relation(
            RelationType.ROLLBACK, [(snap(1), 2), (snap(2), 7)]
        )
        assert r.transaction_numbers == (2, 7)


class TestAppendCostsOneCheck:
    """``with_new_state`` trusts the elements already installed: it
    checks the new one against the last one, however deep the history
    (counted, not timed), while the constructor checks everything."""

    DEPTH = 10_000

    @pytest.fixture
    def checks(self, monkeypatch):
        from repro.core import relation as module

        calls = []
        original = module._check_element

        def counting(rtype, state, txn, previous):
            calls.append((txn, previous))
            return original(rtype, state, txn, previous)

        monkeypatch.setattr(module, "_check_element", counting)
        return calls

    @pytest.fixture
    def deep(self):
        state = snap(1)
        return Relation(
            RelationType.ROLLBACK,
            [(state, txn) for txn in range(1, self.DEPTH + 1)],
        )

    def test_one_check_at_depth(self, deep, checks):
        successor = deep.with_new_state(snap(2), self.DEPTH + 5)
        assert checks == [(self.DEPTH + 5, self.DEPTH)]
        assert successor.history_length == self.DEPTH + 1
        assert successor.rstate[:-1] == deep.rstate
        assert successor == Relation(
            RelationType.ROLLBACK,
            deep.rstate + ((snap(2), self.DEPTH + 5),),
        )

    def test_non_increasing_txn_still_rejected(self, deep):
        for txn in (self.DEPTH, self.DEPTH - 1, 0):
            with pytest.raises(RelationTypeError, match="strictly"):
                deep.with_new_state(snap(2), txn)

    def test_wrong_state_class_still_rejected(self, deep):
        with pytest.raises(RelationTypeError, match="snapshot states"):
            deep.with_new_state(
                HistoricalState.empty(KV), self.DEPTH + 1
            )
        temporal = Relation(RelationType.TEMPORAL, ()).with_new_state(
            HistoricalState.empty(KV), 1
        )
        with pytest.raises(RelationTypeError, match="historical states"):
            temporal.with_new_state(snap(1), 2)

    def test_replacement_checks_only_the_new_element(self, checks):
        r = Relation(RelationType.SNAPSHOT, [(snap(1), 4)])
        del checks[:]
        assert r.with_new_state(snap(2), 9).rstate == ((snap(2), 9),)
        assert checks == [(9, -1)]
        with pytest.raises(RelationTypeError):
            r.with_new_state(HistoricalState.empty(KV), 10)

    def test_constructor_checks_every_element(self, deep, checks):
        Relation(RelationType.ROLLBACK, deep.rstate)
        assert len(checks) == self.DEPTH

    @pytest.mark.parametrize("position", [0, 1, 5_000, 9_999])
    def test_constructor_rejects_a_bad_element_anywhere(
        self, deep, position
    ):
        states = list(deep.rstate)
        states[position] = (HistoricalState.empty(KV), states[position][1])
        with pytest.raises(RelationTypeError, match="snapshot states"):
            Relation(RelationType.ROLLBACK, states)
        if position:
            states = list(deep.rstate)
            states[position] = (snap(1), states[position - 1][1])
            with pytest.raises(RelationTypeError, match="strictly"):
                Relation(RelationType.ROLLBACK, states)
