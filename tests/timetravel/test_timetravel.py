"""Tests for as_of pinning and views."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExpressionError
from repro.core.commands import DefineRelation, ModifyState
from repro.core.expressions import (
    Const,
    Project,
    Rollback,
    Select,
    Union,
)
from repro.core.sentences import run
from repro.core.txn import NOW
from repro.snapshot.attributes import INTEGER, Attribute
from repro.snapshot.predicates import Comparison, attr, lit
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState
from repro.timetravel import View, as_of

KV = Schema([Attribute("k", INTEGER), Attribute("v", INTEGER)])


def kv(*rows):
    return SnapshotState(KV, [list(r) for r in rows])


@pytest.fixture
def db():
    """r: states at txns 2, 3, 4; s: state at txn 6."""
    return run(
        [
            DefineRelation("r", "rollback"),
            ModifyState("r", Const(kv((1, 10)))),
            ModifyState("r", Const(kv((1, 10), (2, 20)))),
            ModifyState("r", Const(kv((2, 20), (3, 30)))),
            DefineRelation("s", "rollback"),
            ModifyState("s", Const(kv((9, 90)))),
        ]
    )


class TestAsOf:
    def test_pins_now(self, db):
        query = Select(
            Rollback("r", NOW), Comparison(attr("k"), ">", lit(1))
        )
        pinned = as_of(query, 3)
        assert pinned == Select(
            Rollback("r", 3), Comparison(attr("k"), ">", lit(1))
        )
        assert pinned.evaluate(db) == kv((2, 20))

    def test_explicit_numerals_kept(self, db):
        query = Union(Rollback("r", 2), Rollback("r", NOW))
        pinned = as_of(query, 3)
        assert pinned == Union(Rollback("r", 2), Rollback("r", 3))

    def test_future_explicit_numeral_rejected(self, db):
        query = Rollback("r", 4)
        with pytest.raises(ExpressionError, match="later"):
            as_of(query, 3)

    def test_constants_untouched(self, db):
        constant = Const(kv((5, 50)))
        assert as_of(constant, 2) is constant

    @settings(max_examples=25)
    @given(st.integers(min_value=2, max_value=4))
    def test_pinning_equals_time_of_query(self, txn):
        """as_of(E, k) evaluated now == E evaluated when the database
        was at transaction k (the defining property)."""
        commands = [
            DefineRelation("r", "rollback"),
            ModifyState("r", Const(kv((1, 10)))),
            ModifyState("r", Const(kv((1, 10), (2, 20)))),
            ModifyState("r", Const(kv((2, 20), (3, 30)))),
        ]
        full_db = run(commands)
        # the database as it existed at transaction `txn`
        past_db = run(commands[: txn])
        query = Project(
            Select(
                Rollback("r", NOW),
                Comparison(attr("v"), ">=", lit(10)),
            ),
            ["k"],
        )
        then = query.evaluate(past_db)
        now_pinned = as_of(query, txn).evaluate(full_db)
        assert then == now_pinned


class TestView:
    def test_current_state(self, db):
        view = View(
            "big",
            Select(
                Rollback("r", NOW), Comparison(attr("v"), ">", lit(15))
            ),
        )
        assert view.state(db) == kv((2, 20), (3, 30))

    def test_view_is_rollbackable(self, db):
        view = View(
            "big",
            Select(
                Rollback("r", NOW), Comparison(attr("v"), ">", lit(15))
            ),
        )
        assert view.state(db, 3) == kv((2, 20))
        assert view.state(db, 2).is_empty()

    def test_multi_source_view(self, db):
        view = View("all", Union(Rollback("r", NOW), Rollback("s", NOW)))
        assert len(view.state(db)) == 3
        # as of txn 3, s had no state: ∅ is the identity of union
        assert view.state(db, 3) == kv((1, 10), (2, 20))

    def test_view_needs_name(self):
        with pytest.raises(ExpressionError):
            View("", Rollback("r"))

