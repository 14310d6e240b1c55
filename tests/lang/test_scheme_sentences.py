"""Scheme changes are sentences of the core language.

Section 5: the scheme is transaction-time information, so a relation's
scheme at transaction ``N`` is the schema of ``ρ(I, N)``, and a scheme
change is a ``modify_state`` whose new state has another schema:

* add an attribute with a default:
  ``modify_state(r, rollback(r, now) times state (d: string) { ("x") })``
  (``@ [0, forever)`` on the constant's tuple for a relation with valid
  time, so every tuple keeps its valid time);
* rename one: ``modify_state(r, rename(rollback(r, now), a -> b))``;
* drop one: ``modify_state(r, project [k] (rollback(r, now)))``.

Past states keep the scheme they were recorded under, and an invalid
change is the core's own :class:`SchemaError` (or, for an empty
projection, the grammar's :class:`ParseError`), which leaves the value
unchanged.
"""

import pytest

from repro.core.expressions import is_empty_set
from repro.errors import ParseError, SchemaError
from repro.lang.session import Session
from repro.snapshot.attributes import INTEGER, STRING, Attribute
from repro.snapshot.schema import Schema

NAME = Schema([Attribute("name", STRING)])
NAME_DEPT = Schema([Attribute("name", STRING), Attribute("dept", STRING)])

ADD_DEPT = (
    "modify_state(emp, rollback(emp, now) "
    'times state (dept: string) { ("unknown") })'
)


@pytest.fixture
def session():
    """emp, a rollback relation: defined at txn 1, (ann), (bob) at 2."""
    session = Session()
    session.execute("define_relation(emp, rollback)")
    session.execute(
        'modify_state(emp, state (name: string) { ("ann"), ("bob") })'
    )
    return session


def scheme(session, numeral="now"):
    return session.query(f"rollback(emp, {numeral})").schema


def rows(session, numeral="now"):
    return session.query(f"rollback(emp, {numeral})").sorted_rows()


class TestSchemeChanges:
    def test_rollback_reads(self, session):
        assert scheme(session) == NAME
        assert rows(session) == [("ann",), ("bob",)]

    def test_add_attribute_with_default(self, session):
        session.execute(ADD_DEPT)
        assert session.transaction_number == 3
        assert scheme(session) == NAME_DEPT
        assert rows(session) == [("ann", "unknown"), ("bob", "unknown")]

    def test_past_states_keep_old_scheme(self, session):
        session.execute(ADD_DEPT)
        assert scheme(session, 2) == NAME
        assert rows(session, 2) == [("ann",), ("bob",)]
        assert scheme(session, 3) == NAME_DEPT

    def test_scheme_interpolates_between_changes(self, session):
        session.execute(ADD_DEPT)  # txn 3
        session.execute(
            "modify_state(emp, rollback(emp, now) union "
            'state (name: string, dept: string) { ("cat", "math") })'
        )  # txn 4
        session.execute(
            "modify_state(emp, rename(rollback(emp, now), dept -> unit))"
        )  # txn 5
        name_unit = Schema(
            [Attribute("name", STRING), Attribute("unit", STRING)]
        )
        assert is_empty_set(session.query("rollback(emp, 1)"))
        assert [scheme(session, n) for n in (2, 3, 4, 5, 99)] == [
            NAME, NAME_DEPT, NAME_DEPT, name_unit, name_unit,
        ]

    def test_drop_attribute(self, session):
        session.execute(ADD_DEPT)
        session.execute(
            "modify_state(emp, project [name] (rollback(emp, now)))"
        )
        assert scheme(session) == NAME
        assert rows(session) == [("ann",), ("bob",)]
        assert scheme(session, 3) == NAME_DEPT

    def test_drop_merges_under_set_semantics(self):
        session = Session()
        session.execute("define_relation(emp, rollback)")
        session.execute(
            "modify_state(emp, state (name: string, dept: string) "
            '{ ("ann", "cs"), ("ann", "math") })'
        )
        session.execute(
            "modify_state(emp, project [name] (rollback(emp, now)))"
        )
        assert scheme(session) == NAME
        assert rows(session) == [("ann",)]
        assert len(session.query("rollback(emp, 2)")) == 2

    def test_rename_attribute(self, session):
        session.execute(
            "modify_state(emp, rename(rollback(emp, now), name -> who))"
        )
        assert scheme(session) == Schema([Attribute("who", STRING)])
        assert rows(session) == [("ann",), ("bob",)]
        assert scheme(session, 2) == NAME

    def test_updates_continue_under_new_scheme(self, session):
        session.execute(ADD_DEPT)
        session.execute(
            "modify_state(emp, rollback(emp, now) union "
            'state (name: string, dept: string) { ("cat", "math") })'
        )
        assert scheme(session) == NAME_DEPT
        assert rows(session) == [
            ("ann", "unknown"),
            ("bob", "unknown"),
            ("cat", "math"),
        ]
        # the old scheme no longer fits the current state
        with pytest.raises(SchemaError):
            session.execute(
                "modify_state(emp, rollback(emp, now) union "
                'state (name: string) { ("dan") })'
            )

    def test_historical_relation_scheme_change(self):
        session = Session()
        session.execute("define_relation(h, temporal)")
        session.execute(
            "modify_state(h, state (k: integer) { (1) @ [0, 5) })"
        )
        session.execute(
            "modify_state(h, rollback(h, now) "
            'times state (tag: string) { ("none") @ [0, forever) })'
        )
        current = session.query("rollback(h, now)")
        assert current.schema == Schema(
            [Attribute("k", INTEGER), Attribute("tag", STRING)]
        )
        (t,) = current.tuples
        assert t.value.values == (1, "none")
        assert t.valid_time.covers(3)
        assert not t.valid_time.covers(5)
        assert session.query("rollback(h, 2)").schema == Schema(
            [Attribute("k", INTEGER)]
        )


class TestInvalidChanges:
    """Each invalid change raises and leaves the value as it was."""

    @pytest.mark.parametrize(
        "expression, error",
        [
            pytest.param(
                'rollback(emp, now) times state (name: string) { ("x") }',
                SchemaError,
                id="add_duplicate_attribute",
            ),
            pytest.param(
                "project [ghost] (rollback(emp, now))",
                SchemaError,
                id="drop_unknown_attribute",
            ),
            pytest.param(
                "rename(rollback(emp, now), dept -> name)",
                SchemaError,
                id="rename_onto_existing",
            ),
            pytest.param(
                "project [] (rollback(emp, now))",
                ParseError,
                id="drop_last_attribute",
            ),
        ],
    )
    def test_rejected(self, session, expression, error):
        session.execute(ADD_DEPT)
        before = session.database
        with pytest.raises(error):
            session.execute(f"modify_state(emp, {expression})")
        assert session.database == before
        assert session.transaction_number == 3


class TestPastReads:
    """``ρ(I, N)`` is the only way to read the past: a query naming ``N``
    answers now what the ``now`` query answered at ``N``."""

    SCRIPT = (
        "define_relation(r, rollback)",
        "modify_state(r, state (k: integer, v: integer) { (1, 10) })",
        "modify_state(r, rollback(r, now) union "
        "state (k: integer, v: integer) { (2, 20) })",
        "modify_state(r, rename(rollback(r, now), v -> w))",
        "define_relation(s, rollback)",
        "modify_state(s, state (k: integer, w: integer) { (9, 90) })",
        "modify_state(r, select [k > 1] (rollback(r, now)))",
    )

    def test_rollback_at_n_is_the_value_at_n(self):
        full, then = Session(), Session()
        for source in self.SCRIPT:
            full.execute(source)
        query = "project [k] (select [k >= 1] (rollback(r, {})))"
        for n, source in enumerate(self.SCRIPT, start=1):
            then.execute(source)
            assert then.transaction_number == n
            assert full.query(query.format(n)) == then.query(
                query.format("now")
            )
            assert full.query(f"rollback(r, {n})") == then.query(
                "rollback(r, now)"
            )

    def test_empty_past_is_the_identity_of_union(self):
        session = Session()
        for source in self.SCRIPT:
            session.execute(source)
        # s has no state before txn 6, so ρ(s, 4) is ∅
        assert is_empty_set(session.query("rollback(s, 4)"))
        assert session.query(
            "rollback(r, 4) union rollback(s, 4)"
        ) == session.query("rollback(r, 4)")
        both = session.query("rollback(r, now) union rollback(s, now)")
        assert both.sorted_rows() == [(2, 20), (9, 90)]
