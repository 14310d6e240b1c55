"""``rename(E, old -> new, …)``: concrete syntax for the derived Rename
node, so that a translated Quel ``replace`` can be printed, parsed,
logged and sent over the wire like any other ``modify_state``."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LexError, ParseError
from repro.core.expressions import Project, Rename, Rollback, Union
from repro.core.txn import NOW
from repro.lang.ast_printer import format_command, format_expression
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_command, parse_expression
from repro.lang.session import Session
from repro.lang.tokens import TokenType
from repro.quel.parser import parse_statement
from repro.quel.statements import Replace
from repro.quel.translate import QuelTranslator
from repro.server.client import ReproClient
from repro.server.server import ServerConfig, ThreadedServer
from repro.snapshot.attributes import INTEGER, STRING, Attribute
from repro.snapshot.predicates import (
    And,
    AttributeRef,
    Comparison,
    Literal,
    Not,
)
from repro.snapshot.schema import Schema


class TestLexer:
    def test_arrow_is_one_token(self):
        types = [t.type for t in tokenize("a -> b")]
        assert types == [
            TokenType.IDENT, TokenType.ARROW, TokenType.IDENT, TokenType.EOF
        ]

    def test_arrow_beside_negative_integers_and_comments(self):
        tokens = tokenize("a->b -3 -- a -> comment\n->")
        assert [t.value for t in tokens[:-1]] == ["a", "->", "b", -3, "->"]

    def test_lone_minus_still_rejected(self):
        with pytest.raises(LexError):
            tokenize("a - b")

    def test_rename_is_reserved(self):
        assert tokenize("rename")[0].is_keyword("rename")


class TestParser:
    def test_pairs(self):
        assert parse_expression(
            "rename(rollback(r, now), a -> b, c -> d)"
        ) == Rename(Rollback("r", NOW), {"a": "b", "c": "d"})

    def test_no_pairs_is_the_identity_mapping(self):
        assert parse_expression("rename(rollback(r, 3))") == Rename(
            Rollback("r", 3), {}
        )

    def test_operand_is_a_full_expression(self):
        parsed = parse_expression(
            "project [b] (rename(rollback(r, now) union rollback(s, now),"
            " a -> b))"
        )
        assert parsed == Project(
            Rename(
                Union(Rollback("r", NOW), Rollback("s", NOW)), {"a": "b"}
            ),
            ["b"],
        )

    def test_printer_sorts_pairs(self):
        expression = Rename(Rollback("r", NOW), {"z": "y", "a": "b"})
        text = format_expression(expression)
        assert text == "rename(rollback(r, now), a -> b, z -> y)"
        assert parse_expression(text) == expression

    @pytest.mark.parametrize(
        "source",
        [
            "rename(rollback(r, now), a -> b, a -> c)",  # renamed twice
            "rename(rollback(r, now), a -> )",
            "rename(rollback(r, now), a b)",
            "rename(rollback(r, now) a -> b)",
            "rename(rollback(r, now), a -> b",
            "rename(rollback(r, now), 3 -> b)",
        ],
    )
    def test_malformed_rejected(self, source):
        with pytest.raises(ParseError):
            parse_expression(source)


# -- translated Quel replace statements round-trip ---------------------------

NAMES = ["name", "rank", "salary", "dept", "k", "v", "__new_k"]
INTEGERS = st.integers(-1000, 1000)
STRINGS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), max_codepoint=0x2FFF),
    max_size=8,
)
VALUES = {INTEGER: INTEGERS, STRING: STRINGS, None: INTEGERS | STRINGS}


@st.composite
def predicates(draw, names, depth=2):
    if depth and draw(st.booleans()):
        left = draw(predicates(names, depth - 1))
        if draw(st.booleans()):
            return Not(left)
        return And(left, draw(predicates(names, depth - 1)))
    return Comparison(
        AttributeRef(draw(st.sampled_from(names))),
        draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="])),
        Literal(draw(VALUES[None])),
    )


@st.composite
def replace_commands(draw):
    names = draw(
        st.lists(st.sampled_from(NAMES), min_size=2, max_size=5, unique=True)
    )
    domains = {
        name: draw(st.sampled_from([INTEGER, STRING, None]))
        for name in names
    }
    schema = Schema(
        [
            name if domain is None else Attribute(name, domain)
            for name, domain in domains.items()
        ]
    )
    assigned = draw(
        st.lists(
            st.sampled_from(names),
            min_size=1,
            max_size=len(names) - 1,
            unique=True,
        )
    )
    statement = Replace(
        "emp",
        {name: draw(VALUES[domains[name]]) for name in assigned},
        draw(st.none() | predicates(names)),
    )
    return QuelTranslator({"emp": schema}).translate(statement)


@settings(max_examples=150, deadline=None)
@given(command=replace_commands())
def test_translated_replace_round_trips(command):
    assert parse_command(format_command(command)) == command


# -- and therefore survives the WAL -------------------------------------------


def test_quel_replace_survives_close_and_reopen(tmp_path):
    directory = str(tmp_path / "db")
    session = Session(durable_dir=directory, fsync="always")
    session.execute(
        "define_relation(emp, rollback);"
        "modify_state(emp, state (name: string, salary: integer)"
        ' { ("ann", 50), ("bob", 70) });'
    )
    session.quel('replace emp (salary = 60) where name = "ann"')
    before = session.database
    session.close()

    reopened = Session(durable_dir=directory)
    assert reopened.database == before
    assert reopened.current_state("emp").sorted_rows() == [
        ("ann", 60),
        ("bob", 70),
    ]
    # the pre-replace state is still there to roll back to
    assert reopened.query("rollback(emp, 2)").sorted_rows() == [
        ("ann", 50),
        ("bob", 70),
    ]
    reopened.quel('replace emp (salary = 80) where name = "bob"')
    reopened.checkpoint()
    reopened.close()
    third = Session(durable_dir=directory)
    assert third.current_state("emp").sorted_rows() == [
        ("ann", 60),
        ("bob", 80),
    ]
    third.close()


def test_translated_replace_crosses_the_wire():
    command = QuelTranslator(
        {"emp": Schema(["name", "salary"])}
    ).translate(
        parse_statement('replace emp (salary = 60) where name = "ann"')
    )
    with ThreadedServer(ServerConfig(port=0, workers=1)) as server:
        with ReproClient(server.host, server.port) as client:
            client.execute(
                "define_relation(emp, rollback);"
                'modify_state(emp, state (name, salary) { ("ann", 50) })'
            )
            assert client.execute(format_command(command)) == 3
            assert '"ann"' not in client.query(
                "select [salary = 50] (rollback(emp, now))"
            )
            assert "60" in client.query("rollback(emp, now)")
