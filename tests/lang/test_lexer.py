"""Tests for the lexer."""

import pytest

from repro.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenType


def types(source):
    return [t.type for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source)[:-1]]


class TestBasics:
    def test_empty_input(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF

    def test_punctuation(self):
        assert types("( ) [ ] { } , ; : @ +")[:-1] == [
            TokenType.LPAREN,
            TokenType.RPAREN,
            TokenType.LBRACKET,
            TokenType.RBRACKET,
            TokenType.LBRACE,
            TokenType.RBRACE,
            TokenType.COMMA,
            TokenType.SEMICOLON,
            TokenType.COLON,
            TokenType.AT,
            TokenType.PLUS,
        ]

    def test_comparators(self):
        assert values("= != < <= > >=") == [
            "=",
            "!=",
            "<",
            "<=",
            ">",
            ">=",
        ]

    def test_integers(self):
        assert values("0 42 -7") == [0, 42, -7]

    def test_keywords_vs_identifiers(self):
        tokens = tokenize("rollback faculty union dept")
        assert tokens[0].type is TokenType.KEYWORD
        assert tokens[1].type is TokenType.IDENT
        assert tokens[2].type is TokenType.KEYWORD
        assert tokens[3].type is TokenType.IDENT

    def test_identifier_with_underscores_and_digits(self):
        (token, _) = tokenize("my_rel_2")
        assert token.type is TokenType.IDENT
        assert token.value == "my_rel_2"


class TestStrings:
    def test_simple(self):
        assert values('"hello"') == ["hello"]

    def test_escapes(self):
        assert values(r'"a\"b\\c\nd\te"') == ['a"b\\c\nd\te']

    def test_unterminated_raises(self):
        with pytest.raises(LexError, match="unterminated"):
            tokenize('"oops')

    def test_unknown_escape_raises(self):
        with pytest.raises(LexError):
            tokenize(r'"\q"')


class TestCommentsAndErrors:
    def test_comments_skipped(self):
        assert values("42 -- the answer\n7") == [42, 7]

    def test_comment_at_eof(self):
        assert values("42 -- no newline") == [42]

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a $ b")

    def test_bang_alone_rejected(self):
        with pytest.raises(LexError):
            tokenize("a ! b")

    def test_positions_recorded(self):
        tokens = tokenize("ab cd")
        assert tokens[0].position == 0
        assert tokens[1].position == 3


class TestTokenHelpers:
    def test_is_keyword(self):
        (token, _) = tokenize("union")
        assert token.is_keyword("union")
        assert not token.is_keyword("minus")

    def test_equality_ignores_position(self):
        a = Token(TokenType.INT, 5, 0)
        b = Token(TokenType.INT, 5, 10)
        assert a == b


class TestQueryShape:
    def shape(self, source):
        from repro.lang.lexer import query_shape

        tokens = tokenize(source)
        key, slots = query_shape(tokens)
        return key, [tokens[slot].value for slot in slots]

    def test_lifts_rollback_numerals_and_comparison_literals(self):
        key, params = self.shape(
            'select [k < 3 and "x" != name] (rollback(r, 12))'
        )
        assert params == [3, "x", 12]
        assert key == self.shape(
            'select [k < -4 and "y" != name] (rollback(r, 0))'
        )[0]

    def test_layout_and_comments_do_not_matter(self):
        assert (
            self.shape("rollback(r, 1) -- past\nunion rollback(s, now)")
            == self.shape("rollback( r,1 )\n\tunion  rollback(s,now)")
        )

    @pytest.mark.parametrize(
        "one, other",
        [
            # constants, periods, shifts and `now` are not lifted
            ("state (k) { (1) }", "state (k) { (2) }"),
            ('state (k) { ("a b") }', 'state (k) { ("a  b") }'),
            ("rollback(r, now)", "rollback(r, 1)"),
            ("rollback(r, 1)", "rollback(s, 1)"),
            ("select [k < 1] (r)", "select [k < v] (r)"),
            ('select [k = 1] (r)', 'select [k = "1"] (r)'),
            (
                "derive [validat(valid, 3); ] (rollback(h, 1))",
                "derive [validat(valid, 4); ] (rollback(h, 1))",
            ),
        ],
    )
    def test_anything_else_is_part_of_the_key(self, one, other):
        assert self.shape(one)[0] != self.shape(other)[0]


class TestParameters:
    def test_lifted_tokens_parse_as_placeholders(self):
        from repro.core.expressions import Parameter, Rollback, Select
        from repro.lang.lexer import query_shape
        from repro.lang.parser import parse_expression

        tokens = tokenize("select [k < 3] (rollback(r, 12))")
        _, slots = query_shape(tokens)
        template = parse_expression(tokens, slots)
        assert isinstance(template, Select)
        assert template.predicate.right.value == Parameter(0)
        assert template.operand == Rollback("r", Parameter(1))
