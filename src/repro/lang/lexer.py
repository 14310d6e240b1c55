"""The lexer: source text to a token stream, and a query's shape."""

from __future__ import annotations

from repro.errors import LexError
from repro.lang.tokens import KEYWORDS, Token, TokenType

__all__ = ["tokenize", "query_shape"]

_SINGLE_CHAR = {
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    ",": TokenType.COMMA,
    ";": TokenType.SEMICOLON,
    ":": TokenType.COLON,
    "@": TokenType.AT,
    "+": TokenType.PLUS,
    "=": TokenType.EQ,
}


def tokenize(source: str) -> list[Token]:
    """Lex ``source`` into tokens, ending with an EOF token.

    Comments run from ``--`` to end of line.  Strings are double-quoted
    with ``\\"`` and ``\\\\`` escapes.
    """
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if source.startswith("--", i):
            newline = source.find("\n", i)
            i = n if newline == -1 else newline + 1
            continue
        if ch in _SINGLE_CHAR:
            tokens.append(Token(_SINGLE_CHAR[ch], ch, i))
            i += 1
            continue
        if ch == "!":
            if source.startswith("!=", i):
                tokens.append(Token(TokenType.NEQ, "!=", i))
                i += 2
                continue
            raise LexError(f"unexpected character {ch!r} at {i}", i)
        if ch == "<":
            if source.startswith("<=", i):
                tokens.append(Token(TokenType.LTE, "<=", i))
                i += 2
            else:
                tokens.append(Token(TokenType.LT, "<", i))
                i += 1
            continue
        if ch == ">":
            if source.startswith(">=", i):
                tokens.append(Token(TokenType.GTE, ">=", i))
                i += 2
            else:
                tokens.append(Token(TokenType.GT, ">", i))
                i += 1
            continue
        if source.startswith("->", i):
            tokens.append(Token(TokenType.ARROW, "->", i))
            i += 2
            continue
        if ch == '"':
            text, i = _lex_string(source, i)
            tokens.append(Token(TokenType.STRING, text, i))
            continue
        if ch.isdigit() or (
            ch == "-" and i + 1 < n and source[i + 1].isdigit()
        ):
            start = i
            if ch == "-":
                i += 1
            while i < n and source[i].isdigit():
                i += 1
            tokens.append(Token(TokenType.INT, int(source[start:i]), start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            word = source[start:i]
            if word in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, word, start))
            else:
                tokens.append(Token(TokenType.IDENT, word, start))
            continue
        raise LexError(f"unexpected character {ch!r} at position {i}", i)
    tokens.append(Token(TokenType.EOF, None, n))
    return tokens


_COMPARATORS = frozenset(
    {
        TokenType.EQ,
        TokenType.NEQ,
        TokenType.LT,
        TokenType.LTE,
        TokenType.GT,
        TokenType.GTE,
    }
)


def query_shape(tokens: list[Token]) -> tuple[tuple, tuple[int, ...]]:
    """``(key, slots)`` for an expression's tokens.

    ``slots`` are the indices of the literal tokens a cached plan takes
    as parameters: the numeral of ``rollback(I, N)`` and every literal
    operand of a comparison.  ``key`` spells every token as its type and
    value, with those values left out, so texts that differ only in
    them, in layout or in comments share one key — and texts that differ
    anywhere else, inside a string constant included, do not.

    The slots follow from the tokens alone: a comparator token can only
    sit between a comparison's two operands, and ``rollback ( IDENT ,``
    only opens a rollback, so :func:`repro.lang.parser.parse_expression`
    meets each slot exactly where it expects a numeral or an operand.
    """
    key: list = []
    slots: list[int] = []
    for index, token in enumerate(tokens):
        value = token.value
        if (
            token.type is TokenType.INT or token.type is TokenType.STRING
        ) and _is_parameter(tokens, index):
            slots.append(index)
            value = None
        key.append(token.type)
        key.append(value)
    return tuple(key), tuple(slots)


def _is_parameter(tokens: list[Token], index: int) -> bool:
    # a literal is never the last token: EOF follows it
    if tokens[index + 1].type in _COMPARATORS or (
        index > 0 and tokens[index - 1].type in _COMPARATORS
    ):
        return True
    return (
        tokens[index].type is TokenType.INT
        and index >= 4
        and tokens[index - 1].type is TokenType.COMMA
        and tokens[index - 2].type is TokenType.IDENT
        and tokens[index - 3].type is TokenType.LPAREN
        and tokens[index - 4].is_keyword("rollback")
    )


def _lex_string(source: str, start: int) -> tuple[str, int]:
    """Lex a double-quoted string starting at ``start``; return (text,
    index just past the closing quote)."""
    out: list[str] = []
    i = start + 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\\":
            if i + 1 >= n:
                break
            escape = source[i + 1]
            if escape in ('"', "\\"):
                out.append(escape)
            elif escape == "n":
                out.append("\n")
            elif escape == "t":
                out.append("\t")
            else:
                raise LexError(
                    f"unknown string escape \\{escape} at {i}", i
                )
            i += 2
            continue
        if ch == '"':
            return "".join(out), i + 1
        out.append(ch)
        i += 1
    raise LexError(f"unterminated string starting at {start}", start)
