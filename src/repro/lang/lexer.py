"""The lexer: source text to a token stream."""

from __future__ import annotations

from repro.errors import LexError
from repro.lang.tokens import KEYWORDS, Token, TokenType

__all__ = ["tokenize"]

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
