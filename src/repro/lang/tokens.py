"""Token definitions for the concrete syntax."""

from __future__ import annotations

import enum
from typing import Any

__all__ = ["TokenType", "Token", "KEYWORDS"]


class TokenType(enum.Enum):
    """Lexical categories."""

    IDENT = "identifier"
    INT = "integer"
    STRING = "string"
    KEYWORD = "keyword"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    LBRACE = "{"
    RBRACE = "}"
    COMMA = ","
    SEMICOLON = ";"
    COLON = ":"
    AT = "@"
    PLUS = "+"
    EQ = "="
    NEQ = "!="
    LT = "<"
    LTE = "<="
    GT = ">"
    GTE = ">="
    ARROW = "->"
    EOF = "end of input"

    # members compare by identity; hash them the same way, in C, since
    # a query's shape key holds one per token
    __hash__ = object.__hash__


#: Reserved words.  Everything else alphanumeric is an identifier.
KEYWORDS = frozenset(
    {
        # commands
        "define_relation",
        "modify_state",
        # relation types (the TYPE domain)
        "snapshot",
        "rollback",
        "historical",
        "temporal",
        # expression operators
        "union",
        "minus",
        "times",
        "project",
        "select",
        "derive",
        "rename",
        # constants
        "state",
        "forever",
        "now",
        "true",
        "false",
        # attribute domains
        "integer",
        "string",
        "number",
        "boolean",
        "any",
        # predicate connectives
        "and",
        "or",
        "not",
        # temporal expressions (the V domain)
        "valid",
        "first",
        "last",
        "intersect",
        "extend",
        "shift",
        "periods",
        # temporal predicates (the G domain)
        "precedes",
        "overlaps",
        "contains",
        "meets",
        "equals",
        "nonempty",
        "validat",
    }
)


class Token:
    """A lexed token with its source position (for error messages)."""

    __slots__ = ("type", "value", "position")

    def __init__(self, type_: TokenType, value: Any, position: int) -> None:
        self.type = type_
        self.value = value
        self.position = position

    def is_keyword(self, word: str) -> bool:
        """True iff this token is the given keyword."""
        return self.type is TokenType.KEYWORD and self.value == word

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return self.type is other.type and self.value == other.value

    def __repr__(self) -> str:
        return f"Token({self.type.name}, {self.value!r}, @{self.position})"
