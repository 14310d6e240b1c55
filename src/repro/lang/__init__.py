"""A concrete syntax for the paper's language.

The paper specifies its syntax abstractly in BNF (Section 3.1) and leaves
lower-level constituents (identifiers, snapshot states, boolean expressions)
to a technical report.  This package supplies a complete ASCII concrete
syntax, a lexer and recursive-descent parser for it, and an interactive
:class:`Session` that maintains a database and executes parsed commands.

Concrete-syntax summary::

    define_relation(faculty, rollback);
    modify_state(faculty,
        state (name: string, rank: string)
              { ("merrie", "assistant"), ("tom", "full") });
    modify_state(faculty,
        rollback(faculty, now)
        union state (name: string, rank: string) { ("jane", "assistant") });

Expression operators: ``union``, ``minus``, ``times``,
``project [a, b] (E)``, ``select [F] (E)``, ``derive [G ; V] (E)``,
``rename(E, old -> new, ...)``, ``rollback(I, N)`` with ``N`` an integer
or ``now`` (the paper's ``∞``).

Historical constants attach valid time to each row with ``@``::

    state (name: string) { ("merrie") @ [0, 10) + [15, forever) }

The semantic functions **S** (snapshot-state denotation) and **H**
(historical-state denotation) of the paper are realized by the parser's
constant rules; **N** (numeral denotation) and **Y** (type denotation) by
the numeral and type rules.
"""

from repro.lang.tokens import Token, TokenType
from repro.lang.lexer import tokenize
from repro.lang.parser import (
    parse_sentence,
    parse_command,
    parse_expression,
)
from repro.lang.session import Session
from repro.lang.ast_printer import format_expression, format_command

__all__ = [
    "Token",
    "TokenType",
    "tokenize",
    "parse_sentence",
    "parse_command",
    "parse_expression",
    "Session",
    "format_expression",
    "format_command",
]
