"""Recursive-descent parser for the concrete syntax.

The parser produces the *semantic* ASTs directly — it builds
:class:`repro.core.expressions.Expression` and
:class:`repro.core.commands.Command` nodes, so it simultaneously realizes
the paper's syntactic domains and the semantic functions **S**, **H**,
**N** and **Y** that map alphanumeric representations into their
denotations.

Grammar (see :mod:`repro.lang` for the surface summary)::

    sentence   := command (';' command)* [';']
    command    := 'define_relation' '(' IDENT ',' type ')'
                | 'modify_state' '(' IDENT ',' expr ')'
    type       := 'snapshot' | 'rollback' | 'historical' | 'temporal'

    expr       := diff_expr ('union' diff_expr)*
    diff_expr  := prod_expr ('minus' prod_expr)*
    prod_expr  := unary ('times' unary)*
    unary      := 'project' '[' ident_list ']' '(' expr ')'
                | 'select' '[' predicate ']' '(' expr ')'
                | 'derive' '[' [g_pred] ';' [v_expr] ']' '(' expr ')'
                | 'rollback' '(' IDENT ',' numeral ')'
                | 'rename' '(' expr (',' IDENT '->' IDENT)* ')'
                | constant
                | '(' expr ')'
    numeral    := INT | 'now'

    constant   := 'state' '(' attr_decls ')' '{' [row (',' row)*] '}'
    attr_decls := attr_decl (',' attr_decl)*
    attr_decl  := IDENT [':' domain]
    row        := '(' literal (',' literal)* ')' ['@' periods]
    periods    := interval ('+' interval)*
    interval   := '[' INT ',' (INT | 'forever') ')'

    predicate  := or_pred
    or_pred    := and_pred ('or' and_pred)*
    and_pred   := not_pred ('and' not_pred)*
    not_pred   := 'not' not_pred | comparison | 'true' | 'false'
                | '(' predicate ')'
    comparison := operand cmp_op operand
    operand    := IDENT | literal

    v_expr     := 'valid' | 'periods' periods
                | ('first'|'last') '(' v_expr ')'
                | ('intersect'|'union'|'extend') '(' v_expr ',' v_expr ')'
                | 'shift' '(' v_expr ',' INT ')'
    g_pred     := g_or
    g_or       := g_and ('or' g_and)*
    g_and      := g_not ('and' g_not)*
    g_not      := 'not' g_not | g_atom | '(' g_pred ')'
    g_atom     := v_expr ('precedes'|'overlaps'|'contains'|'meets'|'equals') v_expr
                | 'nonempty' '(' v_expr ')'
                | 'validat' '(' v_expr ',' INT ')'

A ``state`` constant with at least one ``@`` clause (or an empty body
preceded by the keyword ``historical``) denotes an historical state; rows
of an historical constant without an explicit ``@`` default to valid
``[0, forever)``.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.errors import ParseError
from repro.core.commands import Command, DefineRelation, ModifyState
from repro.core.expressions import (
    Const,
    Derive,
    Difference,
    Expression,
    Parameter,
    Product,
    Project,
    Rename,
    Rollback,
    Select,
    Union,
)
from repro.core.txn import NOW
from repro.core.relation import RelationType
from repro.historical.chronons import FOREVER
from repro.historical.periods import PeriodSet
from repro.historical.state import HistoricalState
from repro.historical.temporal_exprs import (
    Extend,
    First,
    Intersect,
    Last,
    Shift,
    TemporalConstant,
    TemporalExpression,
    ValidTime,
    Union as TemporalUnion,
)
from repro.historical.predicates import (
    Contains,
    Equals,
    Meets,
    NonEmpty,
    Overlaps,
    Precedes,
    TemporalAnd,
    TemporalNot,
    TemporalOr,
    TemporalPredicate,
    ValidAt,
)
from repro.historical.tuples import HistoricalTuple
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenType
from repro.snapshot.attributes import (
    ANY,
    BOOLEAN,
    INTEGER,
    NUMBER,
    STRING,
    Attribute,
    Domain,
)
from repro.snapshot.predicates import (
    AttributeRef,
    Comparison,
    FalsePredicate,
    Literal,
    Predicate,
    TruePredicate,
    And,
    Not,
    Or,
)
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState

__all__ = ["parse_sentence", "parse_command", "parse_expression", "Parser"]

_DOMAINS: dict[str, Domain] = {
    "integer": INTEGER,
    "string": STRING,
    "number": NUMBER,
    "boolean": BOOLEAN,
    "any": ANY,
}

_COMPARATOR_TOKENS = {
    TokenType.EQ: "=",
    TokenType.NEQ: "!=",
    TokenType.LT: "<",
    TokenType.LTE: "<=",
    TokenType.GT: ">",
    TokenType.GTE: ">=",
}

_G_COMPARATORS = {
    "precedes": Precedes,
    "overlaps": Overlaps,
    "contains": Contains,
    "meets": Meets,
    "equals": Equals,
}


class Parser:
    """A single-use recursive-descent parser over a token list.

    ``parameters`` lists indices of literal tokens (rollback numerals
    and comparison operands, see :func:`repro.lang.lexer.query_shape`)
    to parse as ``Parameter(0)``, ``Parameter(1)``, ... in that order
    instead of as their values."""

    def __init__(
        self, tokens: list[Token], parameters: Sequence[int] = ()
    ) -> None:
        self._tokens = tokens
        self._pos = 0
        self._parameters = {
            position: Parameter(index)
            for index, position in enumerate(parameters)
        }

    # -- token plumbing ------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _expect(self, type_: TokenType) -> Token:
        token = self._peek()
        if token.type is not type_:
            raise ParseError(
                f"expected {type_.value!r} but found {token.value!r} "
                f"at position {token.position}",
                token.position,
            )
        return self._advance()

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if not token.is_keyword(word):
            raise ParseError(
                f"expected keyword {word!r} but found {token.value!r} "
                f"at position {token.position}",
                token.position,
            )
        return self._advance()

    def _match_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self._advance()
            return True
        return False

    def at_end(self) -> bool:
        """True iff all tokens have been consumed."""
        return self._peek().type is TokenType.EOF

    # -- sentences and commands ------------------------------------------------

    def sentence(self) -> list[Command]:
        """Parse a non-empty ';'-separated command sequence."""
        commands = [self.command()]
        while self._peek().type is TokenType.SEMICOLON:
            self._advance()
            if self.at_end():
                break  # trailing semicolon
            commands.append(self.command())
        self._expect(TokenType.EOF)
        return commands

    def command(self) -> Command:
        """Parse a single command."""
        token = self._peek()
        if token.is_keyword("define_relation"):
            self._advance()
            self._expect(TokenType.LPAREN)
            identifier = self._expect(TokenType.IDENT).value
            self._expect(TokenType.COMMA)
            rtype = self._relation_type()
            self._expect(TokenType.RPAREN)
            return DefineRelation(identifier, rtype)
        if token.is_keyword("modify_state"):
            self._advance()
            self._expect(TokenType.LPAREN)
            identifier = self._expect(TokenType.IDENT).value
            self._expect(TokenType.COMMA)
            expression = self.expression()
            self._expect(TokenType.RPAREN)
            return ModifyState(identifier, expression)
        raise ParseError(
            f"expected a command but found {token.value!r} at position "
            f"{token.position}",
            token.position,
        )

    def _relation_type(self) -> RelationType:
        token = self._advance()
        if token.type is TokenType.KEYWORD and token.value in (
            "snapshot",
            "rollback",
            "historical",
            "temporal",
        ):
            return RelationType.from_name(token.value)
        raise ParseError(
            f"expected a relation type but found {token.value!r} at "
            f"position {token.position}",
            token.position,
        )

    # -- expressions -------------------------------------------------------------

    def expression(self) -> Expression:
        """Parse an algebraic expression (lowest precedence: union)."""
        left = self._diff_expr()
        while self._match_keyword("union"):
            left = Union(left, self._diff_expr())
        return left

    def _diff_expr(self) -> Expression:
        left = self._prod_expr()
        while self._match_keyword("minus"):
            left = Difference(left, self._prod_expr())
        return left

    def _prod_expr(self) -> Expression:
        left = self._unary()
        while self._match_keyword("times"):
            left = Product(left, self._unary())
        return left

    def _unary(self) -> Expression:
        token = self._peek()
        if token.is_keyword("project"):
            self._advance()
            self._expect(TokenType.LBRACKET)
            names = [self._expect(TokenType.IDENT).value]
            while self._peek().type is TokenType.COMMA:
                self._advance()
                names.append(self._expect(TokenType.IDENT).value)
            self._expect(TokenType.RBRACKET)
            self._expect(TokenType.LPAREN)
            operand = self.expression()
            self._expect(TokenType.RPAREN)
            return Project(operand, names)
        if token.is_keyword("select"):
            self._advance()
            self._expect(TokenType.LBRACKET)
            predicate = self.predicate()
            self._expect(TokenType.RBRACKET)
            self._expect(TokenType.LPAREN)
            operand = self.expression()
            self._expect(TokenType.RPAREN)
            return Select(operand, predicate)
        if token.is_keyword("derive"):
            self._advance()
            self._expect(TokenType.LBRACKET)
            g_pred: Optional[TemporalPredicate] = None
            if self._peek().type is not TokenType.SEMICOLON:
                g_pred = self.g_predicate()
            self._expect(TokenType.SEMICOLON)
            v_expr: Optional[TemporalExpression] = None
            if self._peek().type is not TokenType.RBRACKET:
                v_expr = self.v_expression()
            self._expect(TokenType.RBRACKET)
            self._expect(TokenType.LPAREN)
            operand = self.expression()
            self._expect(TokenType.RPAREN)
            return Derive(operand, g_pred, v_expr)
        if token.is_keyword("rollback"):
            self._advance()
            self._expect(TokenType.LPAREN)
            identifier = self._expect(TokenType.IDENT).value
            self._expect(TokenType.COMMA)
            numeral = self._numeral()
            self._expect(TokenType.RPAREN)
            return Rollback(identifier, numeral)
        if token.is_keyword("rename"):
            self._advance()
            self._expect(TokenType.LPAREN)
            operand = self.expression()
            mapping: dict[str, str] = {}
            while self._peek().type is TokenType.COMMA:
                self._advance()
                old = self._expect(TokenType.IDENT)
                if old.value in mapping:
                    raise ParseError(
                        f"attribute {old.value!r} is renamed twice at "
                        f"position {old.position}",
                        old.position,
                    )
                self._expect(TokenType.ARROW)
                mapping[old.value] = self._expect(TokenType.IDENT).value
            self._expect(TokenType.RPAREN)
            return Rename(operand, mapping)
        if token.is_keyword("state") or token.is_keyword("historical"):
            return self._constant()
        if token.type is TokenType.LPAREN:
            self._advance()
            inner = self.expression()
            self._expect(TokenType.RPAREN)
            return inner
        raise ParseError(
            f"expected an expression but found {token.value!r} at "
            f"position {token.position}",
            token.position,
        )

    def _numeral(self) -> Any:
        """The semantic function **N**: numeral syntax to denotation
        (integer or the ``∞`` symbol, spelled ``now``)."""
        position = self._pos
        token = self._advance()
        if token.is_keyword("now"):
            return NOW
        if token.type is TokenType.INT:
            return self._parameters.get(position, token.value)
        raise ParseError(
            f"expected a transaction numeral but found {token.value!r} "
            f"at position {token.position}",
            token.position,
        )

    # -- constants (the semantic functions S and H) -----------------------------

    def _constant(self) -> Const:
        force_historical = self._match_keyword("historical")
        self._expect_keyword("state")
        self._expect(TokenType.LPAREN)
        schema = self._schema()
        self._expect(TokenType.RPAREN)
        self._expect(TokenType.LBRACE)
        rows: list[tuple[tuple, Optional[PeriodSet]]] = []
        if self._peek().type is not TokenType.RBRACE:
            rows.append(self._row(schema))
            while self._peek().type is TokenType.COMMA:
                self._advance()
                rows.append(self._row(schema))
        self._expect(TokenType.RBRACE)
        has_valid_time = force_historical or any(
            periods is not None for _, periods in rows
        )
        if has_valid_time:
            tuples = [
                HistoricalTuple(
                    values,
                    periods if periods is not None else PeriodSet.always(),
                    schema=schema,
                )
                for values, periods in rows
            ]
            return Const(HistoricalState(schema, tuples))
        return Const(
            SnapshotState(schema, [values for values, _ in rows])
        )

    def _schema(self) -> Schema:
        attributes = [self._attr_decl()]
        while self._peek().type is TokenType.COMMA:
            self._advance()
            attributes.append(self._attr_decl())
        return Schema(attributes)

    def _attr_decl(self) -> Attribute:
        name = self._expect(TokenType.IDENT).value
        domain = ANY
        if self._peek().type is TokenType.COLON:
            self._advance()
            token = self._advance()
            if (
                token.type is not TokenType.KEYWORD
                or token.value not in _DOMAINS
            ):
                raise ParseError(
                    f"unknown attribute domain {token.value!r} at "
                    f"position {token.position}",
                    token.position,
                )
            domain = _DOMAINS[token.value]
        return Attribute(name, domain)

    def _row(self, schema: Schema) -> tuple[tuple, Optional[PeriodSet]]:
        self._expect(TokenType.LPAREN)
        values = [self._literal()]
        while self._peek().type is TokenType.COMMA:
            self._advance()
            values.append(self._literal())
        self._expect(TokenType.RPAREN)
        if len(values) != schema.degree:
            raise ParseError(
                f"row has {len(values)} values but the schema has degree "
                f"{schema.degree}"
            )
        periods: Optional[PeriodSet] = None
        if self._peek().type is TokenType.AT:
            self._advance()
            periods = self._periods()
        return tuple(values), periods

    def _periods(self) -> PeriodSet:
        intervals = [self._interval()]
        while self._peek().type is TokenType.PLUS:
            self._advance()
            intervals.append(self._interval())
        return PeriodSet(intervals)

    def _interval(self) -> tuple:
        self._expect(TokenType.LBRACKET)
        start = self._expect(TokenType.INT).value
        self._expect(TokenType.COMMA)
        token = self._advance()
        if token.is_keyword("forever"):
            end: Any = FOREVER
        elif token.type is TokenType.INT:
            end = token.value
        else:
            raise ParseError(
                f"expected an interval end but found {token.value!r} at "
                f"position {token.position}",
                token.position,
            )
        self._expect(TokenType.RPAREN)
        return (start, end)

    def _literal(self) -> Any:
        token = self._advance()
        if token.type is TokenType.INT:
            return token.value
        if token.type is TokenType.STRING:
            return token.value
        if token.is_keyword("true"):
            return True
        if token.is_keyword("false"):
            return False
        raise ParseError(
            f"expected a literal but found {token.value!r} at position "
            f"{token.position}",
            token.position,
        )

    # -- predicates (the F domain) ------------------------------------------------

    def predicate(self) -> Predicate:
        """Parse a boolean expression of the paper's domain ``F``."""
        left = self._and_pred()
        while self._match_keyword("or"):
            left = Or(left, self._and_pred())
        return left

    def _and_pred(self) -> Predicate:
        left = self._not_pred()
        while self._match_keyword("and"):
            left = And(left, self._not_pred())
        return left

    def _not_pred(self) -> Predicate:
        token = self._peek()
        if token.is_keyword("not"):
            self._advance()
            return Not(self._not_pred())
        if token.is_keyword("true"):
            self._advance()
            return TruePredicate()
        if token.is_keyword("false"):
            self._advance()
            return FalsePredicate()
        if token.type is TokenType.LPAREN:
            self._advance()
            inner = self.predicate()
            self._expect(TokenType.RPAREN)
            return inner
        return self._comparison()

    def _comparison(self) -> Comparison:
        left = self._operand()
        op_token = self._advance()
        op = _COMPARATOR_TOKENS.get(op_token.type)
        if op is None:
            raise ParseError(
                f"expected a comparator but found {op_token.value!r} at "
                f"position {op_token.position}",
                op_token.position,
            )
        right = self._operand()
        return Comparison(left, op, right)

    def _operand(self) -> Any:
        token = self._peek()
        if token.type is TokenType.IDENT:
            self._advance()
            return AttributeRef(token.value)
        position = self._pos
        value = self._literal()
        return Literal(self._parameters.get(position, value))

    # -- temporal expressions (the V domain) ---------------------------------------

    def v_expression(self) -> TemporalExpression:
        """Parse a temporal expression of the paper's domain ``V``."""
        token = self._peek()
        if token.is_keyword("valid"):
            self._advance()
            return ValidTime()
        if token.is_keyword("periods"):
            self._advance()
            return TemporalConstant(self._periods())
        if token.is_keyword("first") or token.is_keyword("last"):
            self._advance()
            self._expect(TokenType.LPAREN)
            inner = self.v_expression()
            self._expect(TokenType.RPAREN)
            return First(inner) if token.value == "first" else Last(inner)
        if (
            token.is_keyword("intersect")
            or token.is_keyword("union")
            or token.is_keyword("extend")
        ):
            self._advance()
            self._expect(TokenType.LPAREN)
            left = self.v_expression()
            self._expect(TokenType.COMMA)
            right = self.v_expression()
            self._expect(TokenType.RPAREN)
            if token.value == "intersect":
                return Intersect(left, right)
            if token.value == "union":
                return TemporalUnion(left, right)
            return Extend(left, right)
        if token.is_keyword("shift"):
            self._advance()
            self._expect(TokenType.LPAREN)
            inner = self.v_expression()
            self._expect(TokenType.COMMA)
            delta = self._expect(TokenType.INT).value
            self._expect(TokenType.RPAREN)
            return Shift(inner, delta)
        raise ParseError(
            f"expected a temporal expression but found {token.value!r} "
            f"at position {token.position}",
            token.position,
        )

    # -- temporal predicates (the G domain) -----------------------------------------

    def g_predicate(self) -> TemporalPredicate:
        """Parse a temporal predicate of the paper's domain ``G``."""
        left = self._g_and()
        while self._match_keyword("or"):
            left = TemporalOr(left, self._g_and())
        return left

    def _g_and(self) -> TemporalPredicate:
        left = self._g_not()
        while self._match_keyword("and"):
            left = TemporalAnd(left, self._g_not())
        return left

    def _g_not(self) -> TemporalPredicate:
        token = self._peek()
        if token.is_keyword("not"):
            self._advance()
            return TemporalNot(self._g_not())
        if token.is_keyword("nonempty"):
            self._advance()
            self._expect(TokenType.LPAREN)
            inner = self.v_expression()
            self._expect(TokenType.RPAREN)
            return NonEmpty(inner)
        if token.is_keyword("validat"):
            self._advance()
            self._expect(TokenType.LPAREN)
            inner = self.v_expression()
            self._expect(TokenType.COMMA)
            chronon = self._expect(TokenType.INT).value
            self._expect(TokenType.RPAREN)
            return ValidAt(inner, chronon)
        if token.type is TokenType.LPAREN:
            # Could be a parenthesized g-predicate; V expressions never
            # start with '(' so this is unambiguous.
            self._advance()
            inner_pred = self.g_predicate()
            self._expect(TokenType.RPAREN)
            return inner_pred
        return self._g_atom()

    def _g_atom(self) -> TemporalPredicate:
        left = self.v_expression()
        token = self._advance()
        if (
            token.type is TokenType.KEYWORD
            and token.value in _G_COMPARATORS
        ):
            right = self.v_expression()
            return _G_COMPARATORS[token.value](left, right)
        raise ParseError(
            f"expected a temporal comparator but found {token.value!r} "
            f"at position {token.position}",
            token.position,
        )


def parse_sentence(source: str) -> list[Command]:
    """Parse a full sentence (a ';'-separated command sequence)."""
    return Parser(tokenize(source)).sentence()


def parse_command(source: str) -> Command:
    """Parse exactly one command."""
    parser = Parser(tokenize(source))
    command = parser.command()
    if parser._peek().type is TokenType.SEMICOLON:
        parser._advance()
    parser._expect(TokenType.EOF)
    return command


def parse_expression(
    source: "str | list[Token]", parameters: Sequence[int] = ()
) -> Expression:
    """Parse exactly one algebraic expression, from its text or the
    tokens :func:`~repro.lang.lexer.tokenize` made of it; the literal
    tokens at ``parameters`` parse as placeholders (see :class:`Parser`)."""
    tokens = tokenize(source) if isinstance(source, str) else source
    parser = Parser(tokens, parameters)
    expression = parser.expression()
    parser._expect(TokenType.EOF)
    return expression
