"""Pretty-printing of expression and command ASTs back to concrete syntax.

``parse_expression(format_expression(e))`` round-trips for every expression
the parser can produce from constants the printer can render; the test
suite checks this property.
"""

from __future__ import annotations

from repro.errors import ExpressionError
from repro.core.commands import Command, DefineRelation, ModifyState, Sequence
from repro.core.expressions import (
    Const,
    Derive,
    Difference,
    Expression,
    Product,
    Project,
    Rename,
    Rollback,
    Select,
    Union,
)
from repro.core.txn import is_now
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
from repro.snapshot.attributes import ANY, Attribute
from repro.snapshot.predicates import (
    And,
    AttributeRef,
    Comparison,
    FalsePredicate,
    Literal,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.snapshot.state import SnapshotState

__all__ = ["format_expression", "format_command", "format_predicate"]

_DOMAIN_KEYWORDS = {
    "integer": "integer",
    "string": "string",
    "number": "number",
    "boolean": "boolean",
    "any": "any",
}


def format_command(command: Command) -> str:
    """Render a command AST to concrete syntax."""
    if isinstance(command, DefineRelation):
        return f"define_relation({command.identifier}, {command.rtype.value})"
    if isinstance(command, ModifyState):
        return (
            f"modify_state({command.identifier}, "
            f"{format_expression(command.expression)})"
        )
    if isinstance(command, Sequence):
        return (
            f"{format_command(command.first)}; "
            f"{format_command(command.second)}"
        )
    raise ExpressionError(f"cannot format command {command!r}")


def format_expression(expression: Expression) -> str:
    """Render an expression AST to concrete syntax."""
    if isinstance(expression, Const):
        return _format_const(expression)
    if isinstance(expression, Union):
        return (
            f"({format_expression(expression.left)} union "
            f"{format_expression(expression.right)})"
        )
    if isinstance(expression, Difference):
        return (
            f"({format_expression(expression.left)} minus "
            f"{format_expression(expression.right)})"
        )
    if isinstance(expression, Product):
        return (
            f"({format_expression(expression.left)} times "
            f"{format_expression(expression.right)})"
        )
    if isinstance(expression, Project):
        names = ", ".join(expression.names)
        return f"project [{names}] ({format_expression(expression.operand)})"
    if isinstance(expression, Select):
        return (
            f"select [{format_predicate(expression.predicate)}] "
            f"({format_expression(expression.operand)})"
        )
    if isinstance(expression, Derive):
        g = (
            format_g_predicate(expression.predicate)
            if expression.predicate is not None
            else ""
        )
        v = (
            format_v_expression(expression.expression)
            if expression.expression is not None
            else ""
        )
        return (
            f"derive [{g} ; {v}] "
            f"({format_expression(expression.operand)})"
        )
    if isinstance(expression, Rollback):
        numeral = "now" if is_now(expression.numeral) else str(
            expression.numeral
        )
        return f"rollback({expression.identifier}, {numeral})"
    if isinstance(expression, Rename):
        pairs = "".join(
            f", {old} -> {new}"
            for old, new in sorted(expression.mapping.items())
        )
        return f"rename({format_expression(expression.operand)}{pairs})"
    raise ExpressionError(f"cannot format expression {expression!r}")


def _format_const(expression: Const) -> str:
    state = expression.state
    schema_text = ", ".join(
        _format_attribute(a) for a in state.schema.attributes
    )
    if isinstance(state, HistoricalState):
        rows = []
        for t in sorted(
            state.tuples, key=lambda t: tuple(map(repr, t.value.values))
        ):
            values = ", ".join(_format_literal(v) for v in t.value.values)
            rows.append(f"({values}) @ {_format_periods(t.valid_time)}")
        body = ", ".join(rows)
        return f"historical state ({schema_text}) {{ {body} }}"
    assert isinstance(state, SnapshotState)
    rows = []
    for t in sorted(state.tuples, key=lambda t: tuple(map(repr, t.values))):
        values = ", ".join(_format_literal(v) for v in t.values)
        rows.append(f"({values})")
    body = ", ".join(rows)
    return f"state ({schema_text}) {{ {body} }}"


def _format_attribute(attribute: Attribute) -> str:
    if attribute.domain == ANY:
        return attribute.name
    keyword = _DOMAIN_KEYWORDS.get(attribute.domain.name)
    if keyword is None:
        # Custom domains have no concrete-syntax spelling; degrade to any.
        return attribute.name
    return f"{attribute.name}: {keyword}"


def _format_literal(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise ExpressionError(
        f"value {value!r} has no concrete-syntax literal form"
    )


def _format_periods(periods: PeriodSet) -> str:
    return " + ".join(
        f"[{i.start}, {'forever' if i.is_unbounded else i.end})"
        for i in periods.intervals
    )


def format_predicate(predicate: Predicate) -> str:
    """Render an ``F``-domain predicate to concrete syntax."""
    if isinstance(predicate, TruePredicate):
        return "true"
    if isinstance(predicate, FalsePredicate):
        return "false"
    if isinstance(predicate, Comparison):
        return (
            f"{_format_term(predicate.left)} {predicate.op} "
            f"{_format_term(predicate.right)}"
        )
    if isinstance(predicate, And):
        return (
            f"({format_predicate(predicate.left)} and "
            f"{format_predicate(predicate.right)})"
        )
    if isinstance(predicate, Or):
        return (
            f"({format_predicate(predicate.left)} or "
            f"{format_predicate(predicate.right)})"
        )
    if isinstance(predicate, Not):
        return f"not ({format_predicate(predicate.operand)})"
    raise ExpressionError(f"cannot format predicate {predicate!r}")


def _format_term(term) -> str:
    if isinstance(term, AttributeRef):
        return term.name
    if isinstance(term, Literal):
        return _format_literal(term.value)
    raise ExpressionError(f"cannot format term {term!r}")


def format_v_expression(expression: TemporalExpression) -> str:
    """Render a ``V``-domain temporal expression to concrete syntax."""
    if isinstance(expression, ValidTime):
        return "valid"
    if isinstance(expression, TemporalConstant):
        return f"periods {_format_periods(expression.periods)}"
    if isinstance(expression, First):
        return f"first({format_v_expression(expression.operand)})"
    if isinstance(expression, Last):
        return f"last({format_v_expression(expression.operand)})"
    if isinstance(expression, Intersect):
        return (
            f"intersect({format_v_expression(expression.left)}, "
            f"{format_v_expression(expression.right)})"
        )
    if isinstance(expression, TemporalUnion):
        return (
            f"union({format_v_expression(expression.left)}, "
            f"{format_v_expression(expression.right)})"
        )
    if isinstance(expression, Extend):
        return (
            f"extend({format_v_expression(expression.left)}, "
            f"{format_v_expression(expression.right)})"
        )
    if isinstance(expression, Shift):
        return (
            f"shift({format_v_expression(expression.operand)}, "
            f"{expression.delta})"
        )
    raise ExpressionError(
        f"cannot format temporal expression {expression!r}"
    )


_G_SYMBOLS = {
    Precedes: "precedes",
    Overlaps: "overlaps",
    Contains: "contains",
    Meets: "meets",
    Equals: "equals",
}


def format_g_predicate(predicate: TemporalPredicate) -> str:
    """Render a ``G``-domain temporal predicate to concrete syntax."""
    for cls, symbol in _G_SYMBOLS.items():
        if isinstance(predicate, cls):
            return (
                f"{format_v_expression(predicate.left)} {symbol} "
                f"{format_v_expression(predicate.right)}"
            )
    if isinstance(predicate, NonEmpty):
        return f"nonempty({format_v_expression(predicate.operand)})"
    if isinstance(predicate, ValidAt):
        return (
            f"validat({format_v_expression(predicate.operand)}, "
            f"{predicate.chronon})"
        )
    if isinstance(predicate, TemporalAnd):
        return (
            f"({format_g_predicate(predicate.left)} and "
            f"{format_g_predicate(predicate.right)})"
        )
    if isinstance(predicate, TemporalOr):
        return (
            f"({format_g_predicate(predicate.left)} or "
            f"{format_g_predicate(predicate.right)})"
        )
    if isinstance(predicate, TemporalNot):
        return f"not ({format_g_predicate(predicate.operand)})"
    raise ExpressionError(
        f"cannot format temporal predicate {predicate!r}"
    )
