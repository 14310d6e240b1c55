"""Algebraic expressions and the semantic function **E**.

Section 3.4 of the paper:

    ``E : EXPRESSION → [DATABASE → [SNAPSHOT STATE]]``

The result of evaluating an expression on a specific database is a state;
"evaluation of an expression on a specific database does not change that
database".  Section 4 extends expressions to evaluate to historical states
as well.

The expression AST mirrors the paper's grammar:

    ``E ::= A | E1 ∪ E2 | E1 − E2 | E1 × E2 | π_X(E) | σ_F(E) | ρ(I, N)``

plus Section 4's historical counterparts and the valid-time operator
``δ_{G,V}``.  Rather than duplicating every node for the hatted operator
(``∪̂`` vs ``∪`` etc.), each node dispatches on the runtime type of its
operand states — the hatted and unhatted operators have identical
denotational structure (compare the two displayed equation blocks in the
paper), differing only in the underlying state algebra.  Mixing a snapshot
state with an historical state in one operator is an error.

Every node is immutable and hashable, so the optimizer can rewrite
expression trees and memoize safely.
"""

from __future__ import annotations

from typing import Any, Sequence, Union as TypingUnion

from repro.errors import ExpressionError, RelationTypeError
from repro.core.database import Database
from repro.core.relation import EMPTY_STATE, Relation, RelationType, find_state
from repro.core.txn import NOW, Numeral, as_transaction_number, is_now
from repro.historical.operators import (
    historical_derive,
    historical_difference,
    historical_product,
    historical_project,
    historical_rename,
    historical_select,
    historical_union,
)
from repro.historical.predicates import TemporalPredicate
from repro.historical.state import HistoricalState
from repro.historical.temporal_exprs import TemporalExpression
from repro.snapshot.derived import rename as snap_rename
from repro.snapshot.operators import (
    difference as snap_difference,
    product as snap_product,
    project as snap_project,
    select as snap_select,
    union as snap_union,
)
from repro.snapshot.predicates import Predicate
from repro.snapshot.state import SnapshotState

__all__ = [
    "Expression",
    "Const",
    "Union",
    "Difference",
    "Product",
    "Project",
    "Select",
    "Rename",
    "Derive",
    "Rollback",
    "Parameter",
    "NODE_HANDLERS",
    "apply_node",
    "with_children",
    "evaluate",
    "evaluate_memoized",
]

State = TypingUnion[SnapshotState, HistoricalState]

#: The denotation of the paper's untyped empty set ∅, which ``FINDSTATE``
#: returns when a relation has no recorded state at the requested time.
#: Because our snapshot/historical states are typed by a schema, ∅ is a
#: distinguished marker that the algebraic operators treat as the identity
#: of union (and annihilator of product, etc.); see each node's evaluate.
EMPTY_SET = EMPTY_STATE


def is_empty_set(value: Any) -> bool:
    """True iff ``value`` is the untyped empty set ∅ (as opposed to a
    typed empty state, which has a schema)."""
    return value is EMPTY_SET


#: The metrics registry while metrics are on, else ``None``; set by
#: :func:`repro.obsv.registry.enable` / ``disable``.  A plain module
#: global, so the disabled cost per node is one load and an ``is None``
#: branch; this module never imports :mod:`repro.obsv`.
_METRICS = None


def _require_state(value: Any, node: "Expression") -> State:
    if isinstance(value, (SnapshotState, HistoricalState)):
        return value
    if value is EMPTY_SET:
        raise ExpressionError(
            f"operand of {node!r} evaluated to the untyped empty set ∅ "
            "in a position that requires a schema"
        )
    raise ExpressionError(
        f"operand of {node!r} evaluated to {type(value).__name__}, "
        "not a state"
    )


def _require_same_kind(
    left: State, right: State, operator_name: str
) -> None:
    if type(left) is not type(right):
        raise ExpressionError(
            f"{operator_name} cannot mix a snapshot state with an "
            "historical state; the hatted and unhatted operators apply "
            "to one algebra at a time"
        )


class Expression:
    """Base class for algebraic expressions.

    Subclasses implement :meth:`evaluate`, the paper's semantic function
    **E** restricted to that construct.  Evaluation never mutates the
    database argument.
    """

    __slots__ = ()

    def evaluate(self, database: Database) -> State:
        """``E[[self]] database`` — the denoted state."""
        raise NotImplementedError

    def children(self) -> tuple["Expression", ...]:
        """Immediate sub-expressions, for tree walks and the optimizer."""
        return ()

    # -- operator sugar for building expression trees ------------------------

    def union(self, other: "Expression") -> "Union":
        return Union(self, other)

    def difference(self, other: "Expression") -> "Difference":
        return Difference(self, other)

    def product(self, other: "Expression") -> "Product":
        return Product(self, other)

    def project(self, names: Sequence[str]) -> "Project":
        return Project(self, names)

    def select(self, predicate: Predicate) -> "Select":
        return Select(self, predicate)


class Const(Expression):
    """A constant state ``A`` (Section 3.1) — "an alphanumeric
    representation of a snapshot state (i.e., a constant relation)", or in
    Section 4's extension a snapshot *or* historical state tagged with its
    type ``(Y, A)``.

    We take the already-denoted state directly; the semantic functions **S**
    and **H** that map alphanumeric representations to states live in the
    concrete-syntax layer (:mod:`repro.lang`).
    """

    __slots__ = ("state", "_hash")

    def __init__(self, state: State) -> None:
        if not isinstance(state, (SnapshotState, HistoricalState)):
            raise ExpressionError(
                f"Const requires a snapshot or historical state, "
                f"got {type(state).__name__}"
            )
        self.state = state
        self._hash = hash(("Const", state))

    def evaluate(self, database: Database) -> State:
        if _METRICS is not None:
            _METRICS.counter("expr.nodes_evaluated").inc()
        return self.state

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and self.state == other.state

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        kind = "historical" if isinstance(self.state, HistoricalState) else "snapshot"
        return f"Const({kind}, {len(self.state)} tuples)"


class Union(Expression):
    """``E1 ∪ E2`` / ``E1 ∪̂ E2``."""

    __slots__ = ("left", "right", "_hash")

    def __init__(self, left: Expression, right: Expression) -> None:
        self.left = left
        self.right = right
        self._hash = hash(("Union", left, right))

    def evaluate(self, database: Database) -> State:
        if _METRICS is not None:
            _METRICS.counter("expr.nodes_evaluated").inc()
        l = self.left.evaluate(database)
        r = self.right.evaluate(database)
        # ∅ is the identity of union (paper: FINDSTATE may denote ∅).
        if is_empty_set(l):
            return r
        if is_empty_set(r):
            return l
        l = _require_state(l, self)
        r = _require_state(r, self)
        _require_same_kind(l, r, "union")
        if isinstance(l, HistoricalState):
            return historical_union(l, r)  # type: ignore[arg-type]
        return snap_union(l, r)  # type: ignore[arg-type]

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Union)
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"({self.left!r} ∪ {self.right!r})"


class Difference(Expression):
    """``E1 − E2`` / ``E1 −̂ E2``."""

    __slots__ = ("left", "right", "_hash")

    def __init__(self, left: Expression, right: Expression) -> None:
        self.left = left
        self.right = right
        self._hash = hash(("Difference", left, right))

    def evaluate(self, database: Database) -> State:
        if _METRICS is not None:
            _METRICS.counter("expr.nodes_evaluated").inc()
        l = self.left.evaluate(database)
        r = self.right.evaluate(database)
        # ∅ − E = ∅ and E − ∅ = E.
        if is_empty_set(l):
            return EMPTY_SET
        if is_empty_set(r):
            return l
        l = _require_state(l, self)
        r = _require_state(r, self)
        _require_same_kind(l, r, "difference")
        if isinstance(l, HistoricalState):
            return historical_difference(l, r)  # type: ignore[arg-type]
        return snap_difference(l, r)  # type: ignore[arg-type]

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Difference)
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"({self.left!r} − {self.right!r})"


class Product(Expression):
    """``E1 × E2`` / ``E1 ×̂ E2``."""

    __slots__ = ("left", "right", "_hash")

    def __init__(self, left: Expression, right: Expression) -> None:
        self.left = left
        self.right = right
        self._hash = hash(("Product", left, right))

    def evaluate(self, database: Database) -> State:
        if _METRICS is not None:
            _METRICS.counter("expr.nodes_evaluated").inc()
        l = self.left.evaluate(database)
        r = self.right.evaluate(database)
        # ∅ annihilates a product.
        if is_empty_set(l) or is_empty_set(r):
            return EMPTY_SET
        l = _require_state(l, self)
        r = _require_state(r, self)
        _require_same_kind(l, r, "product")
        if isinstance(l, HistoricalState):
            return historical_product(l, r)  # type: ignore[arg-type]
        return snap_product(l, r)  # type: ignore[arg-type]

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Product)
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"({self.left!r} × {self.right!r})"


class Project(Expression):
    """``π_X(E)`` / ``π̂_X(E)``."""

    __slots__ = ("operand", "names", "_hash")

    def __init__(self, operand: Expression, names: Sequence[str]) -> None:
        self.operand = operand
        self.names = tuple(names)
        self._hash = hash(("Project", operand, self.names))

    def evaluate(self, database: Database) -> State:
        if _METRICS is not None:
            _METRICS.counter("expr.nodes_evaluated").inc()
        inner = self.operand.evaluate(database)
        if is_empty_set(inner):
            return EMPTY_SET
        inner = _require_state(inner, self)
        if isinstance(inner, HistoricalState):
            return historical_project(inner, self.names)
        return snap_project(inner, self.names)

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Project)
            and self.operand == other.operand
            and self.names == other.names
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"π[{', '.join(self.names)}]({self.operand!r})"


class Select(Expression):
    """``σ_F(E)`` / ``σ̂_F(E)``."""

    __slots__ = ("operand", "predicate", "_hash")

    def __init__(self, operand: Expression, predicate: Predicate) -> None:
        self.operand = operand
        self.predicate = predicate
        self._hash = hash(("Select", operand, predicate))

    def evaluate(self, database: Database) -> State:
        if _METRICS is not None:
            _METRICS.counter("expr.nodes_evaluated").inc()
        inner = self.operand.evaluate(database)
        if is_empty_set(inner):
            return EMPTY_SET
        inner = _require_state(inner, self)
        if isinstance(inner, HistoricalState):
            return historical_select(inner, self.predicate)
        return snap_select(inner, self.predicate)

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Select)
            and self.operand == other.operand
            and self.predicate == other.predicate
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"σ[{self.predicate!r}]({self.operand!r})"


class Rename(Expression):
    """Attribute renaming — a derived operator (expressible as projection
    over a relabeled schema) included as a node so cartesian products of a
    relation with itself, and the Quel ``replace`` translation, can be
    written without leaving the algebra."""

    __slots__ = ("operand", "mapping", "_hash")

    def __init__(self, operand: Expression, mapping: dict[str, str]) -> None:
        self.operand = operand
        self.mapping = dict(mapping)
        self._hash = hash(
            ("Rename", operand, tuple(sorted(self.mapping.items())))
        )

    def evaluate(self, database: Database) -> State:
        if _METRICS is not None:
            _METRICS.counter("expr.nodes_evaluated").inc()
        inner = self.operand.evaluate(database)
        if is_empty_set(inner):
            return EMPTY_SET
        inner = _require_state(inner, self)
        if isinstance(inner, HistoricalState):
            return historical_rename(inner, self.mapping)
        return snap_rename(inner, self.mapping)

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Rename)
            and self.operand == other.operand
            and self.mapping == other.mapping
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}→{v}" for k, v in sorted(self.mapping.items()))
        return f"rename[{inner}]({self.operand!r})"


class Derive(Expression):
    """``δ_{G,V}(E)`` — Section 4's valid-time selection/derivation.

    Only defined on historical states.
    """

    __slots__ = ("operand", "predicate", "expression", "_hash")

    def __init__(
        self,
        operand: Expression,
        predicate: TemporalPredicate | None = None,
        expression: TemporalExpression | None = None,
    ) -> None:
        self.operand = operand
        self.predicate = predicate
        self.expression = expression
        self._hash = hash(("Derive", operand, predicate, expression))

    def evaluate(self, database: Database) -> State:
        if _METRICS is not None:
            _METRICS.counter("expr.nodes_evaluated").inc()
        inner = self.operand.evaluate(database)
        if is_empty_set(inner):
            return EMPTY_SET
        inner = _require_state(inner, self)
        if not isinstance(inner, HistoricalState):
            raise ExpressionError(
                "δ applies only to historical states; its operand "
                "evaluated to a snapshot state"
            )
        return historical_derive(inner, self.predicate, self.expression)

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Derive)
            and self.operand == other.operand
            and self.predicate == other.predicate
            and self.expression == other.expression
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"δ[{self.predicate!r}, {self.expression!r}]({self.operand!r})"
        )


class Parameter:
    """A placeholder for the ``index``-th literal a cached plan takes as
    an argument: a rollback numeral or a comparison operand of the query
    text, lifted out so texts differing only there share one plan.  It
    stands where the numeral (``ρ(I, ?0)``) or the literal's value
    (``Literal(?1)``) would; :func:`repro.core.compile.bind` puts the
    values back before anything is evaluated."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Parameter) and self.index == other.index

    def __hash__(self) -> int:
        return hash(("Parameter", self.index))

    def __repr__(self) -> str:
        return f"?{self.index}"


class Rollback(Expression):
    """``ρ(I, N)`` / ``ρ̂(I, N)`` — the paper's new operator (Section 3.4).

    Retrieves the state of relation ``I`` at the time of transaction ``N``:

    * ``N = ∞`` — the most recent state; legal on every relation type.
    * ``N ≠ ∞`` — ``FINDSTATE(r, N)``; legal only on rollback and temporal
      relations ("The rollback operator cannot retrieve a past state of a
      snapshot relation", Section 3.1).

    Rollback is side-effect-free, which is what lets the paper incorporate
    it into the algebra rather than the command layer.  ``N`` may be a
    :class:`Parameter` in a plan template; binding validates the value.
    """

    __slots__ = ("identifier", "numeral", "_hash")

    def __init__(self, identifier: str, numeral: Numeral = NOW) -> None:
        if not identifier or not isinstance(identifier, str):
            raise ExpressionError(
                f"rollback requires a relation identifier, got {identifier!r}"
            )
        if not is_now(numeral) and type(numeral) is not Parameter:
            numeral = as_transaction_number(numeral)
        self.identifier = identifier
        self.numeral = numeral
        self._hash = hash(("Rollback", identifier, numeral))

    def evaluate(self, database: Database) -> State:
        if _METRICS is not None:
            _METRICS.counter("expr.nodes_evaluated").inc()
            _METRICS.counter("expr.rollback_evaluations").inc()
        # ``relation`` is duck-typed: a core Relation or any view exposing
        # rtype and find_state (e.g. a storage-backend relation view).
        relation: Relation = database.require(self.identifier)
        if is_now(self.numeral):
            result = relation.find_state(database.transaction_number)
        else:
            if not relation.rtype.keeps_history:
                raise RelationTypeError(
                    f"cannot roll back {relation.rtype.value} relation "
                    f"{self.identifier!r} to transaction {self.numeral}; "
                    "only rollback and temporal relations retain past states"
                )
            result = relation.find_state(self.numeral)
        # FINDSTATE "returns the empty set" when the sequence is empty or
        # no element qualifies (Section 3.3); the ∅ marker propagates
        # through the algebraic operators.
        return result  # type: ignore[return-value]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Rollback)
            and self.identifier == other.identifier
            and self.numeral == other.numeral
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"ρ({self.identifier}, {self.numeral!r})"


def evaluate(expression: Expression, database: Database) -> State:
    """The semantic function **E** as a standalone entry point.

    ``evaluate(e, d)`` is ``E[[e]] d``.  Provided for symmetry with
    :func:`repro.core.commands.execute` and :func:`repro.core.sentences.run`.
    """
    return expression.evaluate(database)


#: Node types whose result is a pure function of their operand values —
#: exactly the nodes :func:`apply_node` can compute from pre-evaluated
#: children.  Leaves (``Const``, ``Rollback``) and unknown node types are
#: evaluated through their own ``evaluate``.
_COMPOSITE_NODES = (
    Union,
    Difference,
    Product,
    Project,
    Select,
    Rename,
    Derive,
)


def _apply_union(node: Union, operands: Sequence[Any], database: Database):
    l, r = operands
    if is_empty_set(l):
        return r
    if is_empty_set(r):
        return l
    l = _require_state(l, node)
    r = _require_state(r, node)
    _require_same_kind(l, r, "union")
    return (
        historical_union(l, r)
        if isinstance(l, HistoricalState)
        else snap_union(l, r)
    )


def _apply_difference(
    node: Difference, operands: Sequence[Any], database: Database
):
    l, r = operands
    if is_empty_set(l):
        return EMPTY_SET
    if is_empty_set(r):
        return l
    l = _require_state(l, node)
    r = _require_state(r, node)
    _require_same_kind(l, r, "difference")
    return (
        historical_difference(l, r)
        if isinstance(l, HistoricalState)
        else snap_difference(l, r)
    )


def _apply_product(node: Product, operands: Sequence[Any], database: Database):
    l, r = operands
    if is_empty_set(l) or is_empty_set(r):
        return EMPTY_SET
    l = _require_state(l, node)
    r = _require_state(r, node)
    _require_same_kind(l, r, "product")
    return (
        historical_product(l, r)
        if isinstance(l, HistoricalState)
        else snap_product(l, r)
    )


def _apply_project(node: Project, operands: Sequence[Any], database: Database):
    (inner,) = operands
    if is_empty_set(inner):
        return EMPTY_SET
    inner = _require_state(inner, node)
    if isinstance(inner, HistoricalState):
        return historical_project(inner, node.names)
    return snap_project(inner, node.names)


def _apply_select(node: Select, operands: Sequence[Any], database: Database):
    (inner,) = operands
    if is_empty_set(inner):
        return EMPTY_SET
    inner = _require_state(inner, node)
    if isinstance(inner, HistoricalState):
        return historical_select(inner, node.predicate)
    return snap_select(inner, node.predicate)


def _apply_rename(node: Rename, operands: Sequence[Any], database: Database):
    (inner,) = operands
    if is_empty_set(inner):
        return EMPTY_SET
    inner = _require_state(inner, node)
    if isinstance(inner, HistoricalState):
        return historical_rename(inner, node.mapping)
    return snap_rename(inner, node.mapping)


def _apply_derive(node: Derive, operands: Sequence[Any], database: Database):
    (inner,) = operands
    if is_empty_set(inner):
        return EMPTY_SET
    inner = _require_state(inner, node)
    if not isinstance(inner, HistoricalState):
        raise ExpressionError("δ applies only to historical states")
    return historical_derive(inner, node.predicate, node.expression)


#: Per-type handlers computing a composite node's result from its
#: pre-evaluated operand values.  This table is the single source of
#: truth shared by :func:`apply_node`, :func:`evaluate_memoized` and the
#: compiled engine (:mod:`repro.core.compile`): the compiler resolves a
#: node's handler once at compile time, so compiled plans cannot drift
#: from the interpreted semantics.
NODE_HANDLERS = {
    Union: _apply_union,
    Difference: _apply_difference,
    Product: _apply_product,
    Project: _apply_project,
    Select: _apply_select,
    Rename: _apply_rename,
    Derive: _apply_derive,
}


def with_children(
    node: Expression, children: Sequence[Expression]
) -> Expression:
    """A structurally identical node over new children (leaves and
    unknown node types are returned as they are)."""
    if isinstance(node, Union):
        return Union(children[0], children[1])
    if isinstance(node, Difference):
        return Difference(children[0], children[1])
    if isinstance(node, Product):
        return Product(children[0], children[1])
    if isinstance(node, Project):
        return Project(children[0], node.names)
    if isinstance(node, Select):
        return Select(children[0], node.predicate)
    if isinstance(node, Rename):
        return Rename(children[0], node.mapping)
    if isinstance(node, Derive):
        return Derive(children[0], node.predicate, node.expression)
    return node


def apply_node(
    node: Expression, operands: Sequence[Any], database: Database
):
    """Compute ``node``'s result from already-evaluated operand values.

    ``operands`` must align with ``node.children()``.  For leaves (and
    any node type outside :data:`NODE_HANDLERS`) the node's own
    ``evaluate`` is used.  This is the single dispatch point shared by
    :func:`evaluate_memoized`, the compiled engine and the tracing
    evaluator in :mod:`repro.obsv.trace`, so the evaluation strategies
    cannot drift apart semantically.
    """
    handler = NODE_HANDLERS.get(type(node))
    if handler is not None:
        return handler(node, operands, database)
    # leaves (Const, Rollback) and any future node types
    return node.evaluate(database)


#: Sentinel distinguishing "not cached" from any cached value (including
#: falsy states and the untyped ∅) in :func:`evaluate_memoized`.
_MEMO_MISSING = object()


def evaluate_memoized(expression: Expression, database: Database):
    """**E** with common-subexpression elimination.

    Expressions are immutable, hashable values and evaluation is pure, so
    within one evaluation every occurrence of an equal subtree denotes
    the same state.  This evaluator caches results per subtree: a query
    like ``E − σ_F(E)`` evaluates ``E`` once however large it is.

    Observationally identical to :func:`evaluate` (property-tested);
    worth using when expression trees share large subtrees — e.g. the
    update expressions the Quel translator emits.
    """
    cache: dict[Expression, Any] = {}

    def walk(node: Expression):
        # Single sentinel-based lookup: a cached result may be falsy
        # (the ∅ marker, an empty state) or even None (a hypothetical
        # third-party node), and must still count as exactly one hit.
        cached = cache.get(node, _MEMO_MISSING)
        if cached is not _MEMO_MISSING:
            if _METRICS is not None:
                _METRICS.counter("expr.memo_hits").inc()
            return cached
        if _METRICS is not None:
            _METRICS.counter("expr.memo_misses").inc()
        if isinstance(node, _COMPOSITE_NODES):
            operands = [walk(child) for child in node.children()]
            if _METRICS is not None:
                _METRICS.counter("expr.nodes_evaluated").inc()
            result = apply_node(node, operands, database)
        else:
            # leaves and unknown node types count themselves (in their
            # ``evaluate``)
            result = node.evaluate(database)
        cache[node] = result
        return result

    return walk(expression)
