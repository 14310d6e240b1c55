"""Compiling expression trees into flat, batch-level execution plans.

The interpreted evaluator walks the tree on every call: each node pays a
Python method call, an isinstance dispatch chain, and — for trees with
shared subtrees — repeated evaluation of equal subexpressions.  For the
hot production shape (the same query issued over and over against a
session) that per-call tree walk is pure overhead: the tree never
changes between calls.

:func:`compile_expression` flattens a tree once into a
:class:`CompiledPlan` — a topologically ordered list of *steps*, one per
**distinct** subtree (common subexpressions are hash-consed away, the
same sharing :func:`~repro.core.expressions.evaluate_memoized` discovers
per call, discovered here once at compile time).  Each composite step
captures its :data:`~repro.core.expressions.NODE_HANDLERS` handler at
compile time, so executing a plan is a tight loop of pre-resolved
callables over a value array — no per-call isinstance chains, no
recursion, no dictionary probes.

Because every step dispatches through the same handler table as
:func:`~repro.core.expressions.apply_node`, a compiled plan is
observation-equivalent to ``evaluate`` by construction (the paper's C6:
any physical evaluation strategy is correct iff observation-equivalent
to the simple semantics); the differential suite in
``tests/optimizer/test_compiled_differential.py`` checks it over all
five storage backends.

Compilation and execution are both iterative (explicit stack / flat
loop), so plans for trees deeper than the Python recursion limit — the
shape the Quel translator emits for long conjunctions — compile and run
fine.

A plan may be compiled from a *template*: a tree whose rollback
numerals and comparison literals are :class:`~repro.core.expressions.Parameter`
placeholders (the paper's ``ρ(I, N)`` with ``N`` free).
:meth:`CompiledPlan.bind` rebuilds only the steps whose subtree holds a
placeholder and shares every other step, so one optimized, compiled
plan serves every value of its literals; :func:`bind` does the same to
a bare tree.

A plan runs wherever a tree runs: :meth:`CompiledPlan.evaluate` is its
call, so every session backing takes the plan through its own
``evaluate`` — a value, a durable database's physical mirror, a replica
behind its staleness bound, or a coordinator's per-read view whose
``ρ`` leaves its shards answer.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.database import Database
from repro.core.expressions import (
    NODE_HANDLERS,
    Expression,
    Parameter,
    Rollback,
    Select,
    State,
    with_children,
)
from repro.snapshot.predicates import And, Comparison, Literal, Not, Or

__all__ = ["CompiledPlan", "bind", "compile_expression"]


#: The metrics registry while metrics are on, else ``None``; set by
#: :func:`repro.obsv.registry.enable` / ``disable``.  A plain module
#: global, so the disabled cost per execution is one load and an
#: ``is None`` branch; this module never imports :mod:`repro.obsv`.
#: Compiled steps count their node work under the interpreter's
#: ``expr.nodes_evaluated``, plans their own under ``engine.*``.
_METRICS = None


class CompiledPlan:
    """A flat, reusable execution plan for one expression tree.

    The plan is a sequence of steps in bottom-up topological order;
    step ``i`` writes slot ``i`` of a per-execution value array, and the
    last slot is the root's result.  Calling the plan (or its
    :meth:`evaluate`) evaluates it against a database, exactly like
    ``expression.evaluate(database)``.
    """

    __slots__ = ("expression", "_steps", "_n_nodes", "_parameterized")

    def __init__(
        self,
        expression: Expression,
        steps: "list[tuple[Callable | None, Expression, tuple[int, ...]]]",
        n_nodes: int,
        parameterized: "tuple[int, ...]" = (),
    ) -> None:
        self.expression = expression
        self._steps = steps
        self._n_nodes = n_nodes
        #: Steps whose subtree holds a Parameter, in step order.
        self._parameterized = parameterized

    @property
    def step_count(self) -> int:
        """Distinct subtrees in the plan (after common-subexpression
        elimination)."""
        return len(self._steps)

    @property
    def node_count(self) -> int:
        """Nodes in the original tree (before sharing); the difference
        with :attr:`step_count` is the work CSE saves per execution."""
        return self._n_nodes

    def bind(self, params: "tuple | list") -> "CompiledPlan":
        """The plan with ``params[i]`` in place of each ``Parameter(i)``.

        Every parameter is bound before anything runs, so a numeral
        that is not a transaction number raises
        :class:`~repro.errors.RollbackError` as parsing it would have,
        whatever else the query would fail on.  A plan without
        parameters is its own binding."""
        if not self._parameterized:
            return self
        steps = list(self._steps)
        for index in self._parameterized:
            handler, node, operand_slots = steps[index]
            children = [steps[slot][1] for slot in operand_slots]
            steps[index] = (
                handler,
                _bind_node(node, children, params),
                operand_slots,
            )
        return CompiledPlan(steps[-1][1], steps, self._n_nodes)

    def __call__(self, database: Database) -> State:
        """Execute the plan — ``E[[expression]] database``."""
        metrics = _METRICS
        values: list = [None] * len(self._steps)
        for index, (handler, node, operand_slots) in enumerate(
            self._steps
        ):
            if handler is None:
                # leaves (Const, Rollback, third-party nodes) evaluate
                # themselves, and count themselves there
                values[index] = node.evaluate(database)
            else:
                if metrics is not None:
                    metrics.counter("expr.nodes_evaluated").inc()
                values[index] = handler(
                    node,
                    [values[slot] for slot in operand_slots],
                    database,
                )
        if metrics is not None:
            metrics.counter("engine.plan_executions").inc()
            metrics.counter("engine.steps_executed").inc(len(self._steps))
        return values[-1]

    def evaluate(self, database: Database) -> State:
        """The plan run against ``database``, as ``__call__`` runs it:
        a plan and its tree answer the same call, so every backing's
        ``evaluate(x)`` takes either."""
        return self(database)

    def __repr__(self) -> str:
        return (
            f"CompiledPlan({self.step_count} steps, "
            f"{self.node_count} tree nodes)"
        )


def compile_expression(
    expression: Expression,
) -> Callable[[Database], State]:
    """Compile a tree into a :class:`CompiledPlan` closure.

    The plan assigns one step per distinct subtree (expressions are
    immutable, hashable values, so equal subtrees denote the same state
    within one evaluation — the property ``evaluate_memoized`` relies
    on) and resolves each composite node's handler once.  The returned
    plan is a pure function of the database argument and can be cached
    and reused across evaluations; the Session plan cache stores one per
    query shape (see :meth:`CompiledPlan.bind`).
    """
    slots: dict[Expression, int] = {}
    steps: list = []

    # Iterative post-order: (node, children_pushed) frames, children
    # pushed right to left so steps run left to right, as ``evaluate``
    # does (a query whose operands fail differently raises the same
    # error either way).
    stack: list[tuple[Expression, bool]] = [(expression, False)]
    while stack:
        node, children_pushed = stack.pop()
        if node in slots:
            continue
        handler = NODE_HANDLERS.get(type(node))
        if not children_pushed and handler is not None:
            stack.append((node, True))
            for child in reversed(node.children()):
                if child not in slots:
                    stack.append((child, False))
            continue
        if node in slots:  # a duplicate frame finished first
            continue
        if handler is None:
            steps.append((None, node, ()))
        else:
            operand_slots = tuple(
                slots[child] for child in node.children()
            )
            steps.append((handler, node, operand_slots))
        slots[node] = len(steps) - 1

    # Tree size (nodes before sharing), computed bottom-up over the
    # distinct subtrees so heavily shared (DAG-shaped) trees don't cost
    # an exponential walk: size(node) = 1 + Σ size(child).
    sizes: list[int] = []
    holds_parameter: list[bool] = []
    for _, node, operand_slots in steps:
        sizes.append(1 + sum(sizes[slot] for slot in operand_slots))
        holds_parameter.append(
            _has_own_parameter(node)
            or any(holds_parameter[slot] for slot in operand_slots)
        )
    plan = CompiledPlan(
        expression,
        steps,
        sizes[-1] if sizes else 0,
        tuple(i for i, held in enumerate(holds_parameter) if held),
    )
    if _METRICS is not None:
        _METRICS.counter("engine.plans_compiled").inc()
        _METRICS.counter("engine.steps_compiled").inc(plan.step_count)
        _METRICS.counter("engine.cse_nodes_saved").inc(
            max(0, plan.node_count - plan.step_count)
        )
    return plan


def bind(expression: Expression, params: "tuple | list") -> Expression:
    """The tree with ``params[i]`` in place of each ``Parameter(i)``
    (iteratively, binding each repeated subtree once)."""
    if not params:
        return expression
    memo: "dict[Expression, Expression]" = {}
    stack: "list[tuple[Expression, bool]]" = [(expression, False)]
    while stack:
        node, children_done = stack.pop()
        if node in memo:
            continue
        children = node.children()
        if not children_done and children:
            stack.append((node, True))
            stack.extend((child, False) for child in children)
            continue
        memo[node] = _bind_node(
            node, [memo[child] for child in children], params
        )
    return memo[expression]


def _has_own_parameter(node: Expression) -> bool:
    """Whether ``node`` itself, not a child, holds a Parameter."""
    if isinstance(node, Rollback):
        return type(node.numeral) is Parameter
    if isinstance(node, Select):
        return _predicate_has_parameter(node.predicate)
    return False


def _predicate_has_parameter(predicate) -> bool:
    if isinstance(predicate, Comparison):
        return any(
            isinstance(term, Literal) and type(term.value) is Parameter
            for term in (predicate.left, predicate.right)
        )
    if isinstance(predicate, (And, Or)):
        return _predicate_has_parameter(
            predicate.left
        ) or _predicate_has_parameter(predicate.right)
    if isinstance(predicate, Not):
        return _predicate_has_parameter(predicate.operand)
    return False


def _bind_node(node: Expression, children: list, params) -> Expression:
    """``node`` over its bound ``children``, its own Parameters bound."""
    if isinstance(node, Rollback):
        numeral = node.numeral
        if type(numeral) is Parameter:
            return Rollback(node.identifier, params[numeral.index])
        return node
    if isinstance(node, Select):
        return Select(children[0], _bind_predicate(node.predicate, params))
    return with_children(node, children)


def _bind_term(term, params):
    if isinstance(term, Literal) and type(term.value) is Parameter:
        return Literal(params[term.value.index])
    return term


def _bind_predicate(predicate, params):
    if isinstance(predicate, Comparison):
        return Comparison(
            _bind_term(predicate.left, params),
            predicate.op,
            _bind_term(predicate.right, params),
        )
    if isinstance(predicate, And):
        return And(
            _bind_predicate(predicate.left, params),
            _bind_predicate(predicate.right, params),
        )
    if isinstance(predicate, Or):
        return Or(
            _bind_predicate(predicate.left, params),
            _bind_predicate(predicate.right, params),
        )
    if isinstance(predicate, Not):
        return Not(_bind_predicate(predicate.operand, params))
    return predicate
