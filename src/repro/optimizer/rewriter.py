"""The fixpoint rewriter and its cost-guided driver.

:class:`Rewriter` applies a rule set bottom-up over an expression tree
until no rule fires, with a generous pass bound as a safety net (the
default rule set is terminating: every rule strictly decreases a
well-founded measure — the sizes of predicates above operators and the
heights of projections).

:class:`CostGuidedRewriter` wraps that machinery in the paper's cost
argument: a rewrite is only *kept* when the statistics-driven
:func:`~repro.optimizer.cost.estimate_cost` of the **whole tree** drops.
Whole-tree comparison matters because several rules change estimates
above the rewrite site (splitting a conjunctive selection, say, lowers
the cardinality every ancestor sees), so a local comparison is unsound.
Rejected candidates are recorded in the trace — that record *is* the
EXPLAIN story the Session surfaces.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import SchemaError
from repro.core.expressions import (
    Derive,
    Difference,
    Expression,
    Product,
    Project,
    Rename,
    Select,
    Union,
    with_children,
)
from repro.obsv import registry as _obsv
from repro.optimizer.cost import Stats, estimate_cost
from repro.optimizer.rules import (
    CombineSelects,
    DEFAULT_RULES,
    DeduplicateUnion,
    EXTENDED_RULES,
    Rule,
)
from repro.optimizer.schema_inference import Catalog

__all__ = ["CostGuidedRewriter", "Rewriter", "optimize", "optimize_with_cost"]

_MAX_PASSES = 100


class Rewriter:
    """Applies rules bottom-up to a fixpoint, recording a trace."""

    def __init__(
        self,
        rules: Sequence[Rule] = DEFAULT_RULES,
        catalog: Optional[Catalog] = None,
    ) -> None:
        self._rules = tuple(rules)
        self._catalog = catalog or {}
        #: (rule name, before repr, after repr) triples, for explainability.
        self.trace: list[tuple[str, str, str]] = []

    def rewrite(self, expression: Expression) -> Expression:
        """Rewrite to a fixpoint of the rule set."""
        self.trace = []
        current = expression
        for _ in range(_MAX_PASSES):
            rewritten = self._rewrite_once(current)
            if rewritten == current:
                return current
            current = rewritten
        return current

    def _rewrite_once(self, expression: Expression) -> Expression:
        """One bottom-up pass: rewrite children first, then try each rule
        at this node (first applicable rule wins)."""
        rebuilt = self._rebuild(expression)
        for rule in self._rules:
            result = rule.apply(rebuilt, self._catalog)
            if result is not None and result != rebuilt:
                self.trace.append((rule.name, repr(rebuilt), repr(result)))
                return result
        return rebuilt

    def _rebuild(self, expression: Expression) -> Expression:
        """Rewrite the children, preserving this node."""
        if isinstance(expression, Union):
            return Union(
                self._rewrite_once(expression.left),
                self._rewrite_once(expression.right),
            )
        if isinstance(expression, Difference):
            return Difference(
                self._rewrite_once(expression.left),
                self._rewrite_once(expression.right),
            )
        if isinstance(expression, Product):
            return Product(
                self._rewrite_once(expression.left),
                self._rewrite_once(expression.right),
            )
        if isinstance(expression, Project):
            return Project(
                self._rewrite_once(expression.operand), expression.names
            )
        if isinstance(expression, Select):
            return Select(
                self._rewrite_once(expression.operand),
                expression.predicate,
            )
        if isinstance(expression, Rename):
            return Rename(
                self._rewrite_once(expression.operand), expression.mapping
            )
        if isinstance(expression, Derive):
            return Derive(
                self._rewrite_once(expression.operand),
                expression.predicate,
                expression.expression,
            )
        return expression


def optimize(
    expression: Expression,
    catalog: Optional[Catalog] = None,
    rules: Sequence[Rule] = DEFAULT_RULES,
) -> Expression:
    """Rewrite ``expression`` with the given rules to a fixpoint."""
    return Rewriter(rules, catalog).rewrite(expression)


class CostGuidedRewriter:
    """A rewriter that keeps a rewrite only when estimated cost drops.

    Two phases, both gated on whole-tree
    :func:`~repro.optimizer.cost.estimate_cost` under the supplied
    statistics:

    1. **Fixpoint candidate** — run the plain :class:`Rewriter` over the
       (extended) rule set and accept the resulting plan as a block iff
       it prices strictly lower than the input.  This is where the
       enabling chains live (split a conjunction *so that* the halves
       push below a union): individually cost-raising steps are fine as
       long as the destination plan wins.
    2. **Greedy repair** — hill-climb with single-rule applications,
       including rules that are unsafe in a fixpoint set
       (``CombineSelects`` is the inverse of the split rule) but useful
       once, accepting only strict cost improvements.  Each candidate
       substitutes the rewritten subtree at *every* occurrence of the
       matched subtree — sound because equal expressions denote equal
       states — and is re-priced as a whole tree.

    Every considered rewrite lands in :attr:`trace` as
    ``(rule name, cost before, cost after, accepted)``; the Session's
    EXPLAIN renders it.  Statistics are advisory: every rule is a
    semantic identity, so stale stats cost performance, never
    correctness.
    """

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        catalog: Optional[Catalog] = None,
        stats: Optional[Stats] = None,
    ) -> None:
        self._rules = tuple(rules) if rules is not None else EXTENDED_RULES
        self._greedy_rules = self._rules + (
            CombineSelects(),
            DeduplicateUnion(),
        )
        self._catalog = catalog or {}
        self._stats = stats
        #: (rule name, cost before, cost after, accepted) per candidate.
        self.trace: list[tuple[str, float, float, bool]] = []
        self.baseline_cost = 0.0
        self.final_cost = 0.0

    def rewrite(self, expression: Expression) -> Expression:
        """Return the cheapest plan found; never costlier than the input."""
        self.trace = []
        best = expression
        best_cost = estimate_cost(expression, self._stats)
        self.baseline_cost = best_cost

        # Phase 1: the classical fixpoint plan, kept iff it prices lower.
        # An incomplete catalog (a ρ leaf the data dictionary cannot
        # type yet) aborts the fixpoint, not the query: schema-dependent
        # rules simply don't fire.
        try:
            candidate = Rewriter(self._rules, self._catalog).rewrite(
                expression
            )
        except SchemaError:
            candidate = expression
        if candidate != expression:
            cost = estimate_cost(candidate, self._stats)
            accepted = cost < best_cost
            self.trace.append(("fixpoint", best_cost, cost, accepted))
            if accepted:
                best, best_cost = candidate, cost

        # Phase 2: greedy single-rule hill climbing (first improvement).
        for _ in range(_MAX_PASSES):
            step = self._improve_once(best, best_cost)
            if step is None:
                break
            best, best_cost = step

        self.final_cost = best_cost
        if _obsv.enabled():
            # the trace holds every candidate priced against the gate
            considered = len(self.trace)
            accepted = sum(1 for *_, kept in self.trace if kept)
            registry = _obsv.get()
            registry.counter("optimizer.plans_optimized").inc()
            registry.counter("optimizer.rewrites_considered").inc(considered)
            registry.counter("optimizer.rewrites_accepted").inc(accepted)
            registry.counter("optimizer.rewrites_rejected").inc(
                considered - accepted
            )
            if self.baseline_cost > 0:
                registry.histogram("optimizer.cost_ratio").observe(
                    best_cost / self.baseline_cost
                )
        return best

    def _improve_once(self, best, best_cost):
        """Try every (node, rule) pair; commit the first cost drop."""
        for node in _postorder(best):
            for rule in self._greedy_rules:
                try:
                    rewritten = rule.apply(node, self._catalog)
                except SchemaError:
                    continue
                if rewritten is None or rewritten == node:
                    continue
                candidate = _substitute(best, node, rewritten)
                cost = estimate_cost(candidate, self._stats)
                accepted = cost < best_cost
                self.trace.append((rule.name, best_cost, cost, accepted))
                if accepted:
                    return candidate, cost
        return None


def optimize_with_cost(
    expression: Expression,
    catalog: Optional[Catalog] = None,
    stats: Optional[Stats] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> Expression:
    """Rewrite ``expression``, keeping only cost-reducing rewrites."""
    return CostGuidedRewriter(rules, catalog, stats).rewrite(expression)


def _postorder(expression: Expression) -> "list[Expression]":
    """Distinct subtrees, children before parents, iteratively."""
    order: list = []
    seen: set = set()
    stack: "list[tuple[Expression, bool]]" = [(expression, False)]
    while stack:
        node, children_done = stack.pop()
        if node in seen:
            continue
        children = node.children()
        if not children_done and children:
            stack.append((node, True))
            for child in children:
                if child not in seen:
                    stack.append((child, False))
            continue
        if node in seen:
            continue
        seen.add(node)
        order.append(node)
    return order


def _substitute(
    root: Expression, target: Expression, replacement: Expression
) -> Expression:
    """Replace every occurrence of ``target`` in ``root`` (iteratively,
    sharing rebuilt subtrees, so deep chains neither recurse nor blow up
    on DAG-shaped trees)."""
    memo: "dict[Expression, Expression]" = {target: replacement}
    stack: "list[tuple[Expression, bool]]" = [(root, False)]
    while stack:
        node, children_done = stack.pop()
        if node in memo:
            continue
        children = node.children()
        if not children_done and children:
            stack.append((node, True))
            for child in children:
                if child not in memo:
                    stack.append((child, False))
            continue
        if node in memo:
            continue
        if not children:
            memo[node] = node
            continue
        new_children = tuple(memo[child] for child in children)
        if new_children == children:
            memo[node] = node
        else:
            memo[node] = with_children(node, new_children)
    return memo[root]
