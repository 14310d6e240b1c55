"""Scatter-gather evaluation of algebraic expressions over shards.

The router decides, per subtree, whether the whole subtree can be
answered by a single shard (every ``ρ(I, N)`` leaf it contains names an
identifier owned by the same shard) or whether the node's operands must
be gathered from different shards and merged at the coordinator.

Single-shard subtrees ship to the owning shard's
:meth:`~repro.durability.durable.DurableDatabase.evaluate` — so reads
exercise each shard's physical backend mirror when one is attached —
after *localizing* transaction-time numerals: the coordinator's
transaction counter is global, a shard's is local to the commands it
received, so ``ρ(I, N)`` is rewritten to the shard-local numeral that
selects the same state the global ``N`` selects in the unsharded
semantics.

Cross-shard nodes are merged with
:func:`repro.core.expressions.apply_node` — the *same* dispatch point
the memoizing and tracing evaluators use — so the coordinator's merge of
``∪``/``−``/``×``/``σ``/``π`` cannot drift from the paper's operator
semantics.  The algebra-identity property suite
(``tests/sharding/test_algebra_identities.py``) additionally verifies
the identities this decomposition relies on (commutativity/associativity
of ``∪``, distribution of ``σ`` over ``×``).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.expressions import (
    Expression,
    Rollback,
    apply_node,
    with_children,
)
from repro.core.txn import Numeral, is_now
from repro.obsv import registry as _obsv

__all__ = ["ScatterGatherRouter"]


class ScatterGatherRouter:
    """Route expression (sub)trees to shards and merge at the
    coordinator.

    The three impure inputs are injected so the router stays a pure
    routing policy: ``owner_of`` maps an identifier to its shard index,
    ``localize_numeral`` translates a global transaction-time numeral
    into the owning shard's local numeral, and ``evaluate_on_shard``
    runs a (localized) expression on one shard.
    """

    __slots__ = ("_owner_of", "_localize_numeral", "_evaluate_on_shard")

    def __init__(
        self,
        owner_of: Callable[[str], int],
        localize_numeral: Callable[[str, Numeral], Numeral],
        evaluate_on_shard: Callable[[int, Expression], object],
    ) -> None:
        self._owner_of = owner_of
        self._localize_numeral = localize_numeral
        self._evaluate_on_shard = evaluate_on_shard

    # -- analysis ---------------------------------------------------------

    def shards_of(self, expression: Expression) -> frozenset[int]:
        """The set of shard indices the expression's rollback leaves
        touch (∅ for constant-only expressions)."""
        if isinstance(expression, Rollback):
            return frozenset((self._owner_of(expression.identifier),))
        shards: frozenset[int] = frozenset()
        for child in expression.children():
            shards |= self.shards_of(child)
        return shards

    def is_local(self, expression: Expression, shard: int) -> bool:
        """True iff the expression can ship to ``shard`` *untouched*:
        every rollback leaf is owned by ``shard`` and asks for the most
        recent state (``now``), so no numeral translation is needed and
        the paper's exact command-expression text can be logged in the
        shard's WAL."""
        if isinstance(expression, Rollback):
            return is_now(expression.numeral) and (
                self._owner_of(expression.identifier) == shard
            )
        return all(
            self.is_local(child, shard)
            for child in expression.children()
        )

    # -- rewriting --------------------------------------------------------

    def localize(
        self, expression: Expression, shard: int
    ) -> Expression:
        """The expression with every non-``now`` rollback numeral
        translated into ``shard``'s local transaction numbering.
        Returns the original object when nothing needed rewriting."""
        if isinstance(expression, Rollback):
            if is_now(expression.numeral):
                return expression
            local = self._localize_numeral(
                expression.identifier, expression.numeral
            )
            if local == expression.numeral:
                return expression
            return Rollback(expression.identifier, local)
        children = list(expression.children())
        if not children:
            return expression
        rewritten = [self.localize(child, shard) for child in children]
        if all(a is b for a, b in zip(rewritten, children)):
            return expression
        return with_children(expression, rewritten)

    # -- evaluation -------------------------------------------------------

    def evaluate(self, expression: Expression):
        """Scatter-gather evaluation: single-shard subtrees route whole,
        cross-shard nodes gather their operands and merge locally."""
        shards = self.shards_of(expression)
        if len(shards) <= 1:
            # constant-only subtrees evaluate on shard 0: Const leaves
            # ignore the database, so any shard answers identically
            target = next(iter(shards)) if shards else 0
            if _obsv.enabled():
                _obsv.get().counter("shard.subqueries_routed").inc()
            return self._evaluate_on_shard(
                target, self.localize(expression, target)
            )
        operands = [
            self.evaluate(child) for child in expression.children()
        ]
        if _obsv.enabled():
            _obsv.get().counter("shard.merges").inc()
        # merging is pure — apply_node only consults the database for
        # leaves, and leaves are always single-shard (handled above)
        return apply_node(expression, operands, None)

    def fanout(self, expression: Expression) -> int:
        """How many shards a top-level evaluation touches (≥ 1; a
        constant-only expression still visits one shard)."""
        return max(1, len(self.shards_of(expression)))
