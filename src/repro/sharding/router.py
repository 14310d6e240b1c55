"""Leaf routing: a coordinator's reads answer each ``ρ(I, N)`` on a shard.

In the paper ``ρ(I, N)`` is the only expression that reads the
database; ``∪ − × π σ`` are pure functions of their operands, so where
they run cannot change an answer.  The router therefore evaluates a
read — a tree or a compiled plan, through its own ``evaluate`` — against
a per-read :class:`_ReadView`, the slice of the
:class:`~repro.core.database.Database` interface expressions read
(``require`` and ``transaction_number``).  The view's relations answer
``FINDSTATE`` by sending ``ρ(I, n)`` to the node serving ``I``'s owning
shard, and the operators run where the read runs.

Each read asks the injected ``node_of(shard)`` once per shard it touches:
a sharded database passes its primaries, a cluster its replica pick.
Nodes answer through their own ``evaluate``, so a replica's staleness
bound and any wrapper around a node see every leaf.  The coordinator's
transaction counter is global and a shard's is local to the commands it
received, so a leaf's numeral is *localized* — translated into the
shard-local numeral that selects the same state the global ``N``
selects in the unsharded semantics — and the current global number
reaches the shard as ``now``.

The coordinator's write path uses the same policy: :meth:`shards_of`
and :meth:`localize` decide whether a ``modify_state`` can ship whole to
its owner, and a cross-shard one has its expression read through
:meth:`evaluate`.
"""

from __future__ import annotations

from typing import Callable

from repro.core.expressions import Expression, Rollback, with_children
from repro.core.txn import NOW, Numeral, is_now
from repro.obsv import registry as _obsv

__all__ = ["ScatterGatherRouter"]


class ScatterGatherRouter:
    """Route a coordinator's reads to shard nodes, one ``ρ`` leaf at a
    time.

    ``coordinator`` supplies the metadata: ``transaction_number`` (the
    global counter), ``shard_of(identifier)``, ``localize_numeral(
    identifier, numeral)`` and ``owner_relation(identifier)`` (the
    owning primary's relation, or None).  ``node_of(shard)`` returns the
    node that answers one read's leaves on ``shard``.
    """

    __slots__ = ("_coordinator", "_node_of")

    def __init__(self, coordinator, node_of: Callable[[int], object]) -> None:
        self._coordinator = coordinator
        self._node_of = node_of

    # -- analysis ---------------------------------------------------------

    def shards_of(self, expression: Expression) -> frozenset[int]:
        """The set of shard indices the expression's rollback leaves
        touch (∅ for constant-only expressions)."""
        if isinstance(expression, Rollback):
            return frozenset(
                (self._coordinator.shard_of(expression.identifier),)
            )
        shards: frozenset[int] = frozenset()
        for child in expression.children():
            shards |= self.shards_of(child)
        return shards

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
            local = self._coordinator.localize_numeral(
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

    def evaluate(self, x):
        """``x`` — an expression or a compiled plan — evaluated against
        a fresh per-read view, so each of its ``ρ`` leaves is answered
        on its owning shard's node."""
        view = _ReadView(self._coordinator, self._node_of)
        try:
            return x.evaluate(view)
        finally:
            if _obsv.enabled():
                fanout = max(1, len(view.nodes))
                registry = _obsv.get()
                registry.counter("shard.queries").inc()
                registry.histogram("shard.query_fanout").observe(fanout)
                registry.counter(
                    "shard.queries_scattered"
                    if fanout > 1
                    else "shard.queries_single_shard"
                ).inc()


class _ReadView:
    """One read's slice of the ``Database`` interface: ``require`` and
    ``transaction_number`` (the global counter as the read began).
    ``nodes`` holds the node picked for each shard the read touched."""

    __slots__ = ("transaction_number", "nodes", "_coordinator", "_node_of")

    def __init__(self, coordinator, node_of) -> None:
        self.transaction_number = coordinator.transaction_number
        self.nodes: dict = {}
        self._coordinator = coordinator
        self._node_of = node_of

    def require(self, identifier: str) -> "_ShardRelation":
        shard = self._coordinator.shard_of(identifier)
        node = self.nodes.get(shard)
        if node is None:
            node = self.nodes[shard] = self._node_of(shard)
        return _ShardRelation(self, identifier, node)


class _ShardRelation:
    """``identifier``'s relation as its shard's node answers it — the
    ``rtype`` and ``find_state`` that ``ρ`` reads.

    Unbound identifiers and stale replicas fail on the node, so each
    raises what it raises on a single node."""

    __slots__ = ("_view", "_identifier", "_node")

    def __init__(self, view: _ReadView, identifier: str, node) -> None:
        self._view = view
        self._identifier = identifier
        self._node = node

    @property
    def rtype(self):
        """The owning primary's relation type.  Only a past-state ``ρ``
        asks; when it is about to be refused (the relation keeps no
        history, or is unbound), the node is asked first, so a stale
        replica's or the shard's own error wins as it would there."""
        identifier = self._identifier
        relation = self._view._coordinator.owner_relation(identifier)
        if relation is None or not relation.rtype.keeps_history:
            self._node.evaluate(Rollback(identifier, NOW))
        return relation.rtype

    def find_state(self, numeral: Numeral):
        view = self._view
        identifier = self._identifier
        if numeral == view.transaction_number:
            numeral = NOW
        else:
            numeral = view._coordinator.localize_numeral(identifier, numeral)
        if _obsv.enabled():
            _obsv.get().counter("shard.subqueries_routed").inc()
        return self._node.evaluate(Rollback(identifier, numeral))
