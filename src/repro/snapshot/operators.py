"""The five primitive snapshot-algebra operators.

These are "the five operators that serve to define the snapshot algebra"
(Section 3.1 of the paper): union, difference, cartesian product, projection
and selection.  Each is a pure function from snapshot states to a snapshot
state; none touches a database — that is the whole point of the paper's
expression/command split.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import SchemaError
from repro.snapshot.predicates import Predicate
from repro.snapshot.state import SnapshotState
from repro.snapshot.tuples import SnapshotTuple, picker

__all__ = ["union", "difference", "product", "project", "select"]


def union(left: SnapshotState, right: SnapshotState) -> SnapshotState:
    """Set union of two union-compatible states (``E1 ∪ E2``)."""
    left.schema.require_compatible(right.schema, "union")
    return SnapshotState.from_tuples(
        left.schema, left.tuples | right.tuples
    )


def difference(left: SnapshotState, right: SnapshotState) -> SnapshotState:
    """Set difference of two union-compatible states (``E1 − E2``)."""
    left.schema.require_compatible(right.schema, "difference")
    return SnapshotState.from_tuples(
        left.schema, left.tuples - right.tuples
    )


def product(left: SnapshotState, right: SnapshotState) -> SnapshotState:
    """Cartesian product (``E1 × E2``).

    The operand schemas must have disjoint attribute names; rename one
    operand first if they collide.
    """
    joined_schema = left.schema.concat(right.schema)
    derived = SnapshotTuple._derived
    tuples = frozenset(
        derived(joined_schema, l.values + r.values)
        for l in left.tuples
        for r in right.tuples
    )
    return SnapshotState.from_tuples(joined_schema, tuples)


def project(state: SnapshotState, names: Sequence[str]) -> SnapshotState:
    """Projection (``π_X(E)``) onto the named attributes.

    Duplicate result tuples collapse, per set semantics.  The names must be
    distinct and present in the state's schema.
    """
    if len(set(names)) != len(names):
        raise SchemaError(f"projection list has duplicates: {list(names)}")
    sub_schema = state.schema.project(names)
    pick = picker(state.schema, names)
    derived = SnapshotTuple._derived
    # a source tuple's rendered cells, where kept, pick like its values
    tuples = frozenset(
        derived(sub_schema, pick(t._values), t._cells and pick(t._cells))
        for t in state.tuples
    )
    return SnapshotState.from_tuples(sub_schema, tuples)


def select(state: SnapshotState, predicate: Predicate) -> SnapshotState:
    """Selection (``σ_F(E)``): the tuples satisfying the predicate.

    The predicate is compiled against the state's schema once (positional
    attribute access), then applied per tuple — observationally identical
    to evaluating against per-tuple dictionaries, measurably faster.
    """
    from repro.snapshot.predicates import compile_predicate

    test = compile_predicate(predicate, state.schema)
    kept = frozenset(t for t in state.tuples if test(t.values))
    return SnapshotState.from_tuples(state.schema, kept)
