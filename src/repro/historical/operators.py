"""The historical algebraic operators.

Section 4 of the paper lists "historical counterparts to conventional
algebraic operators" — ``∪̂ −̂ ×̂ π̂ σ̂`` — plus the new operator
``δ_{G,V}`` "which performs functions, similar to those of the selection and
projection operators in the snapshot algebra, on the valid-time components
of historical tuples".  All evaluate to historical states.

Design (following the McKenzie & Snodgrass TR87-008 family of algebras, with
tuple-granularity timestamps):

* ``∪̂`` — value-equivalent tuples coalesce; valid times union.
* ``−̂`` — per value-equivalent tuple, valid times subtract; tuples whose
  valid time becomes empty disappear.
* ``×̂`` — value parts concatenate; valid times intersect; pairs whose valid
  times are disjoint produce nothing.
* ``π̂`` — value parts project; newly value-equivalent tuples coalesce.
* ``σ̂`` — ordinary predicate on the value part; valid times untouched.
* ``δ_{G,V}`` — keep the tuples satisfying the temporal predicate ``G``,
  and re-stamp each with the period set its temporal expression ``V``
  denotes (dropping tuples whose new valid time is empty).  With ``G = true``
  and ``V = valid`` it is the identity.

Each operator maps historical states to historical states, the only
property :mod:`repro.core` requires of the historical algebra.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import SchemaError
from repro.historical.periods import PeriodSet
from repro.historical.state import HistoricalState
from repro.historical.temporal_exprs import TemporalExpression, ValidTime
from repro.historical.predicates import TemporalPredicate
from repro.historical.tuples import HistoricalTuple
from repro.snapshot.predicates import Predicate
from repro.snapshot.tuples import SnapshotTuple, picker

__all__ = [
    "historical_union",
    "historical_difference",
    "historical_product",
    "historical_project",
    "historical_select",
    "historical_derive",
    "historical_rename",
]


def historical_union(
    left: HistoricalState, right: HistoricalState
) -> HistoricalState:
    """``E1 ∪̂ E2``: coalescing union of two compatible states."""
    left.schema.require_compatible(right.schema, "historical union")
    return HistoricalState(
        left.schema, list(left.tuples) + list(right.tuples)
    )


def historical_difference(
    left: HistoricalState, right: HistoricalState
) -> HistoricalState:
    """``E1 −̂ E2``: per-value valid-time subtraction.

    A fact survives for exactly the chronons at which the left state records
    it and the right state does not.
    """
    left.schema.require_compatible(right.schema, "historical difference")
    right_times: dict[SnapshotTuple, PeriodSet] = {
        t.value: t.valid_time for t in right.tuples
    }
    kept: list[HistoricalTuple] = []
    for t in left.tuples:
        removed = right_times.get(t.value)
        if removed is None:
            kept.append(t)
            continue
        remaining = t.valid_time.difference(removed)
        if not remaining.is_empty():
            kept.append(HistoricalTuple(t.value, remaining))
    return HistoricalState(left.schema, kept)


def historical_product(
    left: HistoricalState, right: HistoricalState
) -> HistoricalState:
    """``E1 ×̂ E2``: concatenate value parts, intersect valid times.

    Operand schemas must have disjoint attribute names (as for the snapshot
    product).  Pairs of tuples that were never simultaneously valid
    contribute nothing.
    """
    joined_schema = left.schema.concat(right.schema)
    derived = SnapshotTuple._derived
    out: list[HistoricalTuple] = []
    for l in left.tuples:
        for r in right.tuples:
            shared = l.valid_time.intersect(r.valid_time)
            if not shared.is_empty():
                value = derived(joined_schema, l.value.values + r.value.values)
                out.append(HistoricalTuple(value, shared))
    return HistoricalState(joined_schema, out)


def historical_project(
    state: HistoricalState, names: Sequence[str]
) -> HistoricalState:
    """``π̂_X(E)``: project value parts; coalesce newly value-equivalent
    tuples by unioning their valid times."""
    if len(set(names)) != len(names):
        raise SchemaError(f"projection list has duplicates: {list(names)}")
    sub_schema = state.schema.project(names)
    pick = picker(state.schema, names)
    derived = SnapshotTuple._derived
    return HistoricalState(
        sub_schema,
        [
            HistoricalTuple(
                derived(sub_schema, pick(t.value.values)), t.valid_time
            )
            for t in state.tuples
        ],
    )


def historical_select(
    state: HistoricalState, predicate: Predicate
) -> HistoricalState:
    """``σ̂_F(E)``: keep tuples whose *value part* satisfies the ordinary
    predicate ``F``; valid times are untouched."""
    from repro.snapshot.predicates import compile_predicate

    test = compile_predicate(predicate, state.schema)
    kept = [t for t in state.tuples if test(t.value.values)]
    return HistoricalState(state.schema, kept)


def historical_derive(
    state: HistoricalState,
    predicate: TemporalPredicate | None = None,
    expression: TemporalExpression | None = None,
) -> HistoricalState:
    """``δ_{G,V}(E)``: valid-time selection and derivation.

    Keep the tuples satisfying the temporal predicate ``G`` (default: all),
    then re-stamp each survivor with the period set denoted by the temporal
    expression ``V`` (default: its own valid time).  Tuples whose derived
    valid time is empty are dropped, preserving the historical-state
    invariant that every tuple has a non-empty valid time.
    """
    expr = expression if expression is not None else ValidTime()
    out: list[HistoricalTuple] = []
    for t in state.tuples:
        if predicate is not None and not predicate.evaluate(t):
            continue
        derived = expr.evaluate(t)
        if derived.is_empty():
            continue
        out.append(HistoricalTuple(t.value, derived))
    return HistoricalState(state.schema, out)


def historical_rename(
    state: HistoricalState, mapping: dict[str, str]
) -> HistoricalState:
    """Rename value-part attributes per ``mapping`` (old -> new names).

    A derived operator (expressible as π̂ over a relabeled schema); valid
    times are untouched.
    """
    new_schema = state.schema.rename(mapping)
    derived = SnapshotTuple._derived
    return HistoricalState(
        new_schema,
        [
            HistoricalTuple(derived(new_schema, t.value.values), t.valid_time)
            for t in state.tuples
        ],
    )
