"""Derived snapshot-algebra operators.

Everything here is definable from the five primitives in
:mod:`repro.snapshot.operators`; we implement the textbook definitions
directly (with the obvious hash-based shortcuts for joins) and the test
suite checks each against its primitive definition.  These operators are
used by the optimizer, the Quel translator, and the examples.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import SchemaError
from repro.snapshot.operators import difference, product, project, select
from repro.snapshot.predicates import Predicate
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState
from repro.snapshot.tuples import SnapshotTuple, picker

__all__ = [
    "intersection",
    "rename",
    "theta_join",
    "natural_join",
    "semijoin",
    "antijoin",
    "divide",
]


def intersection(left: SnapshotState, right: SnapshotState) -> SnapshotState:
    """Set intersection: ``R ∩ S = R − (R − S)``."""
    left.schema.require_compatible(right.schema, "intersection")
    return SnapshotState.from_tuples(
        left.schema, left.tuples & right.tuples
    )


def rename(state: SnapshotState, mapping: Mapping[str, str]) -> SnapshotState:
    """Rename attributes per ``mapping`` (old name -> new name)."""
    new_schema = state.schema.rename(mapping)
    derived = SnapshotTuple._derived
    tuples = frozenset(derived(new_schema, t.values) for t in state.tuples)
    return SnapshotState.from_tuples(new_schema, tuples)


def theta_join(
    left: SnapshotState, right: SnapshotState, predicate: Predicate
) -> SnapshotState:
    """Theta join: ``σ_F(R × S)``.

    Requires disjoint attribute names, like the underlying product.
    """
    return select(product(left, right), predicate)


def natural_join(left: SnapshotState, right: SnapshotState) -> SnapshotState:
    """Natural join on all common attribute names.

    With no common attributes this degenerates to the cartesian product;
    with identical schemas it degenerates to intersection.
    """
    common = left.schema.common_names(right.schema)
    if not common:
        return product(left, right)
    if left.schema == right.schema:
        return intersection(left, right)

    # Hash join on the common attributes.
    right_only = [n for n in right.schema.names if n not in common]
    joined_schema = Schema(
        list(left.schema.attributes)
        + [right.schema[n] for n in right_only]
    )
    left_key = picker(left.schema, common)
    right_key = picker(right.schema, common)
    right_rest = picker(right.schema, right_only)
    buckets: dict[tuple, list[tuple]] = {}
    for r in right.tuples:
        buckets.setdefault(right_key(r.values), []).append(
            right_rest(r.values)
        )

    derived = SnapshotTuple._derived
    out = frozenset(
        derived(joined_schema, l.values + rest)
        for l in left.tuples
        for rest in buckets.get(left_key(l.values), ())
    )
    return SnapshotState.from_tuples(joined_schema, out)


def semijoin(left: SnapshotState, right: SnapshotState) -> SnapshotState:
    """Left semijoin: the left tuples that join with at least one right
    tuple on the common attributes."""
    common = left.schema.common_names(right.schema)
    if not common:
        if right.is_empty():
            return SnapshotState.empty(left.schema)
        return left
    right_keys = {tuple(r[name] for name in common) for r in right.tuples}
    kept = frozenset(
        l
        for l in left.tuples
        if tuple(l[name] for name in common) in right_keys
    )
    return SnapshotState.from_tuples(left.schema, kept)


def antijoin(left: SnapshotState, right: SnapshotState) -> SnapshotState:
    """Left antijoin: the left tuples that join with *no* right tuple."""
    return difference(left, semijoin(left, right))


def divide(left: SnapshotState, right: SnapshotState) -> SnapshotState:
    """Relational division ``R ÷ S``.

    ``S``'s attributes must be a proper, non-empty subset of ``R``'s.  The
    result contains every sub-tuple ``t`` over ``R``'s remaining attributes
    such that for *every* tuple ``s`` in ``S``, the combination ``t ∪ s``
    appears in ``R``.  Implemented by the classic double-difference:
    ``R ÷ S = π_T(R) − π_T((π_T(R) × S) − R)``.
    """
    divisor_names = set(right.schema.names)
    dividend_names = set(left.schema.names)
    if not divisor_names:
        raise SchemaError("division by a zero-degree relation")
    if not divisor_names < dividend_names:
        raise SchemaError(
            "division requires the divisor attributes "
            f"{sorted(divisor_names)} to be a proper subset of the dividend "
            f"attributes {sorted(dividend_names)}"
        )
    for name in divisor_names:
        if left.schema[name] != right.schema[name]:
            raise SchemaError(
                f"division attribute {name!r} has different domains in "
                "dividend and divisor"
            )
    quotient_names = [
        n for n in left.schema.names if n not in divisor_names
    ]
    candidates = project(left, quotient_names)
    # All (candidate, divisor) combinations, arranged in R's column order.
    combos = product(candidates, right)
    combos_as_r = project(combos, list(left.schema.names))
    missing = difference(combos_as_r, left)
    disqualified = project(missing, quotient_names)
    return difference(candidates, disqualified)
