"""Derived historical operators.

Like :mod:`repro.snapshot.derived`, everything here is definable from the
primitive historical operators; the implementations fuse steps for
efficiency and the tests check both the definitions and *snapshot
reducibility* (timeslicing commutes with each operator).
"""

from __future__ import annotations

from repro.errors import SchemaError
from repro.historical.operators import (
    historical_product,
    historical_select,
)
from repro.historical.periods import PeriodSet
from repro.historical.state import HistoricalState
from repro.historical.tuples import HistoricalTuple
from repro.snapshot.predicates import Predicate
from repro.snapshot.schema import Schema
from repro.snapshot.tuples import SnapshotTuple, picker

__all__ = [
    "historical_intersection",
    "historical_theta_join",
    "historical_natural_join",
]


def historical_intersection(
    left: HistoricalState, right: HistoricalState
) -> HistoricalState:
    """Per-value intersection: a fact survives for exactly the chronons at
    which *both* states record it.

    Equal to ``L −̂ (L −̂ R)``.
    """
    left.schema.require_compatible(right.schema, "historical intersection")
    right_times: dict[SnapshotTuple, PeriodSet] = {
        t.value: t.valid_time for t in right.tuples
    }
    kept: list[HistoricalTuple] = []
    for t in left.tuples:
        other = right_times.get(t.value)
        if other is None:
            continue
        shared = t.valid_time.intersect(other)
        if not shared.is_empty():
            kept.append(HistoricalTuple(t.value, shared))
    return HistoricalState(left.schema, kept)


def historical_theta_join(
    left: HistoricalState,
    right: HistoricalState,
    predicate: Predicate,
) -> HistoricalState:
    """``σ̂_F(L ×̂ R)`` — value parts join under ``F``, valid times
    intersect (facts join only while simultaneously valid)."""
    return historical_select(historical_product(left, right), predicate)


def historical_natural_join(
    left: HistoricalState, right: HistoricalState
) -> HistoricalState:
    """Natural join on common attribute names; valid times intersect.

    With no common attributes this is the historical product; with
    identical schemas it is the per-value intersection.
    """
    common = left.schema.common_names(right.schema)
    if not common:
        return historical_product(left, right)
    if left.schema == right.schema:
        return historical_intersection(left, right)

    right_only = [n for n in right.schema.names if n not in common]
    joined_schema = Schema(
        list(left.schema.attributes)
        + [right.schema[n] for n in right_only]
    )
    left_key = picker(left.schema, common)
    right_key = picker(right.schema, common)
    right_rest = picker(right.schema, right_only)
    buckets: dict[tuple, list[HistoricalTuple]] = {}
    for r in right.tuples:
        buckets.setdefault(right_key(r.value.values), []).append(r)

    derived = SnapshotTuple._derived
    out: list[HistoricalTuple] = []
    for l in left.tuples:
        for r in buckets.get(left_key(l.value.values), ()):
            shared = l.valid_time.intersect(r.valid_time)
            if shared.is_empty():
                continue
            values = l.value.values + right_rest(r.value.values)
            out.append(HistoricalTuple(derived(joined_schema, values), shared))
    return HistoricalState(joined_schema, out)
