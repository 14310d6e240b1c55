"""Historical states.

An :class:`HistoricalState` "models the history of changes in the real
world" (Section 2 of the paper).  It is an immutable set of historical
tuples over one schema, kept in *coalesced form*: no two tuples share the
same value part (their valid times would simply be unioned).  Coalescing
makes state equality canonical, which the reproduction relies on throughout
(backend equivalence, orthogonality checks, Ben-Zvi comparison).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.errors import SchemaError
from repro.historical.periods import PeriodSet
from repro.historical.tuples import HistoricalTuple
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState, format_table
from repro.snapshot.tuples import SnapshotTuple

__all__ = ["HistoricalState"]


def _coalesce(
    schema: Schema, tuples: Iterable[HistoricalTuple]
) -> frozenset[HistoricalTuple]:
    """Merge value-equivalent tuples by unioning their valid times."""
    by_value: dict[SnapshotTuple, PeriodSet] = {}
    for t in tuples:
        if t.schema != schema:
            raise SchemaError(
                f"historical tuple schema {t.schema.names} does not match "
                f"state schema {schema.names}"
            )
        existing = by_value.get(t.value)
        by_value[t.value] = (
            t.valid_time if existing is None else existing.union(t.valid_time)
        )
    return frozenset(
        HistoricalTuple(value, valid_time)
        for value, valid_time in by_value.items()
        if not valid_time.is_empty()
    )


def _periods_text(periods: PeriodSet) -> str:
    return " + ".join(
        f"[{interval.start}, {interval.end!r})"
        for interval in periods.intervals
    )


class HistoricalState:
    """An immutable, coalesced set of historical tuples over one schema."""

    __slots__ = ("_schema", "_tuples", "_hash", "_table")

    def __init__(
        self, schema: Schema, tuples: Iterable[HistoricalTuple] = ()
    ) -> None:
        self._schema = schema
        self._tuples = _coalesce(schema, tuples)
        self._hash: int | None = None
        self._table: str | None = None

    @classmethod
    def empty(cls, schema: Schema) -> "HistoricalState":
        """The empty historical state over the given schema."""
        return cls(schema, ())

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Iterable[tuple[Any, Any]],
    ) -> "HistoricalState":
        """Build a state from ``(values, periods)`` pairs, where ``values``
        is a sequence/mapping acceptable to :class:`SnapshotTuple` and
        ``periods`` is anything acceptable to :class:`PeriodSet` (or a
        PeriodSet itself).

        >>> s = Schema(['name'])
        >>> h = HistoricalState.from_rows(s, [(['merrie'], [(0, 10)])])
        >>> len(h)
        1
        """
        tuples = []
        for values, periods in rows:
            period_set = (
                periods if isinstance(periods, PeriodSet) else PeriodSet(periods)
            )
            tuples.append(HistoricalTuple(values, period_set, schema=schema))
        return cls(schema, tuples)

    @classmethod
    def _from_coalesced(
        cls, schema: Schema, tuples: frozenset[HistoricalTuple]
    ) -> "HistoricalState":
        state = cls.__new__(cls)
        state._schema = schema
        state._tuples = tuples
        state._hash = None
        state._table = None
        return state

    # -- access ------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The schema of every tuple's value part."""
        return self._schema

    @property
    def tuples(self) -> frozenset[HistoricalTuple]:
        """The coalesced historical tuples."""
        return self._tuples

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[HistoricalTuple]:
        return iter(self._tuples)

    def __bool__(self) -> bool:
        return bool(self._tuples)

    def table(self) -> str:
        """As :meth:`SnapshotState.table`, with a last column ``valid``
        holding each tuple's period set as ``[start, end) + ...``."""
        if self._table is None:
            self._table = format_table(
                (*self._schema.names, "valid"),
                [
                    (*t.value.cells(), _periods_text(t.valid_time))
                    for t in self._tuples
                ],
            )
        return self._table

    def is_empty(self) -> bool:
        """True iff the state contains no tuple."""
        return not self._tuples

    def valid_time_of(self, value: SnapshotTuple) -> PeriodSet:
        """The valid time recorded for a value part (empty when absent)."""
        for t in self._tuples:
            if t.value == value:
                return t.valid_time
        return PeriodSet.empty()

    # -- time-slicing --------------------------------------------------------

    def snapshot_at(self, chronon: int) -> SnapshotState:
        """The *timeslice*: the snapshot state of facts valid at the given
        chronon.  This is the standard bridge from historical to snapshot
        semantics, used by the Ben-Zvi comparison (E9)."""
        rows = frozenset(
            t.value for t in self._tuples if t.valid_time.covers(chronon)
        )
        return SnapshotState.from_tuples(self._schema, rows)

    def window(self, periods: PeriodSet) -> "HistoricalState":
        """The state restricted to the given valid-time window."""
        kept = []
        for t in self._tuples:
            clipped = t.restricted_to(periods)
            if clipped is not None:
                kept.append(clipped)
        return HistoricalState(self._schema, kept)

    def value_parts(self) -> SnapshotState:
        """All value parts regardless of valid time, as a snapshot state."""
        return SnapshotState.from_tuples(
            self._schema, frozenset(t.value for t in self._tuples)
        )

    def sorted_rows(self) -> list[tuple]:
        """Deterministically ordered ``(values..., valid_time)`` rows for
        display and golden tests."""
        rows = [
            t.value.values + (repr(t.valid_time),) for t in self._tuples
        ]
        return sorted(rows, key=lambda row: tuple(map(repr, row)))

    # -- equality ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HistoricalState):
            return NotImplemented
        return self._schema == other._schema and self._tuples == other._tuples

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                ("HistoricalState", self._schema, self._tuples)
            )
        return self._hash

    def __repr__(self) -> str:
        sample = ", ".join(repr(t) for t in list(self._tuples)[:3])
        suffix = ", ..." if len(self._tuples) > 3 else ""
        return (
            f"HistoricalState({self._schema.names}, "
            f"{len(self._tuples)} tuples: {sample}{suffix})"
        )
