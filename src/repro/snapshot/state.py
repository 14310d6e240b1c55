"""Snapshot states.

``SNAPSHOT STATE`` is the paper's "domain of all valid snapshot states, as
defined in the snapshot algebra [Maier 1983], over elements of
{D1 ∪ D2 ∪ ... ∪ Dm}" (Section 3.2).  A :class:`SnapshotState` is an
immutable finite set of :class:`~repro.snapshot.tuples.SnapshotTuple` over a
single schema.

The *empty* snapshot state deserves care: ``FINDSTATE`` returns "the empty
set" when no state exists, and a relation that was just defined has no state
at all.  We allow an empty state over any schema, and we provide
:meth:`SnapshotState.empty` to build one.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence, Union

from repro.errors import SchemaError
from repro.snapshot.schema import Schema
from repro.snapshot.tuples import SnapshotTuple

__all__ = ["SnapshotState", "format_table"]

RowLike = Union[SnapshotTuple, Sequence[Any], Mapping[str, Any]]


class SnapshotState:
    """An immutable set of tuples over one schema — a relation *instance*.

    >>> s = Schema(['name', 'dept'])
    >>> faculty = SnapshotState(s, [['merrie', 'physics'], ['tom', 'math']])
    >>> len(faculty)
    2
    """

    __slots__ = ("_schema", "_tuples", "_hash", "_table")

    def __init__(
        self, schema: Schema, rows: Iterable[RowLike] = ()
    ) -> None:
        tuples = []
        for row in rows:
            if isinstance(row, SnapshotTuple):
                if row.schema != schema:
                    raise SchemaError(
                        f"tuple schema {row.schema.names} does not match "
                        f"state schema {schema.names}"
                    )
                tuples.append(row)
            else:
                tuples.append(SnapshotTuple(schema, row))
        self._schema = schema
        self._tuples = frozenset(tuples)
        self._hash: int | None = None
        self._table: str | None = None

    @classmethod
    def empty(cls, schema: Schema) -> "SnapshotState":
        """The empty state over the given schema."""
        return cls(schema, ())

    @classmethod
    def from_tuples(
        cls, schema: Schema, tuples: frozenset[SnapshotTuple]
    ) -> "SnapshotState":
        """Internal fast path: wrap a pre-validated frozen set of tuples."""
        state = cls.__new__(cls)
        state._schema = schema
        state._tuples = tuples
        state._hash = None
        state._table = None
        return state

    # -- access ------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The state's schema."""
        return self._schema

    @property
    def tuples(self) -> frozenset[SnapshotTuple]:
        """The tuples as a frozen set."""
        return self._tuples

    @property
    def cardinality(self) -> int:
        """The number of tuples."""
        return len(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[SnapshotTuple]:
        return iter(self._tuples)

    def __contains__(self, item: object) -> bool:
        return item in self._tuples

    def __bool__(self) -> bool:
        return bool(self._tuples)

    def table(self) -> str:
        """The state as an aligned text table (see :func:`format_table`)
        of its tuples' :meth:`~SnapshotTuple.cells`.  Computed on the
        first call and kept: a state is immutable, and a stored one is
        rendered again on every read of it."""
        if self._table is None:
            self._table = format_table(
                self._schema.names, [t.cells() for t in self._tuples]
            )
        return self._table

    def is_empty(self) -> bool:
        """True iff the state contains no tuples."""
        return not self._tuples

    def sorted_rows(self) -> list[tuple[Any, ...]]:
        """Deterministically ordered value rows, for display and testing."""
        return sorted(
            (t.values for t in self._tuples), key=lambda row: tuple(map(repr, row))
        )

    # -- convenience mutators (all return NEW states) -----------------------

    def with_tuple(self, row: RowLike) -> "SnapshotState":
        """A new state that also contains ``row``."""
        added = (
            row
            if isinstance(row, SnapshotTuple)
            else SnapshotTuple(self._schema, row)
        )
        if added.schema != self._schema:
            raise SchemaError(
                f"tuple schema {added.schema.names} does not match "
                f"state schema {self._schema.names}"
            )
        return SnapshotState.from_tuples(
            self._schema, self._tuples | {added}
        )

    def without_tuple(self, row: RowLike) -> "SnapshotState":
        """A new state with ``row`` removed (no-op if absent)."""
        removed = (
            row
            if isinstance(row, SnapshotTuple)
            else SnapshotTuple(self._schema, row)
        )
        return SnapshotState.from_tuples(
            self._schema, self._tuples - {removed}
        )

    # -- equality ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SnapshotState):
            return NotImplemented
        return self._schema == other._schema and self._tuples == other._tuples

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                ("SnapshotState", self._schema, self._tuples)
            )
        return self._hash

    def __repr__(self) -> str:
        rows = ", ".join(repr(t) for t in list(self._tuples)[:4])
        suffix = ", ..." if len(self._tuples) > 4 else ""
        return (
            f"SnapshotState({self._schema.names}, "
            f"{len(self._tuples)} tuples: {rows}{suffix})"
        )


def format_table(
    headers: Sequence[str], rows: "list[tuple[str, ...]]"
) -> str:
    """A header line, a rule, and one line per row of cells, rows sorted
    and each column as wide as its widest cell (or ``(empty)`` under the
    rule when there is no row)."""
    rows = sorted(rows)
    if rows:
        widths = [
            max(len(header), max(map(len, column)), 1)
            for header, column in zip(headers, zip(*rows))
        ]
    else:
        widths = [len(header) for header in headers]
    layout = " | ".join(f"%-{width}s" for width in widths)
    lines = [layout % tuple(headers), "-+-".join("-" * w for w in widths)]
    lines.extend([layout % row for row in rows])
    if not rows:
        lines.append("(empty)")
    return "\n".join(lines)
