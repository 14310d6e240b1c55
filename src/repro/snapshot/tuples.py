"""Immutable snapshot tuples.

A :class:`SnapshotTuple` binds each attribute of a schema to a value in that
attribute's domain.  Tuples are immutable and hashable so that snapshot
states can be genuine sets, matching the set-theoretic semantics of the
snapshot algebra.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterator, Mapping, Sequence, Union

from repro.errors import SchemaError
from repro.snapshot.schema import Schema

__all__ = ["SnapshotTuple", "picker"]


def picker(
    schema: Schema, names: Sequence[str]
) -> Callable[[tuple], tuple]:
    """``values -> (values of names...)`` over value tuples of ``schema``,
    with the positions resolved once per operator, not once per tuple."""
    positions = [schema.position(name) for name in names]
    if len(positions) > 1:
        return itemgetter(*positions)
    # itemgetter(p) would return the bare value; a slice keeps a tuple
    start = positions[0] if positions else 0
    return itemgetter(slice(start, start + len(positions)))


class SnapshotTuple:
    """A tuple over a schema.

    Construction accepts either a sequence of values in schema order or a
    mapping from attribute names to values.  Every value is validated against
    its attribute's domain (operators derive tuples via :meth:`_derived`).

    >>> s = Schema(['name', 'dept'])
    >>> t = SnapshotTuple(s, ['merrie', 'physics'])
    >>> t['dept']
    'physics'
    """

    __slots__ = ("_schema", "_values", "_hash", "_cells")

    def __init__(
        self,
        schema: Schema,
        values: Union[Sequence[Any], Mapping[str, Any]],
    ) -> None:
        if type(values) in (tuple, list):  # fast path past the ABC check
            ordered = tuple(values)
        elif isinstance(values, (str, bytes)):
            raise SchemaError(
                f"tuple values must be a sequence or mapping of values, "
                f"not the {type(values).__name__} {values!r}"
            )
        elif isinstance(values, Mapping):
            missing = set(schema.names) - set(values)
            extra = set(values) - set(schema.names)
            if missing or extra:
                raise SchemaError(
                    f"tuple values do not match schema {schema.names}: "
                    f"missing {sorted(missing)}, extra {sorted(extra)}"
                )
            ordered = tuple(values[name] for name in schema.names)
        else:
            ordered = tuple(values)
        if len(ordered) != schema.degree:
            raise SchemaError(
                f"tuple has {len(ordered)} values but schema "
                f"{schema.names} has degree {schema.degree}"
            )
        for attribute, value in zip(schema.attributes, ordered):
            attribute.domain.validate(value)
        self._schema = schema
        self._values = ordered
        self._hash: int | None = None
        self._cells: "tuple[str, ...] | None" = None

    @classmethod
    def _derived(
        cls,
        schema: Schema,
        values: tuple,
        cells: "tuple[str, ...] | None" = None,
    ) -> "SnapshotTuple":
        """Internal fast path: a tuple whose every value was validated
        under the identical attribute of ``schema`` in a source tuple
        (and whose :meth:`cells`, if given, are those values' cells)."""
        derived = cls.__new__(cls)
        derived._schema = schema
        derived._values = values
        derived._hash = None
        derived._cells = cells
        return derived

    @property
    def schema(self) -> Schema:
        """The schema this tuple is defined over."""
        return self._schema

    @property
    def values(self) -> tuple[Any, ...]:
        """The attribute values, in schema order."""
        return self._values

    def __getitem__(self, key: Union[int, str]) -> Any:
        if isinstance(key, int):
            return self._values[key]
        return self._values[self._schema.position(key)]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def cells(self) -> tuple[str, ...]:
        """The values as display strings (``str`` of each), computed on
        the first call and kept: a tuple is immutable, and the tuples of
        a stored state are rendered again on every read of it."""
        cells = self._cells
        if cells is None:
            cells = self._cells = tuple(map(str, self._values))
        return cells

    def as_dict(self) -> dict[str, Any]:
        """A name -> value dictionary view of the tuple."""
        return dict(zip(self._schema.names, self._values))

    # -- derivation --------------------------------------------------------

    def project(self, names: Sequence[str]) -> "SnapshotTuple":
        """The sub-tuple over the named attributes, in the order given."""
        pick = picker(self._schema, names)
        return SnapshotTuple._derived(
            self._schema.project(names), pick(self._values)
        )

    def concat(self, other: "SnapshotTuple") -> "SnapshotTuple":
        """The concatenation of two tuples (for cartesian products)."""
        joined = self._schema.concat(other._schema)
        return SnapshotTuple._derived(joined, self._values + other._values)

    def with_schema(self, schema: Schema) -> "SnapshotTuple":
        """The same values reinterpreted under another schema of equal
        degree (used by rename); re-validated only if a domain differs."""
        if [a.domain for a in schema] != [a.domain for a in self._schema]:
            return SnapshotTuple(schema, self._values)
        return SnapshotTuple._derived(schema, self._values)

    def replace(self, **changes: Any) -> "SnapshotTuple":
        """A copy of this tuple with the given attribute values changed.

        >>> s = Schema(['name', 'dept'])
        >>> SnapshotTuple(s, ['merrie', 'physics']).replace(dept='math')['dept']
        'math'
        """
        data = self.as_dict()
        unknown = set(changes) - set(data)
        if unknown:
            raise SchemaError(
                f"replace refers to unknown attributes {sorted(unknown)}"
            )
        data.update(changes)
        return SnapshotTuple(self._schema, data)

    # -- equality ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SnapshotTuple):
            return NotImplemented
        return self._values == other._values and (
            self._schema is other._schema or self._schema == other._schema
        )

    def __hash__(self) -> int:
        # the tuples of one state share its schema: the values alone
        # tell them apart, and equal tuples still hash equal
        if self._hash is None:
            self._hash = hash(self._values)
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._schema.names, self._values)
        )
        return f"<{inner}>"
