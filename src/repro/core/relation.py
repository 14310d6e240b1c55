"""Relations as (type, state-sequence) pairs, and the auxiliary functions.

Section 3.2 of the paper:

    ``RELATION ≜ RELATION TYPE × [STATE × TRANSACTION NUMBER]*``

A relation is an ordered pair of a relation type and a sequence of (state,
transaction number) pairs.  Section 4 extends the type to the four classes
{snapshot, rollback, historical, temporal} and lets the state component be a
snapshot state or an historical state accordingly.

This module also implements the paper's auxiliary functions (Section 3.3):

* ``RTYPE`` — :attr:`Relation.rtype`
* ``RSTATE`` — :attr:`Relation.rstate`
* ``FINDSTATE`` — :func:`find_state` / :meth:`Relation.find_state`
* ``FINDTYPE`` — :func:`find_type` (Section 4's variant used by the
  extended ``modify_state``)

Relations are immutable: :meth:`Relation.with_new_state` returns a *new*
relation, replacing the single element for snapshot/historical relations and
appending for rollback/temporal relations, exactly as ``modify_state``
prescribes.
"""

from __future__ import annotations

import enum
from typing import Iterator, Sequence, Union

from repro.errors import RelationTypeError
from repro.core.txn import TransactionNumber
from repro.historical.state import HistoricalState
from repro.snapshot.state import SnapshotState

__all__ = [
    "RelationType",
    "State",
    "StateSequence",
    "Relation",
    "find_state",
    "find_type",
    "EMPTY_STATE",
]

State = Union[SnapshotState, HistoricalState]


class RelationType(enum.Enum):
    """The four relation classes (paper Sections 3.2 and 4)."""

    SNAPSHOT = "snapshot"
    ROLLBACK = "rollback"
    HISTORICAL = "historical"
    TEMPORAL = "temporal"

    @property
    def keeps_history(self) -> bool:
        """True for the append-only types indexed by transaction time."""
        return self in (RelationType.ROLLBACK, RelationType.TEMPORAL)

    @property
    def stores_valid_time(self) -> bool:
        """True for the types whose states are historical states."""
        return self in (RelationType.HISTORICAL, RelationType.TEMPORAL)

    @classmethod
    def from_name(cls, name: str) -> "RelationType":
        """The semantic function **Y**: map a type name to its denotation."""
        try:
            return cls(name.lower())
        except ValueError:
            valid = ", ".join(t.value for t in cls)
            raise RelationTypeError(
                f"unknown relation type {name!r}; expected one of: {valid}"
            ) from None


#: ``FINDSTATE`` "returns the empty set" when no state qualifies.  We use a
#: distinguished empty marker rather than an empty SnapshotState because the
#: schema is unknowable in that case; callers that need a typed state use
#: Relation.find_state with a default.
EMPTY_STATE: frozenset = frozenset()

StateSequence = tuple[tuple[State, TransactionNumber], ...]


class Relation:
    """An immutable (relation type, state sequence) pair.

    The state sequence's transaction numbers are strictly increasing — the
    invariant the paper derives from sentences always starting at the empty
    database (Section 3.6).  The constructor enforces it defensively.
    """

    __slots__ = ("_rtype", "_states")

    def __init__(
        self,
        rtype: RelationType,
        states: Sequence[tuple[State, TransactionNumber]] = (),
    ) -> None:
        states = tuple(states)
        previous = -1
        for state, txn in states:
            _check_element(rtype, state, txn, previous)
            previous = txn
        if not rtype.keeps_history and len(states) > 1:
            raise RelationTypeError(
                f"a {rtype.value} relation keeps a single-element state "
                f"sequence, got {len(states)} elements"
            )
        self._rtype = rtype
        self._states = states

    # -- the paper's auxiliary functions -------------------------------------

    @property
    def rtype(self) -> RelationType:
        """``RTYPE``: the relation's type."""
        return self._rtype

    @property
    def rstate(self) -> StateSequence:
        """``RSTATE``: the sequence of (state, transaction number) pairs."""
        return self._states

    def find_state(self, txn: TransactionNumber):
        """``FINDSTATE``: the state component of the element with the
        largest transaction number ≤ ``txn``; the paper's "empty set" (the
        :data:`EMPTY_STATE` marker) when the sequence is empty or no element
        qualifies."""
        return find_state(self, txn)

    # -- derived accessors ----------------------------------------------------

    @property
    def transaction_numbers(self) -> tuple[TransactionNumber, ...]:
        """The transaction-number components, in sequence order."""
        return tuple(txn for _, txn in self._states)

    @property
    def current_state(self):
        """The most recent state, or :data:`EMPTY_STATE` when none exists."""
        if not self._states:
            return EMPTY_STATE
        return self._states[-1][0]

    @property
    def history_length(self) -> int:
        """The number of recorded (state, txn) pairs."""
        return len(self._states)

    def __iter__(self) -> Iterator[tuple[State, TransactionNumber]]:
        return iter(self._states)

    # -- state change (pure) ---------------------------------------------------

    def with_new_state(
        self, state: State, txn: TransactionNumber
    ) -> "Relation":
        """The relation after ``modify_state`` installs ``state`` at
        transaction ``txn``: replacement for snapshot/historical relations,
        append for rollback/temporal relations (paper Sections 3.5 and 4)."""
        rtype = self._rtype
        states = self._states if rtype.keeps_history else ()
        # transaction time is append-only: every kept element was
        # checked when it was installed, so only the new one is
        _check_element(rtype, state, txn, states[-1][1] if states else -1)
        successor = Relation.__new__(Relation)
        successor._rtype = rtype
        successor._states = states + ((state, txn),)
        return successor

    # -- equality ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._rtype == other._rtype and self._states == other._states

    def __hash__(self) -> int:
        return hash(("Relation", self._rtype, self._states))

    def __repr__(self) -> str:
        return (
            f"Relation({self._rtype.value}, "
            f"{len(self._states)} states at txns "
            f"{[txn for _, txn in self._states]})"
        )


def _check_element(
    rtype: RelationType,
    state: State,
    txn: TransactionNumber,
    previous: TransactionNumber,
) -> None:
    """The state-sequence invariant for one element following an element
    stamped ``previous``: a strictly greater transaction number and the
    state class the relation type stores."""
    if txn <= previous:
        raise RelationTypeError(
            "state-sequence transaction numbers must be strictly "
            f"increasing; saw {txn} after {previous}"
        )
    expected = (
        HistoricalState if rtype.stores_valid_time else SnapshotState
    )
    if not isinstance(state, expected):
        kind = "historical" if rtype.stores_valid_time else "snapshot"
        raise RelationTypeError(
            f"{rtype.value} relations store {kind} states, "
            f"got {type(state).__name__}"
        )


def find_state(relation: Relation, txn: TransactionNumber):
    """The paper's ``FINDSTATE`` auxiliary function.

    Maps a relation into the state component of the element in the
    relation's state sequence having the largest transaction-number
    component ≤ ``txn``.  Returns :data:`EMPTY_STATE` when the sequence is
    empty or no such element exists (paper Section 3.3).

    Implemented by binary search over the strictly increasing
    transaction-number components — the "interpolation" the paper notes is
    possible (Section 3.2).
    """
    states = relation.rstate
    lo, hi = 0, len(states)
    while lo < hi:
        mid = (lo + hi) // 2
        if states[mid][1] <= txn:
            lo = mid + 1
        else:
            hi = mid
    if lo == 0:
        return EMPTY_STATE
    return states[lo - 1][0]


def find_type(relation: Relation, txn: TransactionNumber) -> RelationType:
    """The paper's ``FINDTYPE`` auxiliary function (Section 4).

    In the core language a relation's type never changes, so ``FINDTYPE``
    coincides with ``RTYPE`` for every transaction number.  Its scheme
    may change (a ``modify_state`` whose new state has another schema),
    and that change is read like any other: the schema of ``ρ(I, N)`` is
    the scheme at ``N``.  Types that vary over transaction time are left
    to TR87-003 (Section 3.1).
    """
    return relation.rtype
