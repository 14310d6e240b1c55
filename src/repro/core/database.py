"""Database states and databases.

Section 3.2 of the paper:

    ``DATABASE STATE ≜ IDENTIFIER → [RELATION + {⊥}]``
    ``DATABASE ≜ DATABASE STATE × TRANSACTION NUMBER``

A database state is a function from identifiers to relations or the bottom
element ⊥ (unbound).  A database pairs a database state with the transaction
number of the most recent transaction.  Both are immutable values: command
semantics produce *new* databases, never mutate existing ones — this is what
lets the reproduction check the paper's claim C1 (expressions are
side-effect-free) structurally.

We realize the function ``IDENTIFIER → [RELATION + {⊥}]`` as a finite
mapping; identifiers absent from the mapping denote ⊥.  The functional
update ``b[r/I]`` from the paper's semantics is :meth:`DatabaseState.bind`.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional

from repro.errors import UnknownRelationError
from repro.core.relation import EMPTY_STATE, Relation
from repro.core.txn import TransactionNumber

__all__ = ["DatabaseState", "Database", "EMPTY_DATABASE"]


class DatabaseState:
    """An immutable finite map from identifiers to relations.

    Identifiers not present are *unbound* — they map to the paper's ⊥.
    """

    __slots__ = ("_bindings",)

    def __init__(
        self, bindings: Optional[Mapping[str, Relation]] = None
    ) -> None:
        self._bindings: dict[str, Relation] = dict(bindings or {})

    def lookup(self, identifier: str) -> Optional[Relation]:
        """The relation bound to ``identifier``, or None for ⊥."""
        return self._bindings.get(identifier)

    def is_bound(self, identifier: str) -> bool:
        """True iff the identifier denotes a defined relation."""
        return identifier in self._bindings

    def require(self, identifier: str) -> Relation:
        """The bound relation, raising on ⊥."""
        relation = self._bindings.get(identifier)
        if relation is None:
            raise UnknownRelationError(
                f"identifier {identifier!r} is unbound (⊥) in this "
                "database state"
            )
        return relation

    def bind(self, identifier: str, relation: Relation) -> "DatabaseState":
        """The functional update ``b[relation/identifier]``: a new state
        identical to this one except that ``identifier`` maps to
        ``relation``."""
        updated = dict(self._bindings)
        updated[identifier] = relation
        return DatabaseState(updated)

    def unbind(self, identifier: str) -> "DatabaseState":
        """A new state with ``identifier`` mapped back to ⊥ (used only by
        the schema-evolution extension's ``delete_relation``)."""
        updated = dict(self._bindings)
        updated.pop(identifier, None)
        return DatabaseState(updated)

    @property
    def identifiers(self) -> tuple[str, ...]:
        """The bound identifiers, sorted for determinism."""
        return tuple(sorted(self._bindings))

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._bindings))

    def __len__(self) -> int:
        return len(self._bindings)

    def __contains__(self, identifier: object) -> bool:
        return identifier in self._bindings

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseState):
            return NotImplemented
        return self._bindings == other._bindings

    def __hash__(self) -> int:
        return hash(("DatabaseState", frozenset(self._bindings.items())))

    def __repr__(self) -> str:
        names = ", ".join(sorted(self._bindings)) or "∅"
        return f"DatabaseState({names})"


class Database:
    """An immutable (database state, transaction number) pair.

    The transaction number identifies "the most recent transaction that
    caused a change to the database" (Section 3.2).

    Each value also carries a *catalog token*, an opaque object that
    stands for what a query plan may depend on: which relations exist,
    their types, and the scheme of each one's current state (or that it
    has none).  :meth:`with_binding` hands the token on, by identity,
    whenever a write leaves all three as they were — appending or
    replacing a state of the same scheme — and makes a fresh one
    otherwise; every other construction makes a fresh one.  Equal tokens
    therefore imply an equal catalog (not conversely), which is what lets
    a session keep a plan across writes.  The token takes no part in
    equality or hashing.
    """

    __slots__ = ("_state", "_txn", "_catalog_token")

    def __init__(
        self,
        state: DatabaseState,
        txn: TransactionNumber,
        catalog_token: Optional[object] = None,
    ) -> None:
        if txn < 0:
            raise UnknownRelationError(
                f"database transaction number must be ≥ 0, got {txn}"
            )
        self._state = state
        self._txn = txn
        self._catalog_token = (
            object() if catalog_token is None else catalog_token
        )

    @property
    def state(self) -> DatabaseState:
        """The database-state component ``b``."""
        return self._state

    @property
    def transaction_number(self) -> TransactionNumber:
        """The transaction-number component ``n``."""
        return self._txn

    @property
    def catalog_token(self) -> object:
        """Identical across values whose catalogs are known equal (see
        the class docstring)."""
        return self._catalog_token

    def lookup(self, identifier: str) -> Optional[Relation]:
        """Convenience: look an identifier up in the state component."""
        return self._state.lookup(identifier)

    def require(self, identifier: str) -> Relation:
        """Convenience: require an identifier to be bound."""
        return self._state.require(identifier)

    def with_binding(
        self, identifier: str, relation: Relation, txn: TransactionNumber
    ) -> "Database":
        """The database ``(b[relation/identifier], txn)``."""
        previous = self._state.lookup(identifier)
        keeps_catalog = (
            previous is not None
            and previous.rtype is relation.rtype
            and _scheme(previous) == _scheme(relation)
        )
        return Database(
            self._state.bind(identifier, relation),
            txn,
            self._catalog_token if keeps_catalog else None,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self._state == other._state and self._txn == other._txn

    def __hash__(self) -> int:
        return hash(("Database", self._state, self._txn))

    def __repr__(self) -> str:
        return f"Database({self._state!r}, txn={self._txn})"


def _scheme(relation: Relation):
    """The scheme of the relation's current state, None when it has none."""
    state = relation.current_state
    return None if state is EMPTY_STATE else state.schema


def _empty_database() -> Database:
    """The paper's ``(EMPTY, 0)``: every identifier maps to ⊥ and the
    transaction count is 0 (Section 3.6)."""
    return Database(DatabaseState(), 0)


#: The distinguished starting database for sentence evaluation.
EMPTY_DATABASE = _empty_database()
