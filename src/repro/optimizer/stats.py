"""Per-relation statistics feeding the cost model.

The cost model in :mod:`repro.optimizer.cost` prices a plan from two
numbers per relation: the *cardinality* of its current state (how many
tuples a ``ρ(I, now)`` scan produces) and the *version-chain depth* (how
many states are recorded — the reconstruction work a historical
``ρ(I, N)`` probe may pay on a delta backend, and a proxy for how much
history a temporal query materializes).

:func:`collect_statistics` gathers both from whatever is actually
serving reads, using the O(1) metadata accessors the read-path engine
added (``latest_txn`` / ``version_count``) so collection never replays
history:

* a semantic :class:`~repro.core.database.Database` value — walks the
  relation state sequences directly;
* a :class:`~repro.storage.versioned_db.VersionedDatabase` or bare
  :class:`~repro.storage.backend.StorageBackend` — asks the backend;
* a :class:`~repro.lang.session.Session` — delegates to its current
  database value (which sharded and replica sessions already assemble).

Statistics are advisory by construction: every rewrite the optimizer
applies is a semantic identity, so stale statistics can only make a plan
slower, never wrong.  That is what lets sessions cache compiled plans
and refresh statistics lazily.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["Statistics", "collect_statistics"]


class Statistics:
    """Cardinality and version-depth estimates per relation identifier.

    Implements the read side of the ``Mapping[str, float]`` protocol the
    cost functions historically accepted (``get``/``__getitem__``/
    ``__contains__`` over cardinalities), so a ``Statistics`` drops in
    anywhere a plain ``{identifier: cardinality}`` dict did, while also
    carrying version counts for the rollback-aware cost terms.
    """

    __slots__ = ("_cardinalities", "_version_counts", "_latest_txns")

    def __init__(
        self,
        cardinalities: Optional[dict] = None,
        version_counts: Optional[dict] = None,
        latest_txns: Optional[dict] = None,
    ) -> None:
        self._cardinalities = dict(cardinalities or {})
        self._version_counts = dict(version_counts or {})
        self._latest_txns = dict(latest_txns or {})

    # -- the Stats mapping protocol (cardinalities) --------------------------

    def get(self, identifier: str, default=None):
        return self._cardinalities.get(identifier, default)

    def __getitem__(self, identifier: str) -> float:
        return self._cardinalities[identifier]

    def __contains__(self, identifier: object) -> bool:
        return identifier in self._cardinalities

    def __iter__(self):
        return iter(self._cardinalities)

    def __len__(self) -> int:
        return len(self._cardinalities)

    def keys(self):
        return self._cardinalities.keys()

    def items(self):
        return self._cardinalities.items()

    # -- the version-aware extension ----------------------------------------

    def cardinality(self, identifier: str, default: float = 0.0) -> float:
        """Estimated tuple count of the relation's current state."""
        return self._cardinalities.get(identifier, default)

    def version_count(self, identifier: str, default: int = 0) -> int:
        """How many states the relation has recorded."""
        return self._version_counts.get(identifier, default)

    def latest_txn(self, identifier: str):
        """The newest installed transaction number, or None."""
        return self._latest_txns.get(identifier)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{identifier}: {int(card)}t/"
            f"{self._version_counts.get(identifier, 0)}v"
            for identifier, card in sorted(self._cardinalities.items())
        )
        return f"Statistics({parts})"


def collect_statistics(source) -> Statistics:
    """Gather :class:`Statistics` from a database-shaped object.

    Accepts a semantic ``Database``, a ``VersionedDatabase``, a bare
    ``StorageBackend``, or a lang ``Session`` (including sharded and
    replica sessions, whose ``database`` property assembles the global
    value).  Unknown sources yield empty statistics — the cost model
    falls back to its defaults.
    """
    # a lang Session (or anything session-shaped exposing .database)
    database = getattr(source, "database", None)
    if database is not None and hasattr(database, "state"):
        source = database
    # a VersionedDatabase wraps a backend
    backend = getattr(source, "backend", None)
    if backend is not None and hasattr(backend, "version_count"):
        source = backend

    if hasattr(source, "state") and hasattr(source, "require"):
        return _from_database(source)
    if hasattr(source, "identifiers") and hasattr(source, "state_at"):
        return _from_backend(source)
    return Statistics()


def _from_database(database) -> Statistics:
    cardinalities: dict = {}
    version_counts: dict = {}
    latest_txns: dict = {}
    for identifier in database.state:
        relation = database.require(identifier)
        state = relation.current_state
        cardinalities[identifier] = float(len(state))
        version_counts[identifier] = relation.history_length
        if relation.rstate:
            latest_txns[identifier] = relation.rstate[-1][1]
    return Statistics(cardinalities, version_counts, latest_txns)


def _from_backend(backend) -> Statistics:
    cardinalities: dict = {}
    version_counts: dict = {}
    latest_txns: dict = {}
    for identifier in backend.identifiers():
        version_counts[identifier] = backend.version_count(identifier)
        txn = backend.latest_txn(identifier)
        if txn is None:
            cardinalities[identifier] = 0.0
            continue
        latest_txns[identifier] = txn
        # the latest state is the engine's O(1) hot read, never a replay
        state = backend.state_at(identifier, txn)
        cardinalities[identifier] = float(
            0 if state is None else len(state)
        )
    return Statistics(cardinalities, version_counts, latest_txns)
