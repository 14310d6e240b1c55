"""The abstract storage-backend interface and shared state helpers.

A backend stores, for each relation, the information needed to answer
``state_at(identifier, txn)`` — the paper's ``FINDSTATE`` — for every
transaction number.  The *logical* content is always the relation's state
sequence; backends differ only in physical representation, and correctness
means observation equivalence with :class:`FullCopyBackend` (which encodes
the paper's semantics directly).

States are handled generically through their *atoms*: a snapshot state's
atoms are its tuples; an historical state's atoms are its coalesced
(value, valid-time) tuples.  Because both state kinds are canonical sets of
atoms over a schema, delta and timestamp representations work uniformly.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from repro.errors import StorageError
from repro.core.relation import RelationType
from repro.core.txn import TransactionNumber
from repro.obsv import registry as _obsv
from repro.historical.state import HistoricalState
from repro.historical.tuples import HistoricalTuple
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState
from repro.snapshot.tuples import SnapshotTuple
from repro.storage.cache import DEFAULT_CACHE_CAPACITY, StateCache

__all__ = [
    "State",
    "Atom",
    "StorageBackend",
    "atoms_of",
    "state_from_atoms",
    "state_kind",
]

State = Union[SnapshotState, HistoricalState]
Atom = Union[SnapshotTuple, HistoricalTuple]


def atoms_of(state: State) -> frozenset:
    """The canonical atom set of a state."""
    return state.tuples


def state_kind(state: State) -> str:
    """``'snapshot'`` or ``'historical'``."""
    return (
        "historical" if isinstance(state, HistoricalState) else "snapshot"
    )


def state_from_atoms(
    schema: Schema, kind: str, atoms: Iterable[Atom]
) -> State:
    """Rebuild a state of the given kind from an atom set."""
    if kind == "historical":
        return HistoricalState(schema, atoms)  # re-coalesces (idempotent)
    return SnapshotState.from_tuples(schema, frozenset(atoms))


class StorageBackend:
    """Interface every physical representation implements.

    The write path mirrors ``define_relation`` / ``modify_state``; the read
    path mirrors ``FINDSTATE``.  ``txn`` arguments are the commit
    transaction numbers assigned by the command semantics, so they arrive
    strictly increasing per relation — backends may (and do) rely on that.
    """

    #: Human-readable backend name for benchmark output.
    name = "abstract"

    #: Class-level defaults so backends (and third-party subclasses) that
    #: never call ``__init__`` still behave: no cache, hot reads allowed.
    _state_cache: Optional[StateCache] = None
    _hot_reads: bool = True

    def __init__(
        self,
        *,
        cache_capacity: Optional[int] = None,
        hot_reads: bool = True,
    ) -> None:
        """Configure the shared read-path machinery.

        ``cache_capacity`` bounds the version-aware LRU state cache
        (None → :data:`~repro.storage.cache.DEFAULT_CACHE_CAPACITY`,
        0 → disabled); ``hot_reads`` toggles the O(1) latest-version
        fast path (left on in production; benchmarks switch it off to
        measure the raw reconstruction cost).
        """
        capacity = (
            DEFAULT_CACHE_CAPACITY
            if cache_capacity is None
            else cache_capacity
        )
        self._state_cache = StateCache(capacity)
        self._hot_reads = hot_reads

    # -- write path -----------------------------------------------------------

    def create(self, identifier: str, rtype: RelationType) -> None:
        """Record a new, empty relation (``define_relation``)."""
        raise NotImplementedError

    def install(
        self, identifier: str, state: State, txn: TransactionNumber
    ) -> None:
        """Record that ``state`` became current at ``txn``
        (``modify_state``).  For non-history types the previous version is
        discarded, matching replacement semantics."""
        raise NotImplementedError

    def clear(self) -> None:
        """Drop every relation *and* every cached reconstruction, leaving
        the backend as-new.  Restore paths (checkpoint load, replica
        re-snapshot) call this before reinstalling a full history: any
        cached ``(identifier, version_index)`` entry would otherwise
        describe the pre-restore contents at coordinates the restored
        history reuses."""
        raise NotImplementedError

    def _clear_cache(self) -> None:
        """The shared half of :meth:`clear` (backends add their own
        relation-map wipe)."""
        cache = self._state_cache
        if cache is not None:
            cache.clear()

    # -- read path ----------------------------------------------------------

    def state_at(
        self, identifier: str, txn: TransactionNumber
    ) -> Optional[State]:
        """The state current at ``txn`` (largest recorded transaction
        ≤ ``txn``), or None when no state qualifies — the backend analogue
        of ``FINDSTATE`` returning ∅."""
        raise NotImplementedError

    def type_of(self, identifier: str) -> RelationType:
        """The relation's type."""
        raise NotImplementedError

    def identifiers(self) -> tuple[str, ...]:
        """All relation identifiers, sorted."""
        raise NotImplementedError

    def has(self, identifier: str) -> bool:
        """Membership test for ``identifier``.

        Concrete backends override this with an O(1) dictionary probe;
        the default is provided so third-party backends that predate the
        method keep working (at ``identifiers()`` cost).  The expression
        evaluator's name-resolution path calls this once per ``ρ`` leaf,
        which is why it must not materialize a sorted tuple.
        """
        return identifier in self.identifiers()

    def transaction_numbers(
        self, identifier: str
    ) -> tuple[TransactionNumber, ...]:
        """The strictly increasing transaction numbers at which states
        were installed."""
        raise NotImplementedError

    def latest_txn(
        self, identifier: str
    ) -> Optional[TransactionNumber]:
        """The newest installed transaction number, or None for a
        relation with no state yet.

        The default falls back to ``transaction_numbers()`` (O(n) tuple
        materialization) so third-party backends keep working; concrete
        backends override with an O(1) tail read.  The expression
        evaluator's ``current_state`` path calls this once per
        ``ρ(R, now)``-shaped read, which is why it must be cheap.
        """
        txns = self.transaction_numbers(identifier)
        return txns[-1] if txns else None

    def version_count(self, identifier: str) -> int:
        """How many versions are recorded — ``history_length`` without
        materializing the transaction-number tuple.  Concrete backends
        override with an O(1) length read."""
        return len(self.transaction_numbers(identifier))

    # -- shared state cache -------------------------------------------------------

    @property
    def state_cache(self) -> Optional[StateCache]:
        """The backend's version-aware LRU state cache (None when the
        backend predates the cache and never called ``__init__``)."""
        return self._state_cache

    def cache_info(self) -> dict:
        """Capacity, occupancy and hit/miss/eviction counts."""
        if self._state_cache is None:
            return {
                "capacity": 0,
                "size": 0,
                "hits": 0,
                "misses": 0,
                "evictions": 0,
            }
        return self._state_cache.info()

    def _cache_get(self, identifier: str, version_index: int):
        """The cached state for version ``version_index``, or None."""
        cache = self._state_cache
        if cache is None:
            return None
        return cache.get((identifier, version_index))

    def _cache_put(
        self, identifier: str, version_index: int, state: State
    ) -> None:
        """Memoize a reconstructed state."""
        cache = self._state_cache
        if cache is not None:
            cache.put((identifier, version_index), state)

    def _cache_invalidate(self, identifier: str) -> None:
        """Drop the identifier's cached states (every ``install`` must
        call this before the new version becomes readable)."""
        cache = self._state_cache
        if cache is not None:
            cache.invalidate(identifier)

    # -- accounting ------------------------------------------------------------

    def stored_atoms(self) -> int:
        """Total atoms physically stored across all relations — the
        space metric benchmarks E5 compares across backends."""
        raise NotImplementedError

    def stored_versions(self) -> int:
        """Total physical version records (full states, deltas or stamped
        intervals) across all relations."""
        raise NotImplementedError

    # -- shared observability -----------------------------------------------------

    def _note_install(self, atoms: int) -> None:
        """Record an ``install`` under ``storage.<name>.*`` (no-op while
        metrics are disabled)."""
        if _obsv.enabled():
            registry = _obsv.get()
            prefix = f"storage.{self.name}"
            registry.counter(f"{prefix}.installs").inc()
            registry.counter(f"{prefix}.atoms_installed").inc(atoms)

    def _note_state_at(
        self,
        replay_length: Optional[int] = None,
        checkpoint_hit: Optional[bool] = None,
        hot: bool = False,
    ) -> None:
        """Record a ``state_at`` probe under ``storage.<name>.*``.

        ``replay_length`` is the number of physical version records the
        backend processed to reconstruct the answer (deltas replayed,
        undo records applied, or timestamp episodes scanned);
        ``checkpoint_hit`` reports whether a checkpointed backend landed
        exactly on a checkpoint (no replay needed); ``hot`` marks a probe
        answered from the latest-version fast path without touching
        physical version records at all.
        """
        if _obsv.enabled():
            registry = _obsv.get()
            prefix = f"storage.{self.name}"
            registry.counter(f"{prefix}.state_at_calls").inc()
            if hot:
                registry.counter(f"{prefix}.hot_reads").inc()
            if replay_length is not None:
                registry.histogram(f"{prefix}.replay_length").observe(
                    replay_length
                )
            if checkpoint_hit is not None:
                registry.counter(
                    f"{prefix}.checkpoint_hits"
                    if checkpoint_hit
                    else f"{prefix}.checkpoint_misses"
                ).inc()

    # -- shared validation -------------------------------------------------------

    @staticmethod
    def _check_unknown(identifier: str, known: Iterable[str]) -> None:
        raise StorageError(
            f"backend has no relation {identifier!r}; known: "
            f"{sorted(known)}"
        )
