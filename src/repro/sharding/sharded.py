"""`ShardedDatabase` — the paper's command semantics over N shards.

The paper defines a database as the cumulative result of one *sentence*
of commands under one monotonically increasing transaction counter
(Sections 3.2–3.5).  The coordinator preserves exactly that contract
while partitioning the ``IDENTIFIER → [RELATION + {⊥}]`` map across
independent :class:`~repro.durability.durable.DurableDatabase` shards,
each with its own WAL, checkpoints, and (optionally) a physical backend
mirror:

* **one global transaction counter** lives at the coordinator; shard
  transaction numbers are private replay details.  For every identifier
  the coordinator records the global transaction number of each
  *effective* ``modify_state`` (``_mods``), which — because rollback and
  temporal relations are append-only — aligns element-for-element with
  the owning shard's state sequence.  ``ρ(I, N)`` with a global numeral
  ``N`` is answered by translating ``N`` into the owner's local
  numbering; the returned *state* carries no transaction stamps, so
  results are byte-identical to the unsharded semantics.
* **commands fan out to single shards** through the one semantic
  function :func:`repro.core.commands.execute` (via each shard's
  ``execute``): a command whose expression only references relations on
  the owning shard ships whole (and is WAL-logged there); a cross-shard
  ``modify_state`` is evaluated at the coordinator by the scatter-gather
  router and shipped as a constant state.  Either way the shard's WAL
  replays to the exact states the global sentence prescribes.
* **reads route leaves**: a read — a tree or a session's compiled
  plan — runs at the coordinator against a per-read view whose
  ``ρ(I, N)`` leaves are answered by ``I``'s shard (through its backend
  mirror when attached) at the localized numeral; the operators run
  where the read runs (:mod:`repro.sharding.router`).

Coordinator metadata (owner map, per-identifier global transaction
numbers, the global counter) lives in memory and — when the database
has a ``directory`` (or an explicit ``meta_store``) — is made durable
by a :class:`~repro.sharding.journal.CoordinatorJournal`: a write-ahead
record per effective command plus periodic atomic checkpoints of the
maps.  :meth:`ShardedDatabase.reopen` restores the checkpoint, recovers
every shard, and replays the journal tail (re-executing onto shards
whose batch-fsynced WALs lost the corresponding records), so a whole
cluster survives a process kill.  A *fresh* ``ShardedDatabase`` still
must open over empty shard stores and raises :class:`ShardingError`
otherwise — reopening is explicit, never guessed.  Purely in-memory
instances journal nothing and behave exactly as before.
"""

from __future__ import annotations

import os
import time
from bisect import bisect_right
from typing import Callable, Iterable, Optional, Sequence, Union as TypingUnion

from repro.errors import CommandError, ReproError, ShardingError, StorageError
from repro.core.commands import (
    Command,
    DefineRelation,
    ModifyState,
    Sequence as CommandSequence,
)
from repro.core.database import EMPTY_DATABASE, Database
from repro.core.expressions import Const, Expression, Rollback
from repro.core.relation import Relation
from repro.core.txn import NOW, Numeral, TransactionNumber, is_now
from repro.durability import DurableDatabase, MemoryStore
from repro.durability.codec import command_from_dict, decode_record
from repro.durability.files import DirectoryStore, FileStore
from repro.obsv import registry as _obsv
from repro.sharding.journal import CoordinatorJournal
from repro.sharding.partition import HashPartitioner, Partitioner
from repro.sharding.router import ScatterGatherRouter

__all__ = ["ShardedDatabase", "RebalanceReport"]


class RebalanceReport:
    """What one :meth:`ShardedDatabase.rebalance` did."""

    __slots__ = (
        "moved",
        "wal_replayed",
        "state_copied",
        "stale_repaired",
    )

    def __init__(self) -> None:
        self.moved = 0
        self.wal_replayed = 0
        self.state_copied = 0
        #: moves whose target held a stale copy from an earlier move;
        #: the missing suffix was replayed onto it before ownership
        #: flipped (the copy is validated as a strict prefix first)
        self.stale_repaired = 0

    def __repr__(self) -> str:
        return (
            f"RebalanceReport(moved={self.moved}, "
            f"wal_replayed={self.wal_replayed}, "
            f"state_copied={self.state_copied}, "
            f"stale_repaired={self.stale_repaired})"
        )


def _only_now_and_self(expression: Expression, identifier: str) -> bool:
    """True iff every rollback leaf is ``ρ(identifier, now)`` — the
    shape whose replay is independent of absolute transaction numbers,
    so the command may be re-executed on a shard with a different local
    counter and still rebuild the same states."""
    if isinstance(expression, Rollback):
        return expression.identifier == identifier and is_now(
            expression.numeral
        )
    return all(
        _only_now_and_self(child, identifier)
        for child in expression.children()
    )


class ShardedDatabase:
    """A coordinator over N durable shards, observationally equivalent
    to one unsharded database executing the same sentence.

    ``stores`` pins each shard to an explicit
    :class:`~repro.durability.files.FileStore` (tests pass
    ``MemoryStore`` instances); ``directory`` puts shard ``i`` under
    ``<directory>/shard-<i>``; with neither, shards live in memory.
    ``backend_factory`` (called once per shard) attaches a physical
    :class:`~repro.storage.versioned_db.VersionedDatabase` mirror to
    each shard, so sharding composes with all five storage backends.
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        directory: "TypingUnion[str, os.PathLike[str], None]" = None,
        stores: Optional[Sequence[FileStore]] = None,
        partitioner: Optional[Partitioner] = None,
        backend_factory: Optional[Callable[[], object]] = None,
        fsync: str = "batch(64, 100)",
        checkpoint_every: int = 256,
        keep_checkpoints: int = 2,
        segment_bytes: int = 1 << 20,
        meta_store: Optional[FileStore] = None,
        meta_checkpoint_every: int = 512,
    ) -> None:
        if stores is not None:
            stores = list(stores)
            if not stores:
                raise ShardingError("stores must name at least one shard")
            shards = len(stores)
        if shards < 1:
            raise ShardingError(f"shard count must be ≥ 1, got {shards}")
        self._directory = (
            os.fspath(directory) if directory is not None else None
        )
        self._backend_factory = backend_factory
        self._durable_options = dict(
            fsync=fsync,
            checkpoint_every=checkpoint_every,
            keep_checkpoints=keep_checkpoints,
            segment_bytes=segment_bytes,
        )
        self._shards: list[DurableDatabase] = []
        for index in range(shards):
            store = stores[index] if stores is not None else None
            self._shards.append(self._open_shard(index, store))
        self._partitioner = partitioner or HashPartitioner()
        self._txn: TransactionNumber = 0
        #: authoritative identifier → shard index; assignments are sticky
        #: (the partitioner only decides *initial* placement)
        self._owner: dict[str, int] = {}
        #: identifier → global transaction numbers of its effective
        #: modifies, aligned 1:1 with the owner relation's state sequence
        #: for the append-only types
        self._mods: dict[str, list[int]] = {}
        #: the kept global value and, per identifier, the (shard
        #: relation, modify count, global relation) it was assembled from
        self._global: tuple = (EMPTY_DATABASE, {})
        self._closed = False
        self._router = ScatterGatherRouter(self, self._shards.__getitem__)
        if meta_store is None and self._directory is not None:
            meta_store = DirectoryStore(
                os.path.join(self._directory, "coordinator")
            )
        self._journal = (
            CoordinatorJournal(
                meta_store, checkpoint_every=meta_checkpoint_every
            )
            if meta_store is not None
            else None
        )
        self._meta_checkpoint_every = meta_checkpoint_every
        # an opening checkpoint makes a brand-new directory reopenable
        # even before the first command
        self.meta_checkpoint()

    def _open_shard(
        self, index: int, store: Optional[FileStore]
    ) -> DurableDatabase:
        if store is None:
            if self._directory is not None:
                store = os.path.join(self._directory, f"shard-{index}")
            else:
                store = MemoryStore()
        backend = (
            self._backend_factory() if self._backend_factory else None
        )
        shard = DurableDatabase(
            store, backend=backend, **self._durable_options
        )
        if shard.transaction_number != 0:
            shard.close()
            raise ShardingError(
                f"shard {index} recovered {shard.transaction_number} "
                "transaction(s) from its store; a ShardedDatabase keeps "
                "its coordinator metadata in memory and must open over "
                "empty shard stores"
            )
        return shard

    @classmethod
    def reopen(
        cls,
        *,
        meta_store: Optional[FileStore] = None,
        directory: "TypingUnion[str, os.PathLike[str], None]" = None,
        stores: Optional[Sequence[FileStore]] = None,
        partitioner: Optional[Partitioner] = None,
        backend_factory: Optional[Callable[[], object]] = None,
        fsync: str = "batch(64, 100)",
        checkpoint_every: int = 256,
        keep_checkpoints: int = 2,
        segment_bytes: int = 1 << 20,
        meta_checkpoint_every: int = 512,
    ) -> "ShardedDatabase":
        """Reopen a killed sharded database from its durable stores.

        Restores the coordinator maps from the latest meta-checkpoint,
        recovers every shard from its own WAL, and replays the journal
        tail: entries whose effect the shard already recovered are
        re-counted into the metadata; entries the shard *lost* (its
        batch-fsynced WAL was behind the always-fsynced journal at the
        kill) are re-executed; dead records — the shard refused the
        command before the kill — fail or no-op identically on replay
        and are skipped.  Raises :class:`ShardingError` when a shard
        holds *fewer* transactions than the checkpoint promised (that
        would mean fsynced history vanished — a lost or swapped store,
        never a crash)."""
        self = cls.__new__(cls)
        self._directory = (
            os.fspath(directory) if directory is not None else None
        )
        if meta_store is None:
            if self._directory is None:
                raise ShardingError(
                    "reopen needs a meta_store or a directory"
                )
            meta_store = DirectoryStore(
                os.path.join(self._directory, "coordinator")
            )
        meta = CoordinatorJournal.load(meta_store)
        if meta is None:
            raise ShardingError(
                "no coordinator checkpoint to reopen from; this store "
                "never held a journaled ShardedDatabase"
            )
        shard_count = int(meta["shards"])
        if stores is not None:
            stores = list(stores)
            if len(stores) != shard_count:
                raise ShardingError(
                    f"reopen: checkpoint names {shard_count} shard(s) "
                    f"but {len(stores)} store(s) were supplied"
                )
        elif self._directory is None:
            raise ShardingError(
                "reopen needs shard stores or a directory"
            )
        self._backend_factory = backend_factory
        self._durable_options = dict(
            fsync=fsync,
            checkpoint_every=checkpoint_every,
            keep_checkpoints=keep_checkpoints,
            segment_bytes=segment_bytes,
        )
        self._shards = []
        for index in range(shard_count):
            store = (
                stores[index]
                if stores is not None
                else os.path.join(self._directory, f"shard-{index}")
            )
            backend = backend_factory() if backend_factory else None
            self._shards.append(
                DurableDatabase(
                    store, backend=backend, **self._durable_options
                )
            )
        self._partitioner = partitioner or HashPartitioner()
        self._txn = int(meta["txn"])
        self._owner = {
            identifier: int(shard)
            for identifier, shard in meta["owner"].items()
        }
        self._mods = {
            identifier: [int(txn) for txn in txns]
            for identifier, txns in meta["mods"].items()
        }
        self._global = (EMPTY_DATABASE, {})
        self._closed = False
        self._router = ScatterGatherRouter(self, self._shards.__getitem__)
        self._journal = CoordinatorJournal(
            meta_store, checkpoint_every=meta_checkpoint_every
        )
        self._meta_checkpoint_every = meta_checkpoint_every
        self._journal.set_extra(meta.get("extra", {}))
        # -- replay the journal tail --------------------------------------
        #: shard transactions the metadata has accounted for so far
        counters = [int(txn) for txn in meta["shard_txns"]]
        for index, shard in enumerate(self._shards):
            if shard.transaction_number < counters[index]:
                raise ShardingError(
                    f"shard {index} recovered "
                    f"{shard.transaction_number} transaction(s) but the "
                    f"coordinator checkpoint promises {counters[index]}; "
                    "fsynced history is missing — refusing to reopen"
                )
        for entry in self._journal.pending(
            after_lsn=int(meta["journal_lsn"])
        ):
            index = int(entry["s"])
            if not 0 <= index < shard_count:
                raise ShardingError(
                    f"journal entry names shard {index} but the "
                    f"checkpoint has {shard_count}"
                )
            shard = self._shards[index]
            if shard.transaction_number < counters[index] + 1:
                # the shard's batch-fsynced WAL lost this record (or a
                # dead/crash-interrupted trailing record): re-execute.
                # A deterministic refusal or no-op means it was dead —
                # skip it, exactly what the abort marker would have done.
                before = shard.transaction_number
                try:
                    shard.execute(command_from_dict(entry["c"]))
                except ReproError:
                    continue
                if shard.transaction_number == before:
                    continue
            counters[index] += 1
            self._txn = int(entry["t"])
            if entry["k"] == "define":
                self._owner[entry["i"]] = index
            else:
                self._mods.setdefault(entry["i"], []).append(
                    int(entry["t"])
                )
        # a fresh checkpoint compacts the replayed tail away
        self.meta_checkpoint()
        return self

    # -- properties -------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> tuple[DurableDatabase, ...]:
        return tuple(self._shards)

    @property
    def transaction_number(self) -> TransactionNumber:
        """The *global* transaction counter — what the unsharded
        database's transaction number would be after the same sentence."""
        return self._txn

    @property
    def partitioner(self) -> Partitioner:
        return self._partitioner

    @property
    def journal(self) -> Optional[CoordinatorJournal]:
        """The coordinator's metadata journal (None when the instance is
        purely in-memory with no explicit ``meta_store``)."""
        return self._journal

    @property
    def identifiers(self) -> tuple[str, ...]:
        """Every defined identifier, sorted for determinism."""
        return tuple(sorted(self._owner))

    def shard_of(self, identifier: str) -> int:
        """The shard that owns (or would initially receive) an
        identifier."""
        return self._owner_for_read(identifier)

    def _owner_for_read(self, identifier: str) -> int:
        owner = self._owner.get(identifier)
        if owner is not None:
            return owner
        return self._partitioner.shard_for(identifier, len(self._shards))

    def owner_relation(self, identifier: str) -> Optional[Relation]:
        """The owning shard's (shard-local) relation, or None when the
        identifier is unbound."""
        owner = self._owner.get(identifier)
        if owner is None:
            return None
        return self._shards[owner].database.lookup(identifier)

    # -- numeral translation ----------------------------------------------

    def localize_numeral(
        self, identifier: str, numeral: Numeral
    ) -> Numeral:
        """The owner-shard-local numeral selecting the same state the
        global ``numeral`` selects in the unsharded semantics.

        Only meaningful for the append-only types; for everything else
        (unbound identifiers, snapshot/historical relations) the numeral
        is returned unchanged so the shard raises the exact error the
        unsharded evaluator would."""
        if is_now(numeral):
            return numeral
        relation = self.owner_relation(identifier)
        if relation is None or not relation.rtype.keeps_history:
            return numeral
        mods = self._mods.get(identifier, [])
        if len(mods) != relation.history_length:
            raise ShardingError(
                f"coordinator metadata for {identifier!r} records "
                f"{len(mods)} modifies but shard {self._owner[identifier]} "
                f"holds {relation.history_length} states"
            )
        position = bisect_right(mods, numeral)
        if position == 0:
            # no state had committed yet at the global time ``numeral``;
            # local numeral 0 makes the shard's FINDSTATE return ∅ too
            return 0
        return relation.rstate[position - 1][1]

    # -- command execution ------------------------------------------------

    def execute(self, command: Command) -> TransactionNumber:
        """Apply one command (or sentence) with the paper's semantics;
        returns the new global transaction number.

        Sequences are flattened at the coordinator — sequencing is
        associative, and flat execution lets each shard WAL record name
        a single identifier."""
        if self._closed:
            raise ShardingError(
                "cannot execute a command on a closed ShardedDatabase"
            )
        if self._journal is not None and self._journal.due():
            # only ever between commands — a checkpoint must not split a
            # journal record from its shard effect
            self.meta_checkpoint()
        for flat in self._flatten(command):
            self._execute_one(flat)
        return self._txn

    def execute_all(self, commands: Iterable[Command]) -> TransactionNumber:
        for command in commands:
            self.execute(command)
        return self._txn

    @staticmethod
    def _flatten(command: Command) -> list[Command]:
        flat: list[Command] = []
        stack = [command]
        while stack:
            node = stack.pop()
            if isinstance(node, CommandSequence):
                stack.append(node.second)
                stack.append(node.first)
            else:
                flat.append(node)
        return flat

    def _execute_one(self, command: Command) -> None:
        if isinstance(command, DefineRelation):
            self._execute_define(command)
        elif isinstance(command, ModifyState):
            self._execute_modify(command)
        else:
            raise ShardingError(
                f"cannot route command {command!r} to a shard"
            )

    def _journal_execute(
        self,
        shard_index: int,
        kind: str,
        identifier: str,
        shipped: Command,
    ) -> bool:
        """Run ``shipped`` on a shard under the journal's write-ahead
        discipline: record first, execute second, and cancel the record
        with an abort marker when the shard refuses the command or the
        paper's semantics made it a no-op.  Returns True when the shard
        advanced — the command was effective and the coordinator may
        commit its metadata."""
        shard = self._shards[shard_index]
        journal = self._journal
        txn = self._txn + 1
        before = shard.transaction_number
        if journal is not None:
            journal.record(shard_index, kind, identifier, shipped, txn)
        try:
            shard.execute(shipped)
        except BaseException as error:
            if isinstance(error, StorageError) and not hasattr(
                error, "shard_index"
            ):
                # name the dying shard for the cluster layer's
                # degraded-mode handler (a journal-store failure
                # deliberately carries no index)
                error.shard_index = shard_index
            if journal is not None:
                journal.abort(txn)
            raise
        if shard.transaction_number == before:
            if journal is not None:
                journal.abort(txn)
            return False
        return True

    def _execute_define(self, command: DefineRelation) -> None:
        owner = self._owner.get(command.identifier)
        if owner is not None:
            # already bound: the paper's no-op (or a strict-mode raise)
            # — either way the database is unchanged, so don't journal
            try:
                self._shards[owner].execute(command)
            except StorageError as error:
                if not hasattr(error, "shard_index"):
                    error.shard_index = owner
                raise
            if _obsv.enabled():
                _obsv.get().counter("shard.commands_noop").inc()
            return
        owner = self._partitioner.shard_for(
            command.identifier, len(self._shards)
        )
        applied = self._journal_execute(
            owner, "define", command.identifier, command
        )
        if not applied:
            if _obsv.enabled():
                _obsv.get().counter("shard.commands_noop").inc()
            return
        self._owner[command.identifier] = owner
        self._txn += 1
        if _obsv.enabled():
            _obsv.get().counter("shard.commands_routed").inc()

    def _execute_modify(self, command: ModifyState) -> None:
        owner = self._owner.get(command.identifier)
        bound = (
            owner is not None
            and self._shards[owner].database.state.is_bound(
                command.identifier
            )
        )
        if not bound:
            # the paper's exact no-op: an unbound identifier leaves the
            # database unchanged *without evaluating the expression*
            if command.strict:
                raise CommandError(
                    f"modify_state: {command.identifier!r} is not defined"
                )
            if _obsv.enabled():
                _obsv.get().counter("shard.commands_noop").inc()
            return
        touched = self._router.shards_of(command.expression)
        if touched <= {owner}:
            # every rollback leaf lives on the owner: ship the whole
            # command (numerals localized) and let the shard evaluate,
            # log, and apply it
            shipped = ModifyState(
                command.identifier,
                self._router.localize(command.expression, owner),
                strict=command.strict,
                memoize=command.memoize,
            )
            applied = self._journal_execute(
                owner, "modify", command.identifier, shipped
            )
            if _obsv.enabled():
                _obsv.get().counter("shard.commands_routed").inc()
        else:
            # cross-shard expression: scatter-gather the value at the
            # coordinator, then ship it as a constant state
            relation = self._shards[owner].database.require(
                command.identifier
            )
            state = command._resolve_empty_set(
                relation,
                relation.rtype,
                self._router.evaluate(command.expression),
            )
            applied = self._journal_execute(
                owner,
                "modify",
                command.identifier,
                ModifyState(
                    command.identifier,
                    Const(state),
                    strict=command.strict,
                ),
            )
            if _obsv.enabled():
                _obsv.get().counter("shard.commands_coordinated").inc()
        if not applied:
            return
        self._txn += 1
        self._mods.setdefault(command.identifier, []).append(self._txn)

    # -- read path --------------------------------------------------------

    def evaluate(self, expression):
        """Evaluate a side-effect-free expression or compiled plan, each
        ``ρ`` leaf answered by its owning shard — observationally equal
        to evaluating it on the unsharded database."""
        return self._router.evaluate(expression)

    def state_at(self, identifier: str, txn: TransactionNumber):
        """``FINDSTATE`` at a *global* transaction number; None when the
        identifier is unbound, ∅ when no state qualifies."""
        relation = self.as_database().lookup(identifier)
        return None if relation is None else relation.find_state(txn)

    def as_database(self) -> Database:
        """The global :class:`~repro.core.database.Database` value — the
        same value the unsharded execution of the sentence produces.

        The coordinator keeps the last value it assembled and, per
        identifier, the shard relation and modify count it came from.  A
        call compares those by identity, O(identifiers), and folds only
        the relations that moved (:meth:`_assemble`) into the kept value
        with :meth:`~repro.core.database.Database.with_binding` — so a
        write that keeps a relation's type and scheme hands the catalog
        token on, by the rule a single node uses, and an unchanged
        coordinator returns the identical value."""
        database, parts = self._global
        parts = dict(parts)
        for identifier, owner in self._owner.items():
            relation = self._shards[owner].database.lookup(identifier)
            count = len(self._mods.get(identifier, ()))
            part = parts.get(identifier)
            if part is not None and part[0] is relation and part[1] == count:
                continue
            assembled = None  # a relation lost on its shard stays unbound
            if relation is not None:
                assembled = self._assemble(identifier, relation, part)
                database = database.with_binding(
                    identifier, assembled, self._txn
                )
            parts[identifier] = (relation, count, assembled)
        # every effective command moves a shard relation, so the value
        # is re-stamped with the counter whenever the counter moved
        self._global = (database, parts)
        return database

    #: The global value, kept between accesses.
    database = property(as_database)

    def _assemble(
        self, identifier: str, relation: Relation, part: Optional[tuple]
    ) -> Relation:
        """``identifier``'s global relation: its shard relation's states
        stamped with their global transaction numbers.

        When the shard only appended to the relation ``part`` was
        assembled from — the element that one ends on is, by identity,
        still in place — the kept relation is extended by the new
        elements alone (:meth:`~repro.core.relation.Relation.with_new_state`
        checks only those).  Anything else (a rebalance move, a
        failover's replacement shard, a define) goes through the
        validating constructor."""
        mods = self._mods.get(identifier, [])
        states = relation.rstate
        if not relation.rtype.keeps_history:
            # replace types hold only the latest state, bound to the
            # global time of the last modify — as the unsharded one does
            rstate = ((states[-1][0], mods[-1]),) if mods else ()
            return Relation(relation.rtype, rstate)
        if len(mods) != len(states):
            raise ShardingError(
                f"coordinator metadata for {identifier!r} records "
                f"{len(mods)} modifies but shard "
                f"{self._owner[identifier]} holds {len(states)} states"
            )
        previous, count, assembled = part or (None, 0, None)
        if previous is None or (
            count and states[count - 1] is not previous.rstate[-1]
        ):
            return Relation(
                relation.rtype,
                ((entry[0], txn) for entry, txn in zip(states, mods)),
            )
        for position in range(count, len(states)):
            assembled = assembled.with_new_state(
                states[position][0], mods[position]
            )
        return assembled

    # -- rebalancing ------------------------------------------------------

    def add_shard(self, store: Optional[FileStore] = None) -> int:
        """Open one more (empty) shard and return its index.  Existing
        identifiers stay put until :meth:`rebalance`; new identifiers
        spread over the enlarged shard set immediately."""
        index = len(self._shards)
        self._shards.append(self._open_shard(index, store))
        self.meta_checkpoint()
        return index

    def replace_shard(
        self, index: int, replacement: DurableDatabase
    ) -> DurableDatabase:
        """Swap shard ``index``'s durable database for an equivalent one
        and return the old one (not closed — the caller decides its
        fate).  This is the failover seam: a promoted replica whose
        replay reached the primary's exact state takes the primary's
        place, and the coordinator's metadata (owner map, ``_mods``, the
        global counter) — which never mentioned the old object — keeps
        answering ``ρ(I, N)`` unchanged.

        The replacement must hold the *identical* database value
        (transaction number and all bound relations); anything else
        would silently fork history and is refused."""
        if not 0 <= index < len(self._shards):
            raise ShardingError(
                f"replace_shard: no shard {index} "
                f"(have {len(self._shards)})"
            )
        current = self._shards[index]
        if replacement.database != current.database:
            raise ShardingError(
                f"replace_shard({index}): the replacement's database "
                f"diverges from the shard's (replacement txn "
                f"{replacement.transaction_number}, shard txn "
                f"{current.transaction_number}); refusing to fork "
                "history"
            )
        self._shards[index] = replacement
        self.meta_checkpoint()
        return current

    def rebalance(
        self, partitioner: Optional[Partitioner] = None
    ) -> RebalanceReport:
        """Move every identifier whose partitioner-preferred shard
        differs from its current owner.

        Each move prefers replaying the source shard's command WAL
        (filtered to the moved identifier) into the target — the same
        command-replay discipline recovery uses — and falls back to
        copying the state sequence when the log was compacted or the
        identifier's commands read other relations.  The owner map flips
        only after the target provably holds the identical state
        sequence."""
        if partitioner is not None:
            self._partitioner = partitioner
        # bracket the moves with checkpoints: the surplus copies a move
        # writes onto shards are not journaled, so an empty journal on
        # both sides keeps replay from ever re-counting them
        self.meta_checkpoint()
        report = RebalanceReport()
        started = time.monotonic()
        for identifier in self.identifiers:
            source = self._owner[identifier]
            target = self._partitioner.shard_for(
                identifier, len(self._shards)
            )
            if target == source:
                continue
            self._move(identifier, source, target, report)
        if _obsv.enabled():
            registry = _obsv.get()
            registry.counter("shard.rebalances").inc()
            registry.counter("shard.moves_wal_replayed").inc(
                report.wal_replayed
            )
            registry.counter("shard.moves_state_copied").inc(
                report.state_copied
            )
            registry.counter("shard.moves_stale_repaired").inc(
                report.stale_repaired
            )
            registry.histogram("shard.rebalance_seconds").observe(
                time.monotonic() - started
            )
        self.meta_checkpoint()
        return report

    def _move(
        self,
        identifier: str,
        source_index: int,
        target_index: int,
        report: RebalanceReport,
    ) -> None:
        source = self._shards[source_index]
        target = self._shards[target_index]
        relation = source.database.lookup(identifier)
        if relation is None:
            # defined on paper but lost on the shard would be a bug
            # elsewhere; ownership itself is free to move
            self._owner[identifier] = target_index
            report.moved += 1
            return
        if target.database.state.is_bound(identifier):
            # a stale copy from an earlier move occupies the target
            # (there is no unbind command).  Skipping here would leave
            # ownership at the source, and every later rebalance under
            # the same partitioner would re-pick this target and re-skip
            # — a permanent livelock.  Instead the copy is validated
            # against the source: a copy that stopped receiving modifies
            # when ownership moved away is a prefix of the owner's state
            # sequence, so replaying only the missing suffix reconverges
            # it; anything else has diverged and is refused loudly.
            self._repair_stale_copy(
                identifier, target_index, relation, target
            )
            report.stale_repaired += 1
        else:
            commands = self._replayable_commands(
                source, identifier, relation
            )
            if commands is not None:
                for command in commands:
                    target.execute(command)
                report.wal_replayed += 1
            else:
                target.execute(
                    DefineRelation(identifier, relation.rtype)
                )
                for state, _ in relation.rstate:
                    target.execute(
                        ModifyState(identifier, Const(state))
                    )
                report.state_copied += 1
        moved = target.database.require(identifier)
        if moved.rtype != relation.rtype or [
            entry[0] for entry in moved.rstate
        ] != [entry[0] for entry in relation.rstate]:
            raise ShardingError(
                f"moving {identifier!r} from shard {source_index} to "
                f"{target_index} rebuilt a diverging state sequence"
            )
        self._owner[identifier] = target_index
        report.moved += 1

    def _repair_stale_copy(
        self,
        identifier: str,
        target_index: int,
        relation: Relation,
        target: DurableDatabase,
    ) -> None:
        """Reconverge a stale copy on the move target with the owner's
        authoritative state sequence (see :meth:`_move`).  Raises
        :class:`ShardingError` when the copy is not a strict prefix —
        a diverged copy must never be silently overwritten."""
        stale = target.database.require(identifier)
        if stale.rtype != relation.rtype:
            raise ShardingError(
                f"stale copy of {identifier!r} on shard {target_index} "
                f"has type {stale.rtype!r} but the owner holds "
                f"{relation.rtype!r}; refusing to repair a diverged copy"
            )
        source_states = [entry[0] for entry in relation.rstate]
        stale_states = [entry[0] for entry in stale.rstate]
        if relation.rtype.keeps_history:
            if stale_states != source_states[: len(stale_states)]:
                raise ShardingError(
                    f"stale copy of {identifier!r} on shard "
                    f"{target_index} is not a prefix of the owner's "
                    f"state sequence; refusing to repair a diverged copy"
                )
            suffix = source_states[len(stale_states) :]
        elif stale_states != source_states:
            # replace types keep only the latest state: shipping the
            # owner's current state always reconverges the copy
            suffix = source_states
        else:
            suffix = []
        for state in suffix:
            target.execute(ModifyState(identifier, Const(state)))

    def _replayable_commands(
        self,
        source: DurableDatabase,
        identifier: str,
        relation: Relation,
    ) -> Optional[list[Command]]:
        """The source WAL's commands for one identifier, when replaying
        them on the (differently numbered) target provably rebuilds the
        same states; None forces the state-copy fallback.

        Replay is only transaction-offset-invariant when every command
        reads at most ``ρ(identifier, now)`` — a non-``now`` numeral or
        a foreign identifier binds to different states under the
        target's local counter.  A pure simulation from the empty
        database then predicts the target outcome exactly; any mismatch
        (or a compacted log) disqualifies the replay path."""
        wal = source.wal
        if wal.first_lsn > 1:
            return None  # compacted: the head of the history is gone
        commands: list[Command] = []
        try:
            for _, payload in wal.records():
                command, _ = decode_record(payload)
                for flat in self._flatten(command):
                    if isinstance(flat, DefineRelation):
                        if flat.identifier == identifier:
                            commands.append(flat)
                    elif isinstance(flat, ModifyState):
                        if flat.identifier != identifier:
                            continue
                        if not _only_now_and_self(
                            flat.expression, identifier
                        ):
                            return None
                        commands.append(flat)
                    else:
                        return None
        except Exception:
            return None
        simulated = EMPTY_DATABASE
        try:
            for command in commands:
                simulated = command.execute(simulated)
        except Exception:
            return None
        rebuilt = simulated.lookup(identifier)
        if rebuilt is None or [
            entry[0] for entry in rebuilt.rstate
        ] != [entry[0] for entry in relation.rstate]:
            return None
        return commands

    # -- durability control ----------------------------------------------

    def sync(self) -> None:
        for shard in self._shards:
            shard.sync()

    def checkpoint(self) -> None:
        for shard in self._shards:
            shard.checkpoint()

    def _meta_snapshot(self) -> dict:
        return {
            "txn": self._txn,
            "owner": dict(self._owner),
            "mods": {
                identifier: list(txns)
                for identifier, txns in self._mods.items()
            },
            "shards": len(self._shards),
            "shard_txns": [
                shard.transaction_number for shard in self._shards
            ],
        }

    def meta_checkpoint(self) -> None:
        """Publish the coordinator maps atomically and drop the covered
        journal segments.  Every shard is fsynced *first* so the
        checkpoint's ``shard_txns`` never claim durability the shards
        don't have — the invariant replay depends on.  If a shard's
        store is failing the checkpoint is skipped (the journal stays,
        which is always safe)."""
        if self._journal is None:
            return
        try:
            for shard in self._shards:
                shard.sync()
        except StorageError:
            return
        self._journal.checkpoint(self._meta_snapshot())

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        try:
            self.meta_checkpoint()
        except ReproError:
            pass  # a failing meta store must not block shard shutdown
        self._closed = True
        for shard in self._shards:
            try:
                shard.close()
            except StorageError:
                pass  # a write-dead store can't flush; don't block the rest

    def kill(self) -> None:
        """Simulate abrupt process death for crash testing: every shard
        and the coordinator journal drop their handles with buffers
        discarded — no checkpoint, no final sync.  Recover with
        :meth:`reopen` over the same stores."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.kill()
        if self._journal is not None:
            self._journal.store.crash()

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
