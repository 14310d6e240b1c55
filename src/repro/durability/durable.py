"""`DurableDatabase` — the paper's command semantics behind a WAL.

The wrapper owns three things:

* the current semantic :class:`~repro.core.database.Database` value,
  always the result of replaying the logged command sequence from the
  empty database (Section 3.5's definition of a database);
* a :class:`~repro.durability.wal.WriteAheadLog` that every command is
  appended to *before* the in-memory value advances (write-ahead), plus
  periodic checkpoints and log compaction.  A checkpoint seals only the
  states appended since the previous one into a new segment of the
  chain :mod:`repro.durability.checkpoint` describes, so its cost is
  what changed, not the depth of history;
* optionally, a physical :class:`~repro.storage.versioned_db.VersionedDatabase`
  mirror over any :class:`~repro.storage.backend.StorageBackend`, kept
  in lock-step so reads can be served from a physical representation
  while durability stays at the command layer.

Opening a :class:`DurableDatabase` *is* recovery: the constructor
repairs the log, loads the newest valid checkpoint chain, replays the
tail through :func:`repro.core.commands.execute`, resumes the chain's
writer, and (when a backend mirror is attached) rebuilds the backend
from the recovered value.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Union

from repro.errors import CheckpointError, StorageError
from repro.core.commands import Command, execute as execute_command
from repro.core.database import Database
from repro.core.expressions import Expression
from repro.core.relation import EMPTY_STATE
from repro.core.txn import TransactionNumber
from repro.durability.checkpoint import drop_old_checkpoints
from repro.durability.codec import encode_record
from repro.durability.files import DirectoryStore, FileStore
from repro.durability.recovery import RecoveryResult, recover
from repro.durability.wal import FsyncPolicy, WriteAheadLog
from repro.obsv import registry as _obsv

__all__ = ["DurableDatabase"]


class DurableDatabase:
    """A durable cursor over the command semantics.

    >>> ddb = DurableDatabase("/tmp/payroll")             # doctest: +SKIP
    >>> ddb.execute(parse_command("define_relation(r, rollback)"))
    ...                                                   # doctest: +SKIP

    ``store`` may be a directory path (a :class:`DirectoryStore` is
    created) or any :class:`FileStore` — the fault-injection suite
    passes a :class:`~repro.durability.faults.MemoryStore`.
    ``keep_checkpoints`` counts segment chains: a checkpoint keeps the
    newest manifest of each of the newest ``keep_checkpoints`` chains,
    and no two kept manifests share a file.
    """

    def __init__(
        self,
        store: "Union[str, os.PathLike[str], FileStore]",
        *,
        fsync: "Union[str, FsyncPolicy]" = "batch(64, 100)",
        checkpoint_every: int = 256,
        keep_checkpoints: int = 2,
        segment_bytes: int = 1 << 20,
        backend=None,
    ) -> None:
        if not isinstance(store, FileStore):
            store = DirectoryStore(store)
        if checkpoint_every < 0:
            raise CheckpointError(
                f"checkpoint_every must be ≥ 0 (0 disables automatic "
                f"checkpoints), got {checkpoint_every}"
            )
        self._closed = False
        self._store = store
        self._wal = WriteAheadLog(
            store, policy=fsync, segment_bytes=segment_bytes
        )
        self._checkpoint_every = checkpoint_every
        self._keep_checkpoints = keep_checkpoints
        result = recover(store, wal=self._wal)
        if result.checkpoint_lsn > self._wal.last_lsn:
            # the checkpoint outlived the log (e.g. a lying fsync lost
            # every segment): jump the LSN space past the covered range
            # so new records stay visible to future recoveries
            self._wal.rebase(result.checkpoint_lsn)
        self._database = result.database
        self._last_recovery = result
        self._since_checkpoint = result.replayed
        self._checkpoints = result.writer
        self._versioned = None
        if backend is not None:
            from repro.storage.versioned_db import VersionedDatabase

            self._versioned = VersionedDatabase(backend)
            self._versioned.restore(self._database)

    # -- properties -------------------------------------------------------

    @property
    def database(self) -> Database:
        """The current semantic database value."""
        return self._database

    @property
    def transaction_number(self) -> TransactionNumber:
        return self._database.transaction_number

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    @property
    def store(self) -> FileStore:
        return self._store

    @property
    def versioned(self):
        """The physical mirror (a ``VersionedDatabase``), or None."""
        return self._versioned

    @property
    def last_recovery(self) -> RecoveryResult:
        """What the opening recovery did (checkpoint LSN, replay length)."""
        return self._last_recovery

    # -- command execution ------------------------------------------------

    def execute(self, command: Command) -> Database:
        """Log, then apply, one command; returns the new database.

        The expression is evaluated *first* (commands whose expressions
        are invalid raise before anything reaches the log), the record
        is appended (and fsynced per policy), and only then does the
        in-memory value — the acknowledged state — advance.
        """
        if self._closed:
            raise StorageError(
                "cannot execute a command on a closed DurableDatabase"
            )
        new_database = execute_command(command, self._database)
        self._wal.append(
            encode_record(command, new_database.transaction_number)
        )
        self._database = new_database
        if self._versioned is not None:
            self._versioned.execute(command)
        if _obsv.enabled():
            _obsv.get().counter("wal.commands_executed").inc()
        self._since_checkpoint += 1
        if (
            self._checkpoint_every
            and self._since_checkpoint >= self._checkpoint_every
        ):
            self.checkpoint()
        return self._database

    def execute_all(self, commands: Iterable[Command]) -> Database:
        for command in commands:
            self.execute(command)
        return self._database

    # -- read path --------------------------------------------------------

    def evaluate(self, expression: Expression):
        """Evaluate a side-effect-free expression against the current
        database (served from the physical mirror when one is attached)."""
        if self._versioned is not None:
            return self._versioned.evaluate(expression)
        return expression.evaluate(self._database)

    def state_at(self, identifier: str, txn: TransactionNumber):
        """``FINDSTATE`` against the durable value; None when the
        identifier is unbound, ∅ when no state qualifies."""
        relation = self._database.lookup(identifier)
        if relation is None:
            return None
        state = relation.find_state(txn)
        return state if state is not EMPTY_STATE else EMPTY_STATE

    # -- durability control ----------------------------------------------

    def sync(self) -> None:
        """Force-fsync the log regardless of policy."""
        self._wal.sync()

    def checkpoint(self) -> None:
        """Sync the log, seal what changed into a segment and publish
        its manifest, keep the newest manifest of each of the newest
        ``keep_checkpoints`` chains (dropping every other manifest and
        segment), and compact fully-covered WAL segments."""
        self._wal.sync()
        self._checkpoints.write(
            self._store, self._database, self._wal.last_lsn
        )
        kept = drop_old_checkpoints(
            self._store, keep=self._keep_checkpoints
        )
        # compact only through the *oldest* kept manifest: if a file of
        # a newer chain is later found damaged, recovery falls back to
        # an older chain and still finds every record it must replay.
        # Until ``keep`` chains exist the oldest fallback is ∅.
        if len(kept) == self._keep_checkpoints:
            self._wal.drop_segments_through(min(kept))
        self._since_checkpoint = 0

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Sync and release file handles.  The database on disk is
        complete; a later :class:`DurableDatabase` over the same store
        recovers it exactly.

        Idempotent, and safe mid-batch: any records pending under a
        ``batch(N, ms)`` policy are fsynced exactly once by the first
        close; subsequent closes are no-ops (they must not touch the
        store again — the caller may have handed it to someone else,
        e.g. a replica re-opening it after a promote)."""
        if self._closed:
            return
        self._closed = True
        self._wal.sync()
        self._store.close()

    def kill(self) -> None:
        """Simulate abrupt process death for crash testing: no final
        sync, no checkpoint — cached store handles are dropped with
        their buffers discarded, leaving the backing exactly as a
        SIGKILL would.  The object is closed afterwards; recover with a
        fresh :class:`DurableDatabase` over the same store."""
        if self._closed:
            return
        self._closed = True
        self._store.crash()

    def __enter__(self) -> "DurableDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
