"""Crash recovery: the checkpoint's segment chain + deterministic replay.

The recovery invariant, which the fault-injection suite checks at every
transaction number against an in-memory oracle:

    the recovered database equals the database produced by executing
    some *prefix* of the committed command sequence from the empty
    database — at least the prefix covered by the last fsync (all of it
    under the ``always`` policy), and never anything else.

Recovery is three steps, all reusing existing machinery rather than a
parallel semantics:

1. load the newest checkpoint whose manifest and every segment it names
   validate (CRC; fall back to older manifests, then to the empty
   database), folding the segments' deltas in order —
   :mod:`repro.durability.checkpoint`;
2. replay the WAL tail past the checkpoint's LSN through
   :func:`repro.core.commands.execute`, the paper's own semantic
   function **C** (a torn final record was already truncated when the
   log was opened);
3. cross-check: after each replayed record the database's transaction
   number must equal the one the record committed with — a cheap
   divergence detector for log corruption that framing CRCs cannot see.

The result also carries a checkpoint writer seeded from the loaded
manifest, so the first checkpoint after a reopen writes only what was
appended since.
"""

from __future__ import annotations

import time
from typing import Optional, Union

from repro.errors import DivergenceError
from repro.core.commands import execute as execute_command
from repro.core.database import EMPTY_DATABASE, Database
from repro.durability.checkpoint import CheckpointWriter, load_checkpoint
from repro.durability.codec import decode_record
from repro.durability.files import FileStore
from repro.durability.wal import FsyncPolicy, WriteAheadLog
from repro.obsv import registry as _obsv

__all__ = ["RecoveryResult", "recover"]


class RecoveryResult:
    """What recovery produced and how much work it took."""

    __slots__ = (
        "database",
        "checkpoint_lsn",
        "replayed",
        "last_lsn",
        "seconds",
        "writer",
    )

    def __init__(
        self,
        database: Database,
        checkpoint_lsn: int,
        replayed: int,
        last_lsn: int,
        seconds: float,
        writer: CheckpointWriter,
    ) -> None:
        self.database = database
        self.checkpoint_lsn = checkpoint_lsn  # 0 = recovered from empty
        self.replayed = replayed  # WAL records re-executed
        self.last_lsn = last_lsn  # newest LSN the log retains
        self.seconds = seconds
        #: extends the loaded checkpoint's segment chain
        self.writer = writer

    def __repr__(self) -> str:
        return (
            f"RecoveryResult(txn={self.database.transaction_number}, "
            f"checkpoint_lsn={self.checkpoint_lsn}, "
            f"replayed={self.replayed})"
        )


def recover(
    store: FileStore,
    wal: Optional[WriteAheadLog] = None,
    policy: "Union[str, FsyncPolicy]" = "batch(64, 100)",
) -> RecoveryResult:
    """Rebuild the database from ``store``.

    Pass the already-opened ``wal`` when the caller keeps appending to
    the same log afterwards (the normal :class:`DurableDatabase` path);
    otherwise one is opened — which repairs any torn tail — and
    discarded.
    """
    start = time.perf_counter()
    if wal is None:
        wal = WriteAheadLog(store, policy=policy)
    checkpoint = load_checkpoint(store)
    if checkpoint is None:
        base_lsn, database, writer = 0, EMPTY_DATABASE, CheckpointWriter()
    else:
        base_lsn, database, writer = checkpoint
    replayed = 0
    for lsn, payload in wal.records(after_lsn=base_lsn):
        command, txn = decode_record(payload)
        database = execute_command(command, database)
        if database.transaction_number != txn:
            raise DivergenceError(
                f"WAL replay diverged at LSN {lsn}: record committed "
                f"txn {txn} but replay reached "
                f"{database.transaction_number}; the log and checkpoint "
                "disagree"
            )
        replayed += 1
    seconds = time.perf_counter() - start
    if _obsv.enabled():
        registry = _obsv.get()
        registry.counter("wal.recoveries").inc()
        registry.histogram("wal.recovery_replay_length").observe(replayed)
        registry.histogram("wal.recovery_seconds").observe(seconds)
    return RecoveryResult(
        database, base_lsn, replayed, wal.last_lsn, seconds, writer
    )
