"""Fault-tolerant read replicas over the shipped command log.

A :class:`Replica` consumes a :class:`~repro.replication.stream.ReplicationStream`
into its *own* :class:`~repro.durability.durable.DurableDatabase` (and,
optionally, its own :class:`~repro.storage.versioned_db.VersionedDatabase`
mirror): every shipped record is decoded with the command codec and
re-executed through :func:`repro.core.commands.execute`, so the replica
is the primary's equal by the paper's own definition of a database —
the cumulative result of the same command sentence.

Robustness is the design center:

* **Retry/backoff** — every fetch/apply round runs under a
  :class:`~repro.replication.retry.RetryPolicy`; transient stream
  errors, dropped batches and in-delivery reorders surface as
  :class:`~repro.errors.ReplicationError`/:class:`~repro.errors.StreamGapError`
  and are retried with capped exponential backoff and jitter until the
  budget or deadline runs out.
* **Gap detection** — a record that is not exactly ``applied_lsn + 1``
  never executes.  Records at or below ``applied_lsn`` are duplicate
  deliveries and are skipped idempotently; records further ahead raise
  a gap.  An *authoritative* gap (``compacted=True`` — the primary no
  longer retains the tail) triggers a re-snapshot from the primary's
  newest checkpoint; a delivery gap is simply re-fetched.
* **Divergence detection** — after each applied record the replica's
  transaction number must equal the one the record committed with on
  the primary.  A mismatch marks the replica *condemned*
  (:class:`~repro.errors.DivergenceError`): it refuses further applies
  and reads until rebuilt, because a diverged replay can never rejoin
  the primary's history.
* **Bounded staleness** — with ``max_lag`` configured, reads check the
  primary's published tail first and either reject
  (:class:`~repro.errors.StaleReadError`) or knowingly serve stale,
  per ``on_stale``.
* **Promotion** — :meth:`Replica.promote` turns the replica into a
  standalone primary anchored at its last applied LSN; its WAL is
  already rebased exactly as crash recovery rebases a log that a
  checkpoint outlived, so new commands extend the LSN space with no
  reuse.
"""

from __future__ import annotations

import time
from typing import Optional, Union

from repro.errors import (
    DivergenceError,
    ReplicationError,
    StaleReadError,
    StorageError,
    StreamGapError,
)
from repro.core.commands import Command
from repro.core.database import Database
from repro.core.expressions import Expression
from repro.core.txn import TransactionNumber
from repro.durability.checkpoint import write_checkpoint
from repro.durability.codec import decode_record
from repro.durability.durable import DurableDatabase
from repro.durability.faults import MemoryStore
from repro.durability.files import FileStore
from repro.durability.wal import FsyncPolicy
from repro.obsv import registry as _obsv
from repro.replication.retry import RetryPolicy
from repro.replication.stream import (
    DEFAULT_BATCH_RECORDS,
    ReplicationStream,
)

__all__ = ["Replica"]


class Replica:
    """A read replica applying a primary's shipped WAL.

    ``store`` is the replica's *own* durable store (a fresh in-memory
    one by default; pass a directory path via ``DurableDatabase``'s
    conventions for a disk-backed replica).  Re-opening a ``Replica``
    over a store that already holds a partial copy resumes from its
    durable prefix — a crashed replica simply re-fetches what it lost.
    """

    def __init__(
        self,
        stream: ReplicationStream,
        *,
        store: Optional[FileStore] = None,
        fsync: "Union[str, FsyncPolicy]" = "batch(64, 100)",
        checkpoint_every: int = 256,
        backend=None,
        retry: Optional[RetryPolicy] = None,
        max_lag: Optional[int] = None,
        on_stale: str = "reject",
        batch_records: int = DEFAULT_BATCH_RECORDS,
    ) -> None:
        if on_stale not in ("reject", "serve"):
            raise ReplicationError(
                f"on_stale must be 'reject' or 'serve', got {on_stale!r}"
            )
        if max_lag is not None and max_lag < 0:
            raise ReplicationError(
                f"max_lag must be ≥ 0 records, got {max_lag}"
            )
        if batch_records < 1:
            raise ReplicationError(
                f"batch_records must be ≥ 1, got {batch_records}"
            )
        self._stream = stream
        self._store = store if store is not None else MemoryStore()
        self._fsync = fsync
        self._checkpoint_every = checkpoint_every
        self._backend = backend
        self._retry = retry if retry is not None else RetryPolicy()
        self._max_lag = max_lag
        self._on_stale = on_stale
        self._batch_records = batch_records
        self._diverged = False
        self._promoted = False
        self._durable = DurableDatabase(
            self._store,
            fsync=fsync,
            checkpoint_every=checkpoint_every,
            backend=backend,
        )

    # -- introspection -----------------------------------------------------

    @property
    def database(self) -> Database:
        """The replica's current semantic database value."""
        return self._durable.database

    @property
    def durable(self) -> DurableDatabase:
        """The replica's own durable database."""
        return self._durable

    @property
    def stream(self) -> ReplicationStream:
        return self._stream

    @property
    def applied_lsn(self) -> int:
        """The newest primary LSN this replica has applied.  By
        construction it equals the replica's own WAL tail — the two LSN
        spaces are the same sequence of commands."""
        return self._durable.wal.last_lsn

    @property
    def transaction_number(self) -> TransactionNumber:
        return self._durable.transaction_number

    @property
    def diverged(self) -> bool:
        """True once replay has been caught contradicting the primary;
        a condemned replica refuses applies and reads."""
        return self._diverged

    @property
    def promoted(self) -> bool:
        """True once :meth:`promote` has detached this replica."""
        return self._promoted

    def lag(self) -> int:
        """How many records behind the primary's published tail this
        replica is (0 when caught up or ahead of a rebased primary)."""
        lag = max(0, self._stream.last_lsn() - self.applied_lsn)
        if _obsv.enabled():
            _obsv.get().histogram("repl.lag_records").observe(lag)
        return lag

    def caught_up(self) -> bool:
        return self.lag() == 0

    # -- the apply loop ----------------------------------------------------

    def poll(self) -> int:
        """One guarded fetch+apply round under the retry policy;
        returns the number of records applied (0 when caught up)."""
        self._check_live()
        target = self._stream.last_lsn()
        if self.applied_lsn >= target:
            return 0
        return self._retry.run(
            lambda: self._sync_round(target),
            no_retry_on=(DivergenceError,),
            describe="replica apply round",
        )

    def catch_up(self) -> int:
        """Apply rounds until the replica reaches the primary's
        published tail; returns the total records applied.  Each round
        runs under the retry policy, so a flaky stream costs backoff,
        not correctness; exhaustion raises
        :class:`~repro.errors.RetryExhaustedError`."""
        self._check_live()
        start = time.perf_counter()
        total = 0
        while True:
            target = self._stream.last_lsn()
            if self.applied_lsn >= target:
                break
            total += self._retry.run(
                lambda: self._sync_round(target),
                no_retry_on=(DivergenceError,),
                describe="replica catch-up round",
            )
        if _obsv.enabled():
            _obsv.get().histogram("repl.catchup_seconds").observe(
                time.perf_counter() - start
            )
        return total

    def _sync_round(self, target: int) -> int:
        """Fetch once and apply what arrived.  Raises
        :class:`ReplicationError` on zero progress while behind (a
        dropped delivery — the retry policy turns it into backoff), and
        handles an authoritative gap by re-snapshotting."""
        try:
            batch = self._stream.fetch(
                self.applied_lsn, self._batch_records
            )
        except StreamGapError as gap:
            if _obsv.enabled():
                _obsv.get().counter("repl.gaps_detected").inc()
            if gap.compacted:
                self._resnapshot()
                return 0
            raise
        applied = self._apply_batch(batch)
        if applied == 0 and self.applied_lsn < target:
            raise ReplicationError(
                "no progress: delivery was empty or all-duplicate while "
                f"{target - self.applied_lsn} record(s) behind"
            )
        return applied

    def _apply_batch(self, batch: list[tuple[int, bytes]]) -> int:
        start = time.perf_counter()
        applied = 0
        try:
            for lsn, payload in batch:
                last = self.applied_lsn
                if lsn <= last:
                    # duplicate delivery: the record is already part of
                    # the replica's history — skipping is idempotence
                    if _obsv.enabled():
                        _obsv.get().counter("repl.duplicates_skipped").inc()
                    continue
                if lsn != last + 1:
                    if _obsv.enabled():
                        _obsv.get().counter("repl.gaps_detected").inc()
                    raise StreamGapError(
                        f"delivery skipped LSNs {last + 1}..{lsn - 1}; "
                        "re-fetching",
                        expected=last + 1,
                        got=lsn,
                    )
                try:
                    command, txn = decode_record(payload)
                except StorageError as error:
                    raise ReplicationError(
                        f"undecodable shipped record at LSN {lsn}: "
                        f"{error}"
                    ) from error
                database = self._durable.execute(command)
                if database.transaction_number != txn:
                    self._diverged = True
                    if _obsv.enabled():
                        _obsv.get().counter("repl.divergences_detected").inc()
                    raise DivergenceError(
                        f"replica diverged at LSN {lsn}: the record "
                        f"committed transaction {txn} on the primary "
                        f"but replay reached "
                        f"{database.transaction_number}"
                    )
                applied += 1
        finally:
            if _obsv.enabled():
                registry = _obsv.get()
                registry.counter("repl.records_applied").inc(applied)
                registry.histogram("repl.apply_seconds").observe(
                    time.perf_counter() - start
                )
        return applied

    # -- re-snapshotting ---------------------------------------------------

    def _resnapshot(self) -> None:
        """Rebuild from the primary's newest checkpoint — the escape
        hatch when the tail this replica still needs has been compacted
        away.

        The checkpoint is written into the replica's own store and the
        stale WAL segments dropped; re-opening then recovers from it
        and *rebases* the replica's WAL to the checkpoint LSN (the
        checkpoint-outlived-the-log path recovery already handles), so
        the next applied record lands at exactly the right LSN.
        """
        lsn, database = self._stream.snapshot()
        backend = None
        if self._durable.versioned is not None:
            backend = self._durable.versioned.backend
        self._durable.close()
        for name in self._store.list():
            self._store.delete(name)
        write_checkpoint(self._store, database, lsn)
        self._durable = DurableDatabase(
            self._store,
            fsync=self._fsync,
            checkpoint_every=self._checkpoint_every,
            backend=backend if backend is not None else self._backend,
        )
        if _obsv.enabled():
            _obsv.get().counter("repl.resnapshots").inc()

    def resync(
        self, stream: Optional[ReplicationStream] = None
    ) -> None:
        """Rebuild a *condemned* (diverged) replica from the primary's
        newest checkpoint and put it back in service — the health
        supervisor's quarantine-and-repair path.  Divergence means the
        replica's replayed history contradicts the primary's, so no
        suffix replay can ever rejoin it; the only honest repair is the
        same full re-snapshot an authoritative gap triggers.  Pass
        ``stream`` to re-home onto a replacement stream in the same
        step: a replica condemned *before* a failover still points at
        the dead primary's stream (``refollow`` refuses diverged
        replicas), so its repair must snapshot from the promoted
        successor instead.  Promoted replicas are refused: they *are*
        a primary now."""
        if self._promoted:
            raise ReplicationError(
                "cannot resync a promoted replica; it no longer "
                "follows the stream"
            )
        if stream is not None:
            self._stream = stream
        self._resnapshot()
        self._diverged = False

    # -- read path ---------------------------------------------------------

    def execute(self, command: Command):
        """Refuse: a replica applies only what its primary ships."""
        raise ReplicationError(
            "this session is a read-only replica "
            "(replica_of=...): commands belong on the primary; "
            "promote() turns it into a writable primary"
        )

    def evaluate(self, expression: Expression):
        """Evaluate a side-effect-free expression against the replica
        (``ρ(R, N)`` answers for any N ≤ the applied transaction number
        exactly as the primary would), enforcing the staleness bound."""
        self._check_readable()
        return self._durable.evaluate(expression)

    def state_at(self, identifier: str, txn: TransactionNumber):
        """``FINDSTATE`` against the replica, staleness-guarded."""
        self._check_readable()
        return self._durable.state_at(identifier, txn)

    # -- failover ----------------------------------------------------------

    def promote(self, *, checkpoint: bool = True) -> DurableDatabase:
        """Promote to a standalone primary; see
        :func:`repro.replication.promote.promote`."""
        from repro.replication.promote import promote as _promote

        return _promote(self, checkpoint=checkpoint)

    def _detach(self) -> DurableDatabase:
        """Stop following the stream (promotion internals)."""
        self._promoted = True
        return self._durable

    def refollow(self, stream: ReplicationStream) -> None:
        """Point this replica at a replacement stream publishing the
        *same* LSN space — the post-failover re-homing step.  A promoted
        primary continues its predecessor's LSN sequence (no LSN is ever
        reused), so a sibling replica keeps its durable prefix and
        simply resumes fetching from the new stream; gap and divergence
        detection guard the seam exactly as they guard any delivery."""
        if self._promoted:
            raise ReplicationError(
                "cannot refollow: this replica was promoted and no "
                "longer applies shipped records"
            )
        if self._diverged:
            raise DivergenceError(
                "cannot refollow: this replica has diverged and must "
                "be rebuilt"
            )
        self._stream = stream

    def close(self) -> None:
        self._durable.close()

    def kill(self) -> None:
        """Crash-test hook: drop handles without flushing (see
        :meth:`DurableDatabase.kill`)."""
        self._durable.kill()

    def __enter__(self) -> "Replica":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- guards ------------------------------------------------------------

    def _check_live(self) -> None:
        if self._promoted:
            raise ReplicationError(
                "this replica was promoted; it no longer follows the "
                "stream"
            )
        if self._diverged:
            raise DivergenceError(
                "this replica has diverged from the primary and must "
                "be rebuilt"
            )

    def _check_readable(self) -> None:
        if self._diverged:
            raise DivergenceError(
                "refusing to serve reads from a diverged replica"
            )
        if self._promoted or self._max_lag is None:
            return
        lag = self.lag()
        if lag > self._max_lag:
            if self._on_stale == "reject":
                if _obsv.enabled():
                    _obsv.get().counter("repl.stale_reads_rejected").inc()
                raise StaleReadError(
                    f"replica is {lag} records behind the primary, "
                    f"over the configured max_lag={self._max_lag}",
                    lag=lag,
                    max_lag=self._max_lag,
                )
            if _obsv.enabled():
                _obsv.get().counter("repl.stale_reads_served").inc()

    def __repr__(self) -> str:
        status = (
            "promoted"
            if self._promoted
            else "diverged"
            if self._diverged
            else "following"
        )
        return (
            f"Replica(applied_lsn={self.applied_lsn}, "
            f"txn={self.transaction_number}, {status})"
        )
