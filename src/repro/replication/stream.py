"""The shipping surface between a primary and its replicas.

The paper defines a database as the cumulative result of a command
sentence evaluated from the empty database (Section 3.5), which makes
the primary's command WAL a *complete* replication stream: shipping the
commands — not states — and replaying them through the one semantic
function :func:`repro.core.commands.execute` reproduces the primary
exactly.  A :class:`ReplicationStream` is the narrow interface replicas
pull that stream through:

* :meth:`~ReplicationStream.fetch` — the next batch of CRC-verified
  ``(lsn, payload)`` records after a given LSN (backed by
  :meth:`repro.durability.wal.WriteAheadLog.read_from`);
* :meth:`~ReplicationStream.snapshot` — the primary's newest checkpoint,
  for replicas whose tail has been compacted away;
* :meth:`~ReplicationStream.first_lsn` / ``last_lsn`` — the retained
  range, which is how a replica distinguishes "nothing new yet" from
  "I have fallen off the log".

:class:`FaultyStream` decorates any stream with the scripted delivery
faults of a :class:`~repro.durability.faults.FaultPlan` — transient
fetch errors plus dropped/duplicated/reordered/truncated batches — so
the replica apply loop is chaos-tested end to end.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import CheckpointError, ReplicationError
from repro.core.database import Database
from repro.durability.checkpoint import latest_checkpoint
from repro.durability.durable import DurableDatabase
from repro.durability.faults import FaultPlan
from repro.obsv import registry as _obsv

__all__ = ["ReplicationStream", "PrimaryStream", "FaultyStream"]

#: Default records per fetch — small enough that a mangled delivery
#: loses little work, large enough to amortize the call overhead.
DEFAULT_BATCH_RECORDS = 256


class ReplicationStream:
    """What a replica needs from a primary, and nothing more."""

    def fetch(
        self, after_lsn: int, limit: int = DEFAULT_BATCH_RECORDS
    ) -> list[tuple[int, bytes]]:
        """Up to ``limit`` records with LSN > ``after_lsn``, in order.

        Raises :class:`~repro.errors.StreamGapError` with
        ``compacted=True`` when the records past ``after_lsn`` are no
        longer retained, and :class:`~repro.errors.ReplicationError`
        for transient transport failures.
        """
        raise NotImplementedError

    def snapshot(self) -> tuple[int, Database]:
        """The newest checkpoint ``(lsn, database)`` — guaranteed to
        cover every compacted record, so a replica restored from it can
        resume fetching at ``lsn + 1``."""
        raise NotImplementedError

    def first_lsn(self) -> int:
        """The oldest retained LSN (0 when the log holds no records)."""
        raise NotImplementedError

    def last_lsn(self) -> int:
        """The newest published LSN (what "caught up" means)."""
        raise NotImplementedError


class PrimaryStream(ReplicationStream):
    """A primary :class:`DurableDatabase` published as a stream.

    Fetches read the primary's own WAL through ``read_from`` — gap- and
    CRC-aware by construction.  Records are shipped as appended, not as
    fsynced: replication is asynchronous, and a replica may briefly know
    a suffix the primary's disk does not (the replica re-verifies
    against the stream after a primary restart via the usual gap
    machinery).
    """

    def __init__(self, primary: DurableDatabase) -> None:
        self._primary = primary

    @property
    def primary(self) -> DurableDatabase:
        return self._primary

    def fetch(
        self, after_lsn: int, limit: int = DEFAULT_BATCH_RECORDS
    ) -> list[tuple[int, bytes]]:
        batch = self._primary.wal.read_from(after_lsn + 1, limit=limit)
        if _obsv.enabled():
            registry = _obsv.get()
            registry.counter("repl.batches_fetched").inc()
            registry.histogram("repl.batch_records").observe(len(batch))
        return batch

    def snapshot(self) -> tuple[int, Database]:
        """The newest valid checkpoint, writing one first if none exists
        (or only damaged ones survive) so a fresh replica can always
        bootstrap."""
        found = latest_checkpoint(self._primary.store)
        if found is None:
            self._primary.checkpoint()
            found = latest_checkpoint(self._primary.store)
            if found is None:  # pragma: no cover - store must be dying
                raise CheckpointError(
                    "primary cannot publish a snapshot: checkpoint "
                    "write did not survive validation"
                )
        return found

    def first_lsn(self) -> int:
        return self._primary.wal.first_lsn

    def last_lsn(self) -> int:
        return self._primary.wal.last_lsn


class FaultyStream(ReplicationStream):
    """A stream decorated with a :class:`FaultPlan`'s delivery faults.

    Fetches roll for a transient error first (raising
    :class:`ReplicationError`), then pass the clean batch through
    :meth:`FaultPlan.mangle_batch`.  Snapshot and range probes are
    passed through untouched: the chaos suite targets the *record*
    path, and a mangled snapshot would be detected by its CRC envelope
    anyway.
    """

    def __init__(
        self, inner: ReplicationStream, plan: Optional[FaultPlan] = None
    ) -> None:
        self._inner = inner
        self._plan = plan

    @property
    def inner(self) -> ReplicationStream:
        return self._inner

    def fetch(
        self, after_lsn: int, limit: int = DEFAULT_BATCH_RECORDS
    ) -> list[tuple[int, bytes]]:
        plan = self._plan
        if plan is not None and plan.stream_error_due():
            raise ReplicationError(
                "injected transient stream error (FaultPlan)"
            )
        batch = self._inner.fetch(after_lsn, limit)
        if plan is not None:
            batch = plan.mangle_batch(batch)
        return batch

    def snapshot(self) -> tuple[int, Database]:
        return self._inner.snapshot()

    def first_lsn(self) -> int:
        return self._inner.first_lsn()

    def last_lsn(self) -> int:
        return self._inner.last_lsn()
