"""Failover: promoting a replica to a standalone primary.

Promotion is deliberately small because the invariants were maintained
all along: a replica's own WAL *is* the primary's history up to its
applied LSN (the LSN spaces coincide by construction, and re-snapshots
rebase exactly like crash recovery does when a checkpoint outlives the
log).  Detaching therefore needs no log surgery — the replica's
:class:`~repro.durability.durable.DurableDatabase` simply stops being
fed shipped records and starts accepting commands of its own, with the
next LSN being ``applied_lsn + 1``.  No LSN is ever reused, so a
surviving old primary and the promoted one can be mechanically compared
record by record up to the promotion point.
"""

from __future__ import annotations

from repro.errors import DivergenceError, ReplicationError
from repro.durability.durable import DurableDatabase
from repro.obsv import registry as _obsv

__all__ = ["promote"]


def promote(replica, *, checkpoint: bool = True) -> DurableDatabase:
    """Turn ``replica`` into a standalone primary and return its
    (now authoritative) :class:`DurableDatabase`.

    The replica must not have diverged — promoting a diverged replay
    would fork history.  After promotion the replica object refuses
    further stream applies; its read methods keep working, now serving
    the promoted primary directly.  With ``checkpoint=True`` (the
    default) a checkpoint is written at the promotion LSN, so the new
    primary's identity survives even an immediate crash under a lazy
    fsync policy.

    Promotion is atomic with respect to the checkpoint: the checkpoint
    is written *before* the replica detaches, so a failing checkpoint
    (a dying store, an injected fault) leaves the replica attached and
    still following — the caller sees the error, retries or gives up,
    and no half-promoted orphan that refuses both applies and commands
    is ever created.
    """
    if replica.diverged:
        raise DivergenceError(
            "refusing to promote a diverged replica: its history "
            "contradicts the primary's"
        )
    if replica.promoted:
        raise ReplicationError("replica is already promoted")
    if checkpoint:
        # raises -> the replica is still a follower, nothing changed
        replica.durable.checkpoint()
    durable = replica._detach()
    if _obsv.enabled():
        _obsv.get().counter("repl.promotions").inc()
    return durable
