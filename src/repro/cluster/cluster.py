"""`Cluster` — sharded primaries × per-shard replica sets.

The paper's rollback relations are append-only version sequences
addressed by one global transaction number, and that is the whole
correctness contract here: ``ρ(I, N)`` must answer byte-identically
whether ``I`` lives on a single database or on a sharded, replicated
topology mid-failover.  The cluster composes the two existing layers
without duplicating either:

* **writes** go through a :class:`~repro.sharding.sharded.ShardedDatabase`
  of durable primaries — the coordinator keeps the global transaction
  counter, the owner map, and the per-identifier global modification
  times exactly as before;
* **each primary publishes its WAL** as a
  :class:`~repro.replication.stream.PrimaryStream` (or whatever the
  config's ``stream_factory`` wraps it in), and N
  :class:`~repro.replication.replica.Replica` followers per shard
  replay it — the replica's local transaction numbering coincides with
  its primary's by construction, so the coordinator's global→local
  numeral translation is valid on the replica too;
* **reads** run through a second
  :class:`~repro.sharding.router.ScatterGatherRouter` over the same
  metadata: each ``ρ`` leaf is answered on its shard by the node the
  read picked for that shard — a replica (round-robin over the live
  ones, once per shard per read) under the configured freshness
  contract, or the primary when a shard has no live replicas;
* **failover** promotes a caught-up replica through the replication
  layer's :func:`~repro.replication.promote.promote` and swaps it in as
  the shard's primary via
  :meth:`~repro.sharding.sharded.ShardedDatabase.replace_shard` — the
  coordinator metadata never named the old object, so every other shard
  (and every global answer) is undisturbed.  Sibling replicas re-home
  onto the promoted primary's stream; the LSN space is continuous
  across the seam, so their durable prefixes remain valid.
* **degraded mode** keeps a half-dead cluster honest: when a shard's
  primary store starts failing writes, the shard is *marked* and every
  write routed at it is shed with
  :class:`~repro.errors.ClusterDegradedError` instead of hanging or
  half-applying — while fan-out reads keep serving from the shard's
  replicas.  The health supervisor
  (:class:`~repro.cluster.supervisor.ClusterSupervisor`) clears the
  mark by failing the shard over; retrying clients then simply succeed.
* **restart recovery**: a directory-backed cluster persists its
  topology (which directory is each shard's *current* primary) in the
  coordinator journal's extra payload, so
  ``Cluster(directory=..., reopen=True)`` — after a process kill, even
  one that followed failovers — reopens the primaries via
  :meth:`~repro.sharding.sharded.ShardedDatabase.reopen` and rebuilds
  fresh replica sets from them.
"""

from __future__ import annotations

import os
import shutil
from typing import Optional, Union as TypingUnion

from repro.errors import (
    ClusterDegradedError,
    ClusterError,
    ReplicationError,
    ShardingError,
    StaleReadError,
    StorageError,
)
from repro.core.commands import Command, DefineRelation, ModifyState
from repro.core.database import Database
from repro.core.txn import TransactionNumber
from repro.durability.durable import DurableDatabase
from repro.durability.files import DirectoryStore
from repro.obsv import registry as _obsv
from repro.replication.replica import Replica
from repro.replication.stream import PrimaryStream, ReplicationStream
from repro.sharding.journal import CoordinatorJournal
from repro.sharding.partition import Partitioner
from repro.sharding.sharded import RebalanceReport, ShardedDatabase

from repro.cluster.config import ClusterConfig

__all__ = ["Cluster"]


class Cluster:
    """A servable topology: sharded primaries, each with a replica set.

    ``directory`` puts shard ``i``'s primary under
    ``<directory>/shard-<i>``, replicas under
    ``<directory>/replica-<shard>-<seq>``, and the coordinator journal
    (which also persists the topology's primary→directory map) under
    ``<directory>/coordinator``; with no directory the whole topology
    lives in memory.  ``reopen=True`` restores a directory-backed
    cluster after a process kill instead of demanding empty stores.
    """

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        *,
        directory: "TypingUnion[str, os.PathLike[str], None]" = None,
        reopen: bool = False,
    ) -> None:
        self._config = config if config is not None else ClusterConfig()
        if directory is None:
            directory = self._config.directory
        reopen = reopen or self._config.reopen
        self._directory = (
            os.fspath(directory) if directory is not None else None
        )
        self._stream_factory = (
            self._config.stream_factory or PrimaryStream
        )
        self._streams: list[ReplicationStream] = []
        self._replicas: list[list[Replica]] = []
        self._cursors: list[int] = []
        self._closed = False
        #: shards currently shedding writes (no live primary)
        self._degraded: set[int] = set()
        #: directory mode: shard index → the directory name of its
        #: *current* primary (failover retargets an entry onto the
        #: promoted replica's directory); persisted in the journal extra
        self._primary_dirs: list[str] = []
        self._replica_seq = 0
        #: directory mode: live replica → its directory name, consulted
        #: when a failover turns that directory into a primary's
        self._replica_names: dict[Replica, str] = {}
        if reopen:
            self._reopen_sharded()
        else:
            self._sharded = ShardedDatabase(
                self._config.shards,
                directory=self._directory,
                partitioner=self._config.partitioner,
                fsync=self._config.fsync,
                checkpoint_every=self._config.checkpoint_every,
            )
            if self._directory is not None:
                self._primary_dirs = [
                    f"shard-{index}"
                    for index in range(self._config.shards)
                ]
        for index in range(self._sharded.shard_count):
            self._attach_shard(index)
        self._persist_topology()
        # reads route leaves over the write path's metadata (owner map,
        # numeral translation); only the node answering them differs
        from repro.sharding.router import ScatterGatherRouter

        self._read_router = ScatterGatherRouter(
            self._sharded, self._read_node
        )

    def _reopen_sharded(self) -> None:
        """Restore the coordinator + primaries from a killed cluster's
        directory.  Replica directories are rebuildable scrap — any
        that survive the kill (including abandoned pre-failover primary
        directories) are deleted and fresh replica sets re-snapshot
        from the reopened primaries."""
        if self._directory is None:
            raise ClusterError(
                "reopen=True needs a directory-backed cluster; an "
                "in-memory topology has nothing to reopen from"
            )
        meta_store = DirectoryStore(
            os.path.join(self._directory, "coordinator")
        )
        meta = CoordinatorJournal.load(meta_store)
        if meta is None:
            raise ClusterError(
                f"no cluster to reopen under {self._directory!r}: the "
                "coordinator has never checkpointed there"
            )
        extra = meta.get("extra", {})
        primary_dirs = [str(name) for name in extra.get("primary_dirs", [])]
        if not primary_dirs:
            # a pre-topology-journal directory: assume the fresh layout
            primary_dirs = [
                f"shard-{index}" for index in range(int(meta["shards"]))
            ]
        self._replica_seq = int(extra.get("replica_seq", 0))
        self._sharded = ShardedDatabase.reopen(
            meta_store=meta_store,
            stores=[
                os.path.join(self._directory, name)
                for name in primary_dirs
            ],
            partitioner=self._config.partitioner,
            fsync=self._config.fsync,
            checkpoint_every=self._config.checkpoint_every,
        )
        self._primary_dirs = primary_dirs
        keep = set(primary_dirs) | {"coordinator"}
        for name in sorted(os.listdir(self._directory)):
            if name in keep:
                continue
            if name.startswith(("shard-", "replica-")):
                shutil.rmtree(
                    os.path.join(self._directory, name),
                    ignore_errors=True,
                )

    def _attach_shard(self, index: int) -> None:
        """Publish shard ``index``'s primary as a stream and spawn its
        replica set (construction and :meth:`add_shard`)."""
        primary = self._sharded.shards[index]
        stream = self._stream_factory(primary)
        self._streams.append(stream)
        followers = [
            self._new_replica(index, stream)
            for _ in range(self._config.replicas_per_shard)
        ]
        self._replicas.append(followers)
        self._cursors.append(0)

    def _new_replica(
        self, shard: int, stream: ReplicationStream
    ) -> Replica:
        store = None
        if self._directory is not None:
            name = f"replica-{shard}-{self._replica_seq}"
            self._replica_seq += 1
            store = DirectoryStore(
                os.path.join(self._directory, name)
            )
        replica = Replica(
            stream,
            store=store,
            retry=self._config.retry,
            max_lag=self._config.max_lag,
            on_stale=self._config.on_stale,
        )
        if store is not None:
            self._replica_names[replica] = name
        return replica

    def _persist_topology(self) -> None:
        """Record the primary→directory map (and the replica name
        counter) in the coordinator journal's extra payload, then
        checkpoint — called whenever the topology changes, so a reopen
        after any number of failovers finds the *current* primaries."""
        journal = self._sharded.journal
        if journal is None:
            return
        journal.set_extra(
            {
                "primary_dirs": list(self._primary_dirs),
                "replica_seq": self._replica_seq,
            }
        )
        self._sharded.meta_checkpoint()

    # -- introspection -----------------------------------------------------

    @property
    def config(self) -> ClusterConfig:
        return self._config

    @property
    def sharded(self) -> ShardedDatabase:
        """The underlying coordinator (the write path)."""
        return self._sharded

    @property
    def shard_count(self) -> int:
        return self._sharded.shard_count

    @property
    def primaries(self) -> tuple[DurableDatabase, ...]:
        return self._sharded.shards

    @property
    def transaction_number(self) -> TransactionNumber:
        return self._sharded.transaction_number

    @property
    def identifiers(self) -> tuple[str, ...]:
        return self._sharded.identifiers

    def replicas(self, shard: int) -> tuple[Replica, ...]:
        """Shard ``shard``'s current replica set."""
        self._check_shard(shard)
        return tuple(self._replicas[shard])

    def lags(self) -> dict[int, list[int]]:
        """Per-shard replica lags (records behind the primary's tail),
        sampled into the ``cluster.shard_lag_records`` histogram."""
        lags: dict[int, list[int]] = {}
        for index, followers in enumerate(self._replicas):
            lags[index] = [replica.lag() for replica in followers]
            if _obsv.enabled():
                histogram = _obsv.get().histogram("cluster.shard_lag_records")
                for lag in lags[index]:
                    histogram.observe(lag)
        return lags

    # -- degraded mode -----------------------------------------------------

    @property
    def degraded_shards(self) -> tuple[int, ...]:
        """Shards currently shedding writes (no live primary), sorted."""
        return tuple(sorted(self._degraded))

    def mark_degraded(self, shard: int) -> None:
        """Start shedding writes aimed at ``shard`` (its primary's
        store is failing).  Reads keep serving from the shard's
        replicas; :meth:`failover` (manual or supervisor-driven) clears
        the mark."""
        self._check_shard(shard)
        if shard in self._degraded:
            return
        self._degraded.add(shard)
        if _obsv.enabled():
            _obsv.get().counter("cluster.health.degraded_marked").inc()

    def clear_degraded(self, shard: int) -> None:
        """Stop shedding writes aimed at ``shard``."""
        if shard not in self._degraded:
            return
        self._degraded.discard(shard)
        if _obsv.enabled():
            _obsv.get().counter("cluster.health.degraded_cleared").inc()

    def _write_target(self, command: Command) -> Optional[int]:
        """The shard a (flattened) command's write would land on, or
        None when it cannot be told without executing."""
        if isinstance(command, (DefineRelation, ModifyState)):
            owner = self._sharded._owner.get(command.identifier)
            if owner is not None:
                return owner
            return self._sharded.partitioner.shard_for(
                command.identifier, self._sharded.shard_count
            )
        return None

    # -- write path --------------------------------------------------------

    def execute(self, command: Command) -> TransactionNumber:
        """Apply one command (or sentence) through the coordinator;
        replication is asynchronous — replicas pick the records up on
        their next poll/read.

        Writes aimed at a degraded shard are shed with
        :class:`~repro.errors.ClusterDegradedError` *before* touching
        any shard, so a sentence never half-applies across a dead
        primary.  A primary store failure surfacing mid-write marks the
        shard degraded and is re-raised as the same typed, retryable
        error — the coordinator's metadata never committed the failed
        command, so a retry after recovery applies it exactly once."""
        if self._degraded:
            for flat in self._sharded._flatten(command):
                target = self._write_target(flat)
                if target is not None and target in self._degraded:
                    if _obsv.enabled():
                        _obsv.get().counter("cluster.health.writes_shed").inc()
                    raise ClusterDegradedError(
                        f"shard {target} has no live primary; write "
                        "shed — retry after failover"
                    )
        try:
            return self._sharded.execute(command)
        except (ShardingError, ClusterError, ReplicationError):
            raise
        except StorageError as error:
            # the owning primary's store is dying under the write: mark
            # the shard so subsequent writes shed fast, and surface the
            # typed, retryable error.  The sharded layer tags the error
            # with the shard it arose on; a coordinator-journal failure
            # carries no tag and is not a shard's fault, so it is
            # re-raised untouched.
            target = getattr(error, "shard_index", None)
            if target is None:
                raise
            self.mark_degraded(target)
            if _obsv.enabled():
                _obsv.get().counter("cluster.health.writes_shed").inc()
            raise ClusterDegradedError(
                f"shard {target}'s primary store failed mid-write "
                f"({error}); the shard is degraded — retry after "
                "failover"
            ) from error

    # -- read path ---------------------------------------------------------

    def evaluate(self, expression):
        """Evaluate an expression or compiled plan, each ``ρ`` leaf
        answered on its shard by a replica (round-robin over the live
        ones, picked once per shard per read) under the configured
        freshness contract; shards with no live replicas answer from
        their primary."""
        try:
            return self._read_router.evaluate(expression)
        except StaleReadError:
            if _obsv.enabled():
                _obsv.get().counter("cluster.stale_rejections").inc()
            raise

    def evaluate_primary(self, expression):
        """Evaluation with every leaf answered by a primary (the
        write-path router) — bypasses replicas entirely."""
        return self._sharded.evaluate(expression)

    def state_at(self, identifier: str, txn: TransactionNumber):
        """``FINDSTATE`` at a global transaction number — answered from
        coordinator metadata plus the owning primary."""
        return self._sharded.state_at(identifier, txn)

    def as_database(self) -> Database:
        """The global database value, kept by the coordinator and
        re-assembled only where a shard changed — see
        :meth:`~repro.sharding.sharded.ShardedDatabase.as_database`."""
        return self._sharded.as_database()

    #: The global value, kept between accesses.
    database = property(as_database)

    def _read_node(self, index: int):
        """The node answering one read's leaves on shard ``index``: the
        next live replica, caught up first under ``fresh``, or the
        primary when there is none."""
        replica = self._pick_replica(index)
        if replica is None:
            if _obsv.enabled():
                _obsv.get().counter("cluster.reads_primary").inc()
            return self._sharded.shards[index]
        if self._config.freshness == "fresh":
            replica.catch_up()
        if _obsv.enabled():
            _obsv.get().counter("cluster.reads_replica").inc()
        return replica

    def _pick_replica(self, index: int) -> Optional[Replica]:
        """The next live replica of shard ``index`` in round-robin
        order, or None when the set is empty or fully condemned."""
        followers = self._replicas[index]
        if not followers:
            return None
        cursor = self._cursors[index]
        for offset in range(len(followers)):
            candidate = followers[(cursor + offset) % len(followers)]
            if not candidate.diverged and not candidate.promoted:
                self._cursors[index] = (
                    cursor + offset + 1
                ) % len(followers)
                return candidate
        return None

    # -- replication control -----------------------------------------------

    def catch_up(self) -> int:
        """Drive every following replica to its primary's published
        tail; returns the total records applied across the cluster.
        Diverged and promoted replicas are skipped — they no longer
        follow the stream (the supervisor resyncs the former)."""
        total = 0
        for followers in self._replicas:
            for replica in followers:
                if replica.diverged or replica.promoted:
                    continue
                total += replica.catch_up()
        if total and _obsv.enabled():
            _obsv.get().counter("cluster.catchup_records").inc(total)
        return total

    def stream(self, shard: int) -> "ReplicationStream":
        """Shard ``shard``'s *current* replication stream — re-bound by
        failover, so condemned replicas repaired after a promotion must
        be re-homed onto this, not whatever they last followed."""
        self._check_shard(shard)
        return self._streams[shard]

    def add_replica(self, shard: int) -> Replica:
        """Attach one more replica to shard ``shard``'s stream.  It
        bootstraps from the stream itself (fetching from the retained
        head, or re-snapshotting when the head was compacted away)."""
        self._check_shard(shard)
        replica = self._new_replica(shard, self._streams[shard])
        self._replicas[shard].append(replica)
        self._persist_topology()
        if _obsv.enabled():
            _obsv.get().counter("cluster.replicas_added").inc()
        return replica

    # -- topology changes --------------------------------------------------

    def add_shard(self) -> int:
        """Open one more (empty) primary with its own replica set;
        existing identifiers stay put until :meth:`rebalance`."""
        index = self._sharded.add_shard()
        if self._directory is not None:
            self._primary_dirs.append(f"shard-{index}")
        self._attach_shard(index)
        self._persist_topology()
        if _obsv.enabled():
            _obsv.get().counter("cluster.shards_added").inc()
        return index

    def rebalance(
        self, partitioner: Optional[Partitioner] = None
    ) -> RebalanceReport:
        """Move identifiers per the (new) partitioner.  Moves are
        ordinary commands on the shard primaries, so they replicate to
        each shard's followers through the normal stream."""
        return self._sharded.rebalance(partitioner)

    def failover(
        self, shard: int, replica_index: Optional[int] = None
    ) -> None:
        """Replace shard ``shard``'s primary with one of its replicas.

        The chosen replica is caught up to the primary's published tail
        and validated byte-for-byte against the primary *before* it is
        promoted — any failure on that path raises
        :class:`~repro.errors.ClusterError` (or the underlying
        replication error) and leaves the cluster undisturbed, the
        replica still following.  Only after promotion succeeds is the
        primary swapped (the old one closed), and the surviving
        siblings re-homed onto the promoted primary's stream: the LSN
        space is continuous across the seam, so their durable prefixes
        stay valid and gap/divergence detection guards the handoff.
        """
        self._check_shard(shard)
        followers = self._replicas[shard]
        live = [
            r for r in followers if not r.diverged and not r.promoted
        ]
        if not live:
            raise ClusterError(
                f"cannot fail over shard {shard}: no live replicas "
                "to promote"
            )
        if replica_index is None:
            candidate = max(live, key=lambda r: r.applied_lsn)
        else:
            if not 0 <= replica_index < len(followers):
                raise ClusterError(
                    f"shard {shard} has no replica {replica_index} "
                    f"(have {len(followers)})"
                )
            candidate = followers[replica_index]
            if candidate.promoted:
                raise ClusterError(
                    f"replica {replica_index} of shard {shard} was "
                    "already promoted and no longer follows the "
                    "stream; it cannot be promoted again"
                )
            if candidate.diverged:
                raise ClusterError(
                    f"replica {replica_index} of shard {shard} is "
                    "condemned (diverged) and cannot be promoted"
                )
        candidate.catch_up()
        old = self._sharded.shards[shard]
        if candidate.durable.database != old.database:
            raise ClusterError(
                f"refusing to fail over shard {shard}: the caught-up "
                "candidate's database does not match the primary's"
            )
        # promote() checkpoints *before* detaching: a failing
        # checkpoint leaves the candidate attached and the cluster
        # exactly as it was
        promoted = candidate.promote()
        self._sharded.replace_shard(shard, promoted)
        followers.remove(candidate)
        try:
            old.close()
        except StorageError:
            # a write-dead primary can't flush its tail on close — the
            # exact situation failover exists for; the promoted replica
            # already holds the validated history
            pass
        if self._directory is not None:
            name = self._replica_names.pop(candidate, None)
            if name is not None:
                self._primary_dirs[shard] = name
        stream = self._stream_factory(promoted)
        self._streams[shard] = stream
        for sibling in followers:
            # diverged siblings cannot refollow — they are condemned
            # and keep the dead stream until a resync re-homes them
            if sibling.diverged or sibling.promoted:
                continue
            sibling.refollow(stream)
        self.clear_degraded(shard)
        self._persist_topology()
        if _obsv.enabled():
            _obsv.get().counter("cluster.failovers").inc()

    # -- durability control ------------------------------------------------

    def sync(self) -> None:
        self._sharded.sync()

    def checkpoint(self) -> None:
        self._sharded.checkpoint()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for followers in self._replicas:
            for replica in followers:
                try:
                    replica.close()
                except StorageError:
                    pass  # a write-dead replica store can't flush
        self._sharded.close()

    def kill(self) -> None:
        """Simulate abrupt process death for crash testing: primaries,
        replicas and the coordinator journal all drop their handles
        with buffers discarded.  Recover with ``Cluster(reopen=True)``
        over the same directory."""
        if self._closed:
            return
        self._closed = True
        for followers in self._replicas:
            for replica in followers:
                replica.kill()
        self._sharded.kill()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- guards ------------------------------------------------------------

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < len(self._replicas):
            raise ClusterError(
                f"no shard {shard} (have {len(self._replicas)})"
            )

    def __repr__(self) -> str:
        sets = "+".join(
            str(len(followers)) for followers in self._replicas
        )
        return (
            f"Cluster(shards={self.shard_count}, replicas=[{sets}], "
            f"txn={self.transaction_number})"
        )
