"""The server's shared backing database and per-connection views.

One process serves one database.  The :class:`ServerStore` owns it
through one authoritative :class:`Session`, in any of its five backings
— plain in-memory, ``durable_dir`` (WAL + checkpoints), ``shards=N``
(coordinator over N durable shard stores), ``replica_of`` (read-only
follower), or ``cluster=ClusterConfig(...)`` (sharded primaries ×
replica sets with per-shard failover) — so the network front-end adds a
wire, not a sixth storage engine.  The session chose the backing once;
the store asks it instead of re-deriving the kind.

**Writes** are serialized.  On the plain backing a sentence runs through
the session's transaction manager (``Session.run`` stages its commands
and commits atomically, and its abort-on-raise discipline guarantees a
failing sentence never leaks an ACTIVE transaction); the session stays
the value's only owner.  The other backings take the sentence as one
command sequence through the session's execute path, which is already
the serialized WAL/coordinator commit path: the durable backing
evaluates it whole before logging one WAL record with one fsync, and a
coordinator flattens it (the cluster sheds the whole sentence when any
of its shards is degraded).  Either way the asyncio server executes at
most one write at a time, so the two paths agree with the
sequential-sentence semantics the paper mandates.

**Reads** never touch the write path.  Every connection's
:class:`SessionView` reads through the authoritative session, which
runs each query's compiled plan on whatever backing it has (a replica's
staleness bound and a coordinator's leaf routing included), so a server
has one plan cache: parse, optimize and compile once per query shape,
whichever connection sent it.  The asyncio server runs one request at a
time on its loop, so connections never share the cache concurrently.
"""

from __future__ import annotations

from typing import Optional

from repro.core.commands import sequence
from repro.errors import ConcurrencyError, ReproError
from repro.lang.parser import parse_sentence
from repro.lang.session import Session, format_state

__all__ = ["ServerStore", "SessionView", "render_state"]


def render_state(state) -> str:
    """The canonical printed form of a query result — shared by the
    server, the REPL and the differential oracle, so "byte-identical to
    the in-process session" is comparing like with like."""
    from repro.core.expressions import is_empty_set

    if is_empty_set(state):
        return "∅ (no recorded state)"
    return format_state(state)


class ServerStore:
    """The one shared backing database behind a server."""

    def __init__(
        self,
        *,
        durable_dir: Optional[str] = None,
        fsync: str = "batch(64, 100)",
        checkpoint_every: int = 256,
        shards: Optional[int] = None,
        replica_of=None,
        cluster=None,
        isolation: str = "serial",
    ) -> None:
        self._session = Session(
            durable_dir,
            fsync=fsync,
            checkpoint_every=checkpoint_every,
            shards=shards,
            replica_of=replica_of,
            cluster=cluster,
            isolation=isolation,
        )
        try:
            self._manager = self._session.transaction_manager
        except ConcurrencyError:
            # the WAL or the coordinator is the commit path
            self._manager = None

    # -- state ---------------------------------------------------------------

    @property
    def session(self) -> Session:
        """The authoritative session over the backing database."""
        return self._session

    @property
    def manager(self):
        """The session's transaction manager — a serial
        :class:`TransactionManager` or, under ``isolation='si'/'ssi'``,
        an :class:`~repro.concurrency.mvcc.MVCCManager` (None for
        durable/sharded/replica/cluster backings, whose own execute path
        is the serialized commit path)."""
        return self._manager

    @property
    def isolation(self) -> str:
        """The write path's isolation level."""
        return self._session.isolation

    @property
    def transaction_number(self) -> int:
        return self._session.transaction_number

    @property
    def cluster(self):
        """The backing :class:`~repro.cluster.Cluster`, or None."""
        return self._session.cluster

    @property
    def degraded_shards(self) -> "tuple[int, ...]":
        """Shards currently refusing writes (cluster backing only)."""
        cluster = self.cluster
        if cluster is None:
            return ()
        return cluster.degraded_shards

    @property
    def fully_degraded(self) -> bool:
        """True when *every* shard of a cluster backing is degraded —
        the server then sheds writes at admission instead of queueing
        work that is guaranteed to fail."""
        cluster = self.cluster
        if cluster is None:
            return False
        return (
            cluster.shard_count > 0
            and len(cluster.degraded_shards) == cluster.shard_count
        )

    # -- writes --------------------------------------------------------------

    def execute(self, source: str) -> int:
        """Execute one sentence; returns the resulting transaction
        number.  Raises (without partial effect on the plain and durable
        backings) when the sentence is invalid."""
        if self._manager is None:
            self._session.execute_command(sequence(parse_sentence(source)))
            return self._session.transaction_number
        commands = parse_sentence(source)

        def body(txn) -> None:
            for command in commands:
                txn.stage(command)

        return self._session.run(body).transaction_number

    # -- reads ---------------------------------------------------------------

    def view(self) -> "SessionView":
        """A fresh per-connection read view."""
        return SessionView(self)

    def catch_up(self) -> int:
        """Replica backing: apply shipped records before a read (the
        serve-fresh policy); other backings: no-op."""
        if self._session.replica is None:
            return 0
        return self._session.catch_up()

    def close(self) -> None:
        self._session.close()


class SessionView:
    """One connection's read view of the store: its reads go through
    the store's session (a replica store first applies what its primary
    shipped, the serve-fresh policy)."""

    __slots__ = ("_store",)

    def __init__(self, store: ServerStore) -> None:
        self._store = store

    def query(self, source: str) -> str:
        """Evaluate an expression and return its printed relation."""
        self._store.catch_up()
        return render_state(self._store.session.query(source))

    def explain(self, source: str) -> str:
        """The optimizer's story for a query against the current value."""
        self._store.catch_up()
        return self._store.session.explain(source)

    def plan_cache_info(self) -> dict:
        """The store's plan cache, which every connection shares; an
        observation, so it applies nothing."""
        return self._store.session.plan_cache_info()


def ensure_no_leaked_transactions(store: ServerStore) -> None:
    """Assert helper used by tests: the plain backing's manager has no
    begun-but-unfinished transaction (the disconnect regression)."""
    manager = store.manager
    if manager is not None and manager.outstanding_count:
        raise ReproError(
            f"{manager.outstanding_count} ACTIVE transaction(s) leaked"
        )
