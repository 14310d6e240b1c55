"""Interactive sessions over the language.

A :class:`Session` holds a current :class:`~repro.core.database.Database`
and incrementally executes commands against it.  Because the paper's
sequencing semantics is plain function composition
(``C[[C1, C2]] d = C[[C2]](C[[C1]] d)``), executing commands one at a time
against a session is observationally identical to evaluating the whole
prefix as one sentence starting from the empty database — a property the
test suite verifies.

Where the value lives cannot change what a session observes, so the
constructor chooses its *backing* once — memory, ``durable_dir``,
``replica_of``, ``shards`` or ``cluster`` — and every later call goes to
that one object (a ``DurableDatabase``, ``Replica``, ``ShardedDatabase``
or ``Cluster``, or a value plus its transaction manager).  Every
backing runs a query's compiled plan through its own ``evaluate``: the
plain and durable ones against their value, a replica behind its
staleness bound, and a coordinator against a per-read view whose ``ρ``
leaves its shards answer.

The session also offers :meth:`Session.query`, which parses and evaluates a
side-effect-free expression (the "display the contents of a relation" use
the paper mentions as a command example), and :meth:`Session.display`,
which renders a relation's current state as an aligned text table.

Queries run through a plan pipeline keyed by the query's *shape*: its
tokens with the rollback numerals and comparison literals lifted out
into a parameter vector, so ``rollback(r, 345)`` and ``rollback(r,
912)`` — the paper's ``ρ(I, N)`` with ``N`` an argument — share one
plan.  A plan is the parsed template, rewritten by the cost-guided
optimizer under statistics collected from whatever is serving reads and
compiled into a flat :class:`~repro.core.compile.CompiledPlan`; each
query binds its parameters into it.  A plan stays valid while the
database's catalog token is unchanged (no relation defined, given its
first state, or given a new scheme or type — see
:class:`~repro.core.database.Database`) and no relation it reads has
drifted in cardinality by more than :data:`DRIFT_FACTOR`.  Sharded and
cluster coordinators keep their global value and hand the token on by
the same rule, so their plans survive writes too.  A text seen before
skips the lexer too: in the steady read-heavy state every ``query``
call, on every backing, is one dict probe plus one compiled-plan
execution.  :meth:`Session.explain` renders the before/after story for
any query.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Optional, Union as TypingUnion

from repro.core.commands import Command
from repro.core.compile import CompiledPlan, bind, compile_expression
from repro.core.database import EMPTY_DATABASE, Database
from repro.core.expressions import Expression, Rollback
from repro.core.txn import NOW
from repro.errors import (
    ClusterError,
    ConcurrencyError,
    ReplicationError,
    ShardingError,
    StorageError,
)
from repro.historical.state import HistoricalState
from repro.lang.lexer import query_shape, tokenize
from repro.lang.parser import parse_command, parse_expression, parse_sentence
from repro.obsv import registry as _obsv
from repro.optimizer.cost import explain as explain_plan
from repro.optimizer.rewriter import CostGuidedRewriter
from repro.optimizer.stats import Statistics, collect_statistics
from repro.snapshot.state import SnapshotState

__all__ = ["Session"]

State = TypingUnion[SnapshotState, HistoricalState]

#: What the topology-only operations require, in their refusals.
_SHARDED = "sharded (shards=N or cluster=ClusterConfig(...))"
_CLUSTERED = "clustered (cluster=ClusterConfig(...))"
_IN_MEMORY = "in-memory (a WAL, replica or coordinator owns its value)"


#: A plan is re-optimized once a relation it reads holds this many
#: times more, or fewer, tuples than the statistics it was planned
#: under (plus one on each side, so an empty relation gaining a few
#: tuples does not count).
DRIFT_FACTOR = 4.0


class _CachedPlan:
    """One plan-cache entry: the parsed template plus the optimized and
    compiled forms, the catalog token they were planned under, the
    cardinalities of the relations they read, and the database value
    they were last found valid for."""

    __slots__ = (
        "expression", "identifiers", "optimized", "compiled", "token",
        "cardinalities", "checked",
    )

    def __init__(self, expression: Expression) -> None:
        self.expression = expression
        self.identifiers = _rollback_identifiers(expression)
        self.optimized: Optional[Expression] = None
        self.compiled: Optional[CompiledPlan] = None
        self.token: object = None
        self.cardinalities: "dict[str, float]" = {}
        self.checked: Optional[Database] = None

    def drifted(self, database: Database) -> bool:
        """Whether a relation the plan reads has grown or shrunk past
        :data:`DRIFT_FACTOR` since it was planned."""
        for identifier, planned in self.cardinalities.items():
            relation = database.lookup(identifier)
            current = 0 if relation is None else len(relation.current_state)
            low, high = sorted((current, planned))
            if high + 1 > DRIFT_FACTOR * (low + 1):
                return True
        return False


class _Query:
    """One text's entry: its plan, its parameter values, and the plan
    compiled with them bound (``bound_from`` is the compiled template
    that binding came from, so a re-plan is noticed)."""

    __slots__ = ("plan", "params", "bound", "bound_from")

    def __init__(self, plan: _CachedPlan, params: tuple) -> None:
        self.plan = plan
        self.params = params
        self.bound: Optional[CompiledPlan] = None
        self.bound_from: Optional[CompiledPlan] = None


def _rollback_identifiers(expression: Expression) -> "tuple[str, ...]":
    """The relations ``expression``'s ρ leaves read."""
    identifiers = set()
    stack = [expression]
    while stack:
        node = stack.pop()
        if isinstance(node, Rollback):
            identifiers.add(node.identifier)
        stack.extend(node.children())
    return tuple(sorted(identifiers))


class _InMemory:
    """The plain backing: a database value in memory, plus the
    transaction manager once one is asked for (from the start under
    ``si``/``ssi``).  While a manager exists it owns the value, so
    scripted and transactional writes share one commit path."""

    __slots__ = ("_value", "_manager")

    def __init__(self, isolation: str) -> None:
        self._value = EMPTY_DATABASE
        self._manager = None
        if isolation != "serial":
            from repro.concurrency.mvcc import MVCCManager

            self._manager = MVCCManager(EMPTY_DATABASE, isolation)

    @property
    def database(self) -> Database:
        manager = self._manager
        return self._value if manager is None else manager.database

    @property
    def transaction_number(self) -> int:
        return self.database.transaction_number

    @property
    def manager(self):
        """The transaction manager, created serial on first use."""
        if self._manager is None:
            from repro.concurrency.manager import TransactionManager

            self._manager = TransactionManager(self._value)
        return self._manager

    def execute(self, command: Command) -> Database:
        if self._manager is None:
            self._value = command.execute(self._value)
            return self._value
        return self._manager.run(lambda txn: txn.stage(command))

    def evaluate(self, expression: Expression) -> State:
        return expression.evaluate(self.database)

    def reanchor(self, database: Database) -> None:
        if self._manager is not None:
            raise ConcurrencyError(
                "reanchor(): this session's transaction manager owns its "
                "value; transactions begun against it could not commit"
            )
        self._value = database


def _open_backing(
    durable_dir, *, fsync, checkpoint_every, replica_of, max_lag, on_stale,
    retry, shards, partitioner, cluster, isolation,
):
    """Check how the backing kwargs compose and open the one backing
    they name; returns ``(kind, backing)``."""
    if isolation not in ("serial", "si", "ssi"):
        raise ValueError(
            f"isolation must be 'serial', 'si' or 'ssi', got "
            f"{isolation!r}"
        )
    if isolation != "serial" and (
        durable_dir is not None
        or replica_of is not None
        or shards is not None
        or cluster is not None
    ):
        raise ValueError(
            "isolation='si'/'ssi' (multi-writer MVCC) applies to "
            "plain in-memory sessions; durable, replica, sharded "
            "and cluster sessions serialize writes through their "
            "WAL/coordinator commit path (isolation='serial')"
        )
    if cluster is not None:
        if shards is not None:
            raise ValueError(
                "cluster=ClusterConfig(...) already names the shard "
                "count (ClusterConfig(shards=N)); drop the legacy "
                "shards= kwarg"
            )
        if replica_of is not None:
            raise ValueError(
                "cluster=ClusterConfig(...) manages its own replica "
                "sets (ClusterConfig(replicas_per_shard=K)); drop "
                "the legacy replica_of= kwarg"
            )
        if durable_dir is not None:
            raise ValueError(
                "cluster sessions place each shard primary under "
                "the cluster's own directory; pass "
                "Cluster(config, directory=...) and hand the "
                "Cluster to cluster= instead of durable_dir="
            )
    if durable_dir is not None and replica_of is not None:
        raise ValueError(
            "a session is a primary (durable_dir=...) or a replica "
            "(replica_of=...), not both"
        )
    if shards is not None and replica_of is not None:
        raise ValueError(
            "a session is sharded (shards=N) or a replica "
            "(replica_of=...), not both; to stack the two, compose "
            "them with cluster=ClusterConfig(shards=N, "
            "replicas_per_shard=K)"
        )
    if partitioner is not None and shards is None:
        raise ValueError(
            "partitioner= places identifiers across shards and needs "
            "shards=N; a cluster takes its own "
            "(ClusterConfig(partitioner=...))"
        )
    if replica_of is None and (
        retry is not None or max_lag is not None or on_stale != "reject"
    ):
        raise ValueError(
            "retry=, max_lag= and on_stale= tune how a replica follows "
            "its primary and need replica_of=...; a cluster takes its "
            "own (ClusterConfig(max_lag=..., on_stale=...))"
        )
    if cluster is not None:
        from repro.cluster import Cluster, ClusterConfig

        if isinstance(cluster, ClusterConfig):
            return "cluster", Cluster(cluster)
        if isinstance(cluster, Cluster):
            return "cluster", cluster
        raise ValueError(
            "cluster= must be a ClusterConfig (the usual form) "
            f"or a prebuilt Cluster, got "
            f"{type(cluster).__name__}"
        )
    if shards is not None:
        from repro.sharding import ShardedDatabase

        return "sharded", ShardedDatabase(
            shards,
            directory=durable_dir,
            partitioner=partitioner,
            fsync=fsync,
            checkpoint_every=checkpoint_every,
        )
    if replica_of is not None:
        replica = _follow(
            replica_of, retry=retry, max_lag=max_lag, on_stale=on_stale
        )
        replica.catch_up()
        return "replica", replica
    if durable_dir is not None:
        from repro.durability import DurableDatabase

        return "durable", DurableDatabase(
            durable_dir,
            fsync=fsync,
            checkpoint_every=checkpoint_every,
        )
    return "memory", _InMemory(isolation)


def _follow(source, *, retry, max_lag, on_stale):
    """A replica of ``source``: a Replica, a ReplicationStream, a
    DurableDatabase, or another (durable) Session."""
    from repro.durability import DurableDatabase
    from repro.replication import PrimaryStream, Replica
    from repro.replication.stream import ReplicationStream

    if isinstance(source, Replica):
        return source
    if isinstance(source, Session):
        if source.durable is None:
            raise ValueError(
                "replica_of: the source session is purely "
                "in-memory; only durable sessions publish a WAL "
                "to replicate"
            )
        source = source.durable
    if isinstance(source, DurableDatabase):
        source = PrimaryStream(source)
    if not isinstance(source, ReplicationStream):
        raise ValueError(
            "replica_of must be a Replica, ReplicationStream, "
            f"DurableDatabase or durable Session, got "
            f"{type(source).__name__}"
        )
    kwargs = {"max_lag": max_lag, "on_stale": on_stale}
    if retry is not None:
        kwargs["retry"] = retry
    return Replica(source, **kwargs)


class Session:
    """A mutable cursor over an immutable database value.

    The session itself is the only stateful object; each executed command
    replaces :attr:`database` with the new database value the command
    semantics denotes.  All past database values remain valid (and the
    session keeps the trail in :attr:`history` for inspection).
    """

    #: Default bound on the retained database-value trail.  Database
    #: values share structure but under full-copy semantics a long
    #: session retaining every value is O(n²) memory; the bound keeps
    #: the recent trail inspectable without the leak.
    DEFAULT_HISTORY_LIMIT = 256

    #: Default capacity of the parsed-expression (plan) cache.
    DEFAULT_PLAN_CACHE_CAPACITY = 128

    def __init__(
        self,
        durable_dir: "str | None" = None,
        *,
        fsync: str = "batch(64, 100)",
        checkpoint_every: int = 256,
        history_limit: "int | None" = DEFAULT_HISTORY_LIMIT,
        plan_cache_capacity: int = DEFAULT_PLAN_CACHE_CAPACITY,
        optimize: bool = True,
        replica_of=None,
        max_lag: "int | None" = None,
        on_stale: str = "reject",
        retry=None,
        shards: "int | None" = None,
        partitioner=None,
        cluster=None,
        isolation: str = "serial",
    ) -> None:
        if history_limit is not None and history_limit < 1:
            raise ValueError(
                f"history_limit must be ≥ 1 (the current database is "
                f"always retained) or None for unbounded, got "
                f"{history_limit}"
            )
        if plan_cache_capacity < 0:
            raise ValueError(
                f"plan_cache_capacity must be ≥ 0, got "
                f"{plan_cache_capacity}"
            )
        self._kind, self._backing = _open_backing(
            durable_dir, fsync=fsync, checkpoint_every=checkpoint_every,
            replica_of=replica_of, max_lag=max_lag, on_stale=on_stale,
            retry=retry, shards=shards, partitioner=partitioner,
            cluster=cluster, isolation=isolation,
        )
        # coordinators keep no trail of past global values
        self._history: "list[Database] | None" = (
            None
            if self._kind in ("sharded", "cluster")
            else [self._backing.database]
        )
        self._isolation = isolation
        self._history_limit = history_limit
        # plans by query shape, and each recent text's entry by the text
        self._plan_cache: "OrderedDict[tuple, _CachedPlan]" = OrderedDict()
        self._queries: "OrderedDict[str, _Query]" = OrderedDict()
        self._plan_cache_capacity = plan_cache_capacity
        self._plan_cache_hits = 0
        self._plan_cache_misses = 0
        self._plan_cache_evictions = 0
        self._optimize = optimize

    def _backing_op(self, name: str, error: type, requirement: str):
        """The backing's ``name`` operation, or ``error`` if it has none."""
        operation = getattr(self._backing, name, None)
        if operation is None:
            raise error(f"{name}(): this session is not {requirement}")
        return operation

    def _if_supported(self, name: str, default=None):
        """Run the backing's ``name`` operation if it has one (a plain
        session has no log to sync, a primary nothing to catch up)."""
        operation = getattr(self._backing, name, None)
        return default if operation is None else operation()

    @property
    def database(self) -> Database:
        """The current database value.

        On sharded and cluster sessions the coordinator keeps the global
        value and, on each access, re-assembles only the relations whose
        shard relation or modify count moved (see
        :meth:`~repro.sharding.sharded.ShardedDatabase.as_database`):
        O(identifiers) identity checks plus the change.  Every write and
        every planned read asks for it, as on a single node."""
        return self._backing.database

    @property
    def history(self) -> tuple[Database, ...]:
        """The trail of database values the session has passed through,
        oldest first.  Sessions start the trail at the empty database;
        once more than ``history_limit`` values have accumulated, the
        oldest are dropped (pass ``history_limit=None`` to retain every
        value, the pre-bound behaviour).  Sharded and cluster sessions
        do not retain a trail: the tuple holds just the current
        database."""
        if self._history is None:
            return (self.database,)
        return tuple(self._history)

    @property
    def history_limit(self) -> "int | None":
        """The bound on the retained trail (None = unbounded)."""
        return self._history_limit

    @property
    def transaction_number(self) -> int:
        """The current database's transaction number."""
        return self._backing.transaction_number

    def reanchor(self, database: Database, *, record: bool = True) -> None:
        """Make ``database`` the current value of a plain in-memory
        session (the REPL's ``.load``; ``record=False`` leaves the
        :attr:`history` trail untouched).
        Raises :class:`StorageError` when a WAL, replica or coordinator
        owns the value, :class:`ConcurrencyError` when a manager does."""
        self._backing_op("reanchor", StorageError, _IN_MEMORY)(database)
        if record:
            self._record(database)

    # -- execution -----------------------------------------------------------

    def execute(self, source: str) -> Database:
        """Parse and execute one or more ';'-separated commands; return the
        resulting database."""
        for command in parse_sentence(source):
            self._apply(command)
        return self.database

    def execute_command(self, command: TypingUnion[str, Command]) -> Database:
        """Execute a single command (source text or AST)."""
        if isinstance(command, str):
            command = parse_command(command)
        self._apply(command)
        return self.database

    def execute_many(
        self, batch: Iterable[TypingUnion[str, Command]]
    ) -> Database:
        """Execute a batch of commands (source text or ASTs) as one
        group; returns the resulting database.

        For durable sessions this is *group commit*: every command's WAL
        record is appended under the log's fsync policy — with the
        default ``batch(N, ms)`` policy the appends coalesce into a few
        fsyncs instead of one per command — and a single forced sync on
        return makes the whole batch durable at once.
        """
        if _obsv.enabled():
            _obsv.get().counter("lang.batches_executed").inc()
        for item in batch:
            if isinstance(item, str):
                for command in parse_sentence(item):
                    self._apply(command)
            else:
                self._apply(item)
        self._if_supported("sync")
        return self.database

    def _apply(self, command: Command) -> None:
        if _obsv.enabled():
            _obsv.get().counter("lang.statements_executed").inc()
        # value backings return the new database; coordinators, which
        # keep no trail, return the global transaction number
        result = self._backing.execute(command)
        if self._history is not None:
            self._record(result)

    def _record(self, database: Database) -> None:
        history = self._history
        history.append(database)
        limit = self._history_limit
        if limit is not None and len(history) > limit:
            del history[: len(history) - limit]

    # -- transactions --------------------------------------------------------

    @property
    def isolation(self) -> str:
        """This session's isolation level: ``serial`` (the default
        single-writer manager), ``si`` (multi-writer snapshot isolation
        with first-committer-wins) or ``ssi`` (serializable snapshot
        isolation)."""
        return self._isolation

    @property
    def transaction_manager(self):
        """The session's transaction manager — an
        :class:`~repro.concurrency.mvcc.MVCCManager` for ``si``/``ssi``
        sessions, a lazily created serial
        :class:`~repro.concurrency.manager.TransactionManager` for plain
        ``serial`` sessions.  Durable/replica/sharded/cluster sessions
        have no client-visible manager (their execute path *is* the
        serialized commit path): raises :class:`ConcurrencyError`.
        """
        manager = getattr(self._backing, "manager", None)
        if manager is None:
            raise ConcurrencyError(
                "this session's backing serializes writes through "
                "its WAL/coordinator commit path and has no "
                "client-visible transaction manager; use a plain "
                "Session(isolation=...) for explicit transactions"
            )
        return manager

    def begin(self):
        """Start an explicit transaction against the session's manager
        (snapshot reads at the current transaction number)."""
        return self.transaction_manager.begin()

    def commit(self, transaction) -> Database:
        """Commit an explicit transaction; the session's database moves
        to the committed value.  Raises
        :class:`~repro.errors.ConcurrencyError` (and aborts the
        transaction) when conflict detection rejects it."""
        database = self.transaction_manager.commit(transaction)
        self._record(database)
        return database

    def abort(self, transaction) -> None:
        """Abort an explicit transaction; the database is unchanged."""
        self.transaction_manager.abort(transaction)

    def run(self, body, retries: int = 3) -> Database:
        """Run ``body(transaction)`` under the session's isolation
        level, retrying on conflict up to ``retries`` times."""
        database = self.transaction_manager.run(body, retries)
        self._record(database)
        return database

    # -- durability ----------------------------------------------------------

    @property
    def durable(self):
        """The session's :class:`~repro.durability.DurableDatabase`,
        or None for a purely in-memory session."""
        return self._backing if self._kind == "durable" else None

    def checkpoint(self) -> None:
        """Force a checkpoint + log compaction (durable, sharded and
        cluster sessions checkpoint every shard)."""
        self._if_supported("checkpoint")

    def close(self) -> None:
        """Flush the command log and release file handles.  In-memory
        sessions: a no-op."""
        self._if_supported("close")

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- sharding ------------------------------------------------------------

    @property
    def sharded(self):
        """The session's :class:`~repro.sharding.ShardedDatabase`, or
        None for unsharded sessions."""
        return self._backing if self._kind == "sharded" else None

    def rebalance(self, partitioner=None):
        """Sharded/cluster sessions: move identifiers to their
        partitioner-preferred shards; returns the
        :class:`~repro.sharding.RebalanceReport`."""
        return self._backing_op("rebalance", ShardingError, _SHARDED)(
            partitioner
        )

    def add_shard(self) -> int:
        """Sharded/cluster sessions: open one more shard and return its
        index."""
        return self._backing_op("add_shard", ShardingError, _SHARDED)()

    # -- clustering ----------------------------------------------------------

    @property
    def cluster(self):
        """The session's :class:`~repro.cluster.Cluster`, or None for
        non-cluster sessions."""
        return self._backing if self._kind == "cluster" else None

    def failover(self, shard: int, replica_index=None) -> None:
        """Cluster sessions: promote one of shard ``shard``'s replicas
        to be that shard's primary (see
        :meth:`repro.cluster.Cluster.failover`)."""
        self._backing_op("failover", ClusterError, _CLUSTERED)(
            shard, replica_index
        )

    def add_replica(self, shard: int):
        """Cluster sessions: attach one more replica to shard
        ``shard``'s stream and return it."""
        return self._backing_op("add_replica", ClusterError, _CLUSTERED)(
            shard
        )

    # -- replication ---------------------------------------------------------

    @property
    def replica(self):
        """The session's :class:`~repro.replication.Replica`, or None
        for primary/in-memory sessions."""
        return self._backing if self._kind == "replica" else None

    def catch_up(self) -> int:
        """Replica sessions: apply shipped records up to the primary's
        published tail, returning how many were applied.  Cluster
        sessions: drive every replica in the topology to its primary's
        tail.  Primary and in-memory sessions: a no-op returning 0."""
        applied = self._if_supported("catch_up", 0)
        if applied and self._history is not None:
            self._record(self._backing.database)
        return applied

    def lag(self) -> int:
        """How many shipped records behind the primary this replica
        session is (0 for primary/in-memory sessions)."""
        return self._if_supported("lag", 0)

    def promote(self) -> Database:
        """Fail over: turn a replica session into a writable primary
        anchored at its last applied record.  Returns the database the
        new primary starts from."""
        durable = self._backing_op("promote", ReplicationError, "a replica")()
        self._kind, self._backing = "durable", durable
        self._record(durable.database)
        return durable.database

    # -- queries ---------------------------------------------------------------

    def query(self, source: TypingUnion[str, Expression]) -> State:
        """Parse and evaluate an expression against the current database.
        Expressions are side-effect-free: the session's database is
        unchanged.

        Query text runs through the plan cache: planned once per shape
        (texts differing only in rollback numerals, comparison literals,
        layout or comments share a plan), cost-optimized under current
        statistics, compiled, and re-planned only when the catalog
        changes or a relation it reads drifts in size (see the module
        docstring).  Pre-built :class:`Expression` values skip the cache
        and evaluate directly.
        """
        if _obsv.enabled():
            _obsv.get().counter("lang.queries").inc()
        if isinstance(source, str):
            return self._evaluate_plan(self._cached_expression(source))
        return self._backing.evaluate(source)

    def _evaluate_plan(self, query: _Query) -> State:
        """Evaluate a text's plan with its parameters bound,
        (re)optimizing and (re)compiling it first if it is stale.  The
        backing runs the plan, as it runs a tree: against its value, a
        staleness-guarded replica, or a coordinator's leaf routing."""
        plan = query.plan
        expression = self._planned_expression(plan, self._backing.database)
        compiled = plan.compiled
        if compiled is None or compiled.expression is not expression:
            compiled = plan.compiled = compile_expression(expression)
        if query.bound_from is not compiled:
            query.bound = compiled.bind(query.params)
            query.bound_from = compiled
        return self._backing.evaluate(query.bound)

    def _planned_expression(
        self, plan: _CachedPlan, database: Database
    ) -> Expression:
        """The plan's optimized template, valid for ``database``.

        A plan licensed by one catalog can be wrong under another (a
        scheme-dependent rewrite), so it is rebuilt when the catalog
        token moves.  It is rebuilt too when a relation it reads has
        drifted past :data:`DRIFT_FACTOR` in size, since its costs were
        priced for the old sizes.  Writes that keep the catalog and the
        sizes keep the plan; a value already checked costs one identity
        test.
        """
        if not self._optimize:
            return plan.expression
        if plan.checked is database:
            return plan.optimized
        token = database.catalog_token
        if plan.token is not token or plan.drifted(database):
            stats = self.statistics()
            rewriter = CostGuidedRewriter(
                catalog=self.catalog(), stats=stats
            )
            plan.optimized = rewriter.rewrite(plan.expression)
            plan.compiled = None
            plan.token = token
            plan.cardinalities = {
                identifier: stats.cardinality(identifier)
                for identifier in plan.identifiers
            }
        plan.checked = database
        return plan.optimized

    def _cached_expression(self, source: str) -> _Query:
        """The entry for ``source``: a text seen recently is one dict
        probe; otherwise the text is lexed, and its shape finds the plan
        (parsing the template on a miss).

        Only plan misses, hits and evictions are counted: the per-text
        index is a shortcut past the lexer, and forgetting a text loses
        no plan.
        """
        queries = self._queries
        query = queries.get(source)
        if query is not None:
            queries.move_to_end(source)
            self._count_hit()
            return query
        capacity = self._plan_cache_capacity
        if capacity == 0:
            self._count_miss()
            return _Query(_CachedPlan(parse_expression(source)), ())
        tokens = tokenize(source)
        key, slots = query_shape(tokens)
        cache = self._plan_cache
        plan = cache.get(key)
        if plan is None:
            self._count_miss()
            plan = cache[key] = _CachedPlan(parse_expression(tokens, slots))
            if len(cache) > capacity:
                cache.popitem(last=False)
                self._plan_cache_evictions += 1
                if _obsv.enabled():
                    _obsv.get().counter("lang.plan_cache.evictions").inc()
        else:
            cache.move_to_end(key)
            self._count_hit()
        query = queries[source] = _Query(
            plan, tuple(tokens[slot].value for slot in slots)
        )
        if len(queries) > capacity:
            queries.popitem(last=False)
        return query

    def _count_hit(self) -> None:
        self._plan_cache_hits += 1
        if _obsv.enabled():
            _obsv.get().counter("lang.plan_cache.hits").inc()

    def _count_miss(self) -> None:
        self._plan_cache_misses += 1
        if _obsv.enabled():
            _obsv.get().counter("lang.plan_cache.misses").inc()

    def plan_cache_info(self) -> dict:
        """Occupancy and hit/miss accounting of the plan cache."""
        return {
            "capacity": self._plan_cache_capacity,
            "size": len(self._plan_cache),
            "hits": self._plan_cache_hits,
            "misses": self._plan_cache_misses,
            "evictions": self._plan_cache_evictions,
        }

    def statistics(self) -> Statistics:
        """Per-relation cardinality and version statistics collected
        from whatever is serving this session's reads."""
        return collect_statistics(self.database)

    def explain(self, source: TypingUnion[str, Expression]) -> str:
        """The optimizer's story for a query: the plan as written and
        the plan as it would run, with estimated costs and the rewrites
        the cost gate accepted."""
        if isinstance(source, str):
            query = self._cached_expression(source)
            expression = bind(query.plan.expression, query.params)
        else:
            expression = source
        stats = self.statistics()
        rewriter = CostGuidedRewriter(catalog=self.catalog(), stats=stats)
        optimized = rewriter.rewrite(expression)
        lines = [f"plan  (cost ≈ {rewriter.baseline_cost:.1f}):"]
        lines.extend(
            "  " + line
            for line in explain_plan(expression, stats).splitlines()
        )
        if optimized == expression:
            lines.append("optimized: no cost-reducing rewrite found")
        else:
            lines.append(
                f"optimized  (cost ≈ {rewriter.final_cost:.1f}):"
            )
            lines.extend(
                "  " + line
                for line in explain_plan(optimized, stats).splitlines()
            )
        for name, before, after, accepted in rewriter.trace:
            verdict = "kept" if accepted else "rejected"
            lines.append(
                f"  rewrite {name}: {before:.1f} -> {after:.1f} "
                f"({verdict})"
            )
        return "\n".join(lines)

    def current_state(self, identifier: str) -> State:
        """The named relation's most recent state, via ``ρ(I, now)``."""
        return self._backing.evaluate(Rollback(identifier, NOW))

    # -- Quel integration ---------------------------------------------------------

    def catalog(self) -> dict:
        """Schemas of every relation that currently has a state —
        the data dictionary the Quel translators need."""
        from repro.core.expressions import is_empty_set

        database = self.database
        schemas = {}
        for identifier in database.state:
            relation = database.require(identifier)
            state = relation.current_state
            if not is_empty_set(state):
                schemas[identifier] = state.schema
        return schemas

    def quel(self, source: str):
        """Execute a Quel-style statement against the session.

        Update statements (``append``/``delete``/``replace``) change the
        database and return the new :class:`Database`; ``retrieve``
        returns the resulting state.  Temporal statements (``append ...
        valid``, ``terminate ... at``) are tried when the snapshot-Quel
        parser rejects the input.
        """
        from repro.errors import ParseError, TranslationError
        from repro.quel.parser import parse_statement
        from repro.quel.statements import Delete, Retrieve
        from repro.quel.temporal import (
            TemporalDelete,
            TemporalQuelTranslator,
            parse_temporal_statement,
        )
        from repro.quel.translate import QuelTranslator

        catalog = self.catalog()
        try:
            statement = parse_statement(source)
        except ParseError:
            # not plain Quel; must be a temporal statement
            # (append ... valid / terminate ... at)
            temporal = parse_temporal_statement(source)
            command = TemporalQuelTranslator(catalog).translate(temporal)
            return self.execute_command(command)

        if isinstance(statement, Retrieve):
            if _obsv.enabled():
                _obsv.get().counter("lang.queries").inc()
            expression = QuelTranslator(catalog).translate_retrieve(
                statement
            )
            return self._backing.evaluate(expression)

        # dispatch updates on the target relation's kind
        relation = self.database.lookup(statement.relation)
        if relation is None:
            raise TranslationError(
                f"relation {statement.relation!r} is not defined"
            )
        if relation.rtype.stores_valid_time:
            if isinstance(statement, Delete):
                command = TemporalQuelTranslator(catalog).translate(
                    TemporalDelete(statement.relation, statement.where)
                )
                return self.execute_command(command)
            raise TranslationError(
                f"relation {statement.relation!r} stores valid time; "
                "use 'append ... valid <periods>' or "
                "'terminate ... at <chronon>'"
            )
        command = QuelTranslator(catalog).translate(statement)
        return self.execute_command(command)

    def display(self, identifier: str, numeral=NOW) -> str:
        """Render the named relation's state at the given transaction time
        as an aligned text table."""
        from repro.core.expressions import is_empty_set

        state = self._backing.evaluate(Rollback(identifier, numeral))
        if is_empty_set(state):
            return f"{identifier}\n(no recorded state)"
        return format_state(state, title=identifier)


def format_state(state: State, title: str = "") -> str:
    """Render a snapshot or historical state as an aligned text table
    (its :meth:`~repro.snapshot.state.SnapshotState.table`), under
    ``title`` when one is given."""
    table = state.table()
    return f"{title}\n{table}" if title else table
