"""The four seeded workloads and the server each one runs against.

A workload is plain data: the flags of the server to start, a
``preload`` sent first over one connection (so the transaction number
of every preloaded version is known to the generator), and one timed
stream per connection.  Relations are namespaced per connection, so a
connection's replies depend on its own stream only and one in-process
``Session`` is the oracle for both.  The server receives nothing but
the sentences.

Request counts are the rate in ``WORKLOADS`` × ``--seconds``: a run is a fixed,
seeded amount of work, so two commits are compared on identical
requests at identical history depth.  The rates were measured once on
the seed commit (2 cores, Python 3.11) so that the timed window lasts
about ``--seconds`` there, and are frozen.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

from repro.core.expressions import Const
from repro.lang.ast_printer import format_command, format_expression
from repro.quel import QuelTranslator, parse_statement
from repro.sharding.partition import HashPartitioner
from repro.workloads.generators import StateGenerator, default_schema
from repro.workloads.sentences import EXECUTE, QUERY

#: Closed loop over this many connections: the box has two cores, one
#: for the server and one for the generator, and each caller waits for
#: its reply.  A constant, not a knob.
CONNECTIONS = 2

#: The first share of every timed stream is sent untimed, as part of
#: set-up, so caches fill and lazy imports finish before the clock runs.
WARMUP_SHARE = 0.05

SCHEMA = default_schema(2)

CLUSTER_SHARDS = 2
CLUSTER_REPLICAS = 1

#: ``time_travel_scan`` history: versions and tuples per relation.
SCAN_VERSIONS = 128
SCAN_TUPLES = 100

_WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot")


@dataclass(frozen=True)
class Backing:
    """The served database: a durable directory under ``fsync``, or a
    2-shard × 1-replica cluster (default batch fsync, freshness
    ``fresh``)."""

    fsync: str = "batch(64, 100)"
    cluster: bool = False

    def serve_args(self, directory: str) -> "list[str]":
        """Flags for ``python -m repro serve``."""
        if self.cluster:
            return [
                "--cluster-shards", str(CLUSTER_SHARDS),
                "--cluster-replicas", str(CLUSTER_REPLICAS),
                "--cluster-dir", directory,
            ]
        return ["--durable-dir", directory, "--fsync", self.fsync]

    def server_config(self, directory: str):
        """The same server as ``serve_args``, for an in-process run."""
        from repro.server import ServerConfig

        if self.cluster:
            return ServerConfig(
                workers=2, cluster=self._cluster_config(directory, False)
            )
        return ServerConfig(
            workers=2, durable_dir=directory, fsync=self.fsync
        )

    def reopen(self, directory: str):
        """Recover the database a killed server left in ``directory``;
        returns ``(store, replayed)`` where ``store`` has ``evaluate``
        and ``close`` and ``replayed`` counts WAL records re-executed."""
        if self.cluster:
            from repro.cluster import Cluster

            cluster = Cluster(self._cluster_config(directory, True))
            replayed = sum(
                primary.last_recovery.replayed
                for primary in cluster.primaries
            )
            return cluster, replayed
        from repro.durability import DurableDatabase

        database = DurableDatabase(directory, fsync=self.fsync)
        return database, database.last_recovery.replayed

    @staticmethod
    def _cluster_config(directory: str, reopen: bool):
        from repro.cluster import ClusterConfig

        return ClusterConfig(
            shards=CLUSTER_SHARDS,
            replicas_per_shard=CLUSTER_REPLICAS,
            directory=directory,
            reopen=reopen,
        )


@dataclass(frozen=True)
class Workload:
    """One generated instance: everything a run sends, in order."""

    name: str
    backing: Backing
    #: ``(kind, sentence)`` pairs sent first, over connection 0; every
    #: item is one command, so item ``n`` commits transaction ``n``.
    preload: "list[tuple[str, str]]"
    #: One timed stream per connection.
    streams: "list[list[tuple[str, str]]]"
    #: The relations each connection owns.
    relations: "list[list[str]]"

    @property
    def stream_sha256(self) -> str:
        """Digest of every byte the run sends: two runs that print the
        same value sent the server the same sentences."""
        digest = hashlib.sha256()
        for kind, text in itertools.chain(self.preload, *self.streams):
            digest.update(f"{kind}\t{text}\n".encode("utf-8"))
        return digest.hexdigest()

    def interleaved(self) -> "list[tuple[str, str]]":
        """The timed streams merged round-robin — what the traced run
        sends over its single connection."""
        merged = itertools.chain.from_iterable(
            itertools.zip_longest(*self.streams)
        )
        return [item for item in merged if item is not None]


# -- sentence recipes ----------------------------------------------------------


def _relation(connection: int, index: int) -> str:
    return f"c{connection}_r{index}"


def _define(name: str) -> "tuple[str, str]":
    return EXECUTE, f"define_relation({name}, rollback)"


def _replace_state(
    states: StateGenerator, name: str, cardinality: int
) -> "tuple[str, str]":
    literal = format_expression(Const(states.snapshot_state(cardinality)))
    return EXECUTE, f"modify_state({name}, {literal})"


def _quel(translator: QuelTranslator, *statements: str) -> "tuple[str, str]":
    """Quel statements as the ``modify_state`` sentence a Quel front-end
    would put on the wire."""
    return EXECUTE, "; ".join(
        format_command(translator.translate(parse_statement(statement)))
        for statement in statements
    )


def _quel_append(rng: random.Random, name: str, key_space: int) -> str:
    word = f"{rng.choice(_WORDS)}-{rng.randrange(10_000)}"
    return (
        f'append to {name} (key = {rng.randrange(key_space)}, '
        f'a1 = "{word}")'
    )


def _quel_delete(rng: random.Random, name: str, key_space: int) -> str:
    return f"delete from {name} where key = {rng.randrange(key_space)}"


def _quel_update(
    rng: random.Random,
    translator: QuelTranslator,
    shape: str,
    name: str,
    key_space: int,
) -> "tuple[str, str]":
    """One small Quel update of ``shape``.  The workloads send append,
    delete and replace 2 : 1 : 1; with ``key_space`` keys the state
    then settles near 1.5 × ``key_space`` tuples.

    Quel ``replace`` translates to a ``Rename`` node, which the
    language has no concrete syntax for, so it cannot cross the wire
    (or enter the WAL); it is sent as the delete + append pair the
    translator's own error message recommends, in one sentence."""
    statements = []
    if shape != "append":
        statements.append(_quel_delete(rng, name, key_space))
    if shape != "delete":
        statements.append(_quel_append(rng, name, key_space))
    return _quel(translator, *statements)


def _mix(
    rng: random.Random,
    total: int,
    shares: "tuple[tuple[str, float], ...]",
    names: "list[str]",
) -> "list[tuple[str, str]]":
    """``total`` shuffled ``(shape, relation)`` pairs holding each
    shape in exactly its share (the last takes the rounding) and
    spreading each shape evenly over ``names``.  Every seed therefore
    sends the same number of each operation to each relation: history
    depth, and where in the 256-command checkpoint cycle a run ends,
    do not depend on the seed."""
    counts = [round(total * share) for _, share in shares[:-1]]
    counts.append(total - sum(counts))
    pairs = [
        (shape, names[index % len(names)])
        for (shape, _), count in zip(shares, counts)
        for index in range(count)
    ]
    rng.shuffle(pairs)
    return pairs


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _states(rng: random.Random, key_space: int) -> StateGenerator:
    return StateGenerator(
        SCHEMA, seed=rng.randrange(2**31), key_space=key_space
    )


# -- the workloads ---------------------------------------------------------------


def read_hot(seed: int, requests: int) -> Workload:
    """Per-request fixed cost and nothing else: reads drawn from 24
    query texts per connection over 3 relations × 64 versions × 8
    tuples, at a constant transaction number, so every read is a
    plan-cache hit on a compiled plan.  Framing, admission, asyncio
    hops, cache lookup and a small render are all there is; engine,
    optimizer and WAL idle.  A wire or server change shows here and an
    engine change must not.  Each stream ends with a tail of
    whole-state writes (1% of its length), after its last read, so the
    workload has a write latency without moving the transaction number
    under a read."""
    rng = _rng("read_hot", seed)
    states = _states(rng, 50)
    preload, streams, relations = [], [], []
    for connection in range(CONNECTIONS):
        names = [_relation(connection, index) for index in range(3)]
        texts = []
        for name in names:
            preload.append(_define(name))
            preload += [_replace_state(states, name, 8) for _ in range(64)]
            texts.append(f"rollback({name}, now)")
            texts.append(f"project [key] (rollback({name}, now))")
            texts += [
                f"select [key < {bound}] (rollback({name}, now))"
                for bound in rng.sample(range(5, 50), 6)
            ]
        stream = [(QUERY, rng.choice(texts)) for _ in range(requests)]
        stream += [
            _replace_state(states, names[index % 3], 8)
            for index in range(max(20, requests // 100))
        ]
        streams.append(stream)
        relations.append(names)
    return Workload(
        "read_hot", Backing(), preload, streams, relations
    )


SCAN_SHARES = (
    ("append", 0.05),
    ("rollback", 0.2375),
    ("select", 0.2375),
    ("project", 0.2375),
    ("minus", 0.2375),
)


def time_travel_scan(seed: int, requests: int) -> Workload:
    """The paper's audit questions at a random past transaction number
    over 2 relations × 128 versions × ~100 tuples per connection: 95%
    reads (rollback, select, project, and the difference of two past
    states), 5% small appends.  The texts are almost all distinct, so
    the 128-entry plan cache misses and evicts, and results are ~1 KB
    tables.  The one workload larger than the program's own cache and
    dominated by core, optimizer and result rendering; find_state reads
    the same version chains write_durable appends to."""
    rng = _rng("time_travel_scan", seed)
    key_space = 4 * SCAN_TUPLES
    states = _states(rng, key_space)
    preload, streams, relations = [], [], []
    first_version = {}
    for connection in range(CONNECTIONS):
        names = [_relation(connection, index) for index in range(2)]
        translator = QuelTranslator(dict.fromkeys(names, SCHEMA))
        for name in names:
            preload.append(_define(name))
            preload.append(_replace_state(states, name, SCAN_TUPLES))
            first_version[name] = len(preload)
            for _ in range(SCAN_VERSIONS - 1):
                statement = rng.choice((_quel_append, _quel_delete))(
                    rng, name, key_space
                )
                preload.append(_quel(translator, statement))
        relations.append(names)
    last_version = len(preload)

    def past(name: str) -> str:
        txn = rng.randint(first_version[name], last_version)
        return f"rollback({name}, {txn})"

    for names in relations:
        translator = QuelTranslator(dict.fromkeys(names, SCHEMA))
        stream = []
        for shape, name in _mix(rng, requests, SCAN_SHARES, names):
            if shape == "append":
                stream.append(
                    _quel(translator, _quel_append(rng, name, key_space))
                )
                continue
            if shape == "rollback":
                text = past(name)
            elif shape == "select":
                bound = rng.randrange(1, key_space)
                text = f"select [key < {bound}] ({past(name)})"
            elif shape == "project":
                text = f"project [key] ({past(name)})"
            else:
                text = f"{past(name)} minus {past(name)}"
            stream.append((QUERY, text))
        streams.append(stream)
    return Workload(
        "time_travel_scan", Backing(), preload, streams, relations
    )


DURABLE_SHARES = (
    ("append", 0.45),
    ("delete", 0.225),
    ("replace", 0.225),
    ("read", 0.1),
)


def write_durable(seed: int, requests: int) -> Workload:
    """Writes beside reads under ``--fsync always``, the one policy
    where acknowledged means durable: 90% Quel append / delete /
    replace statements (translated by repro.quel at generation time)
    and 10% ``rollback(r, now)`` over 2 relations × ~24 tuples per
    connection, so history grows from depth 1 by one version per
    command and checkpoints fire every 256 commands.  Parsing of
    literals, command execution, WAL codec, append, fsync and
    checkpoint carry the load while optimizer and compiled engine
    idle: the opposite use of the same server as read_hot."""
    rng = _rng("write_durable", seed)
    key_space = 16
    states = _states(rng, key_space)
    preload, streams, relations = [], [], []
    for connection in range(CONNECTIONS):
        names = [_relation(connection, index) for index in range(2)]
        translator = QuelTranslator(dict.fromkeys(names, SCHEMA))
        for name in names:
            preload.append(_define(name))
            preload.append(_replace_state(states, name, key_space))
        stream = []
        for shape, name in _mix(rng, requests, DURABLE_SHARES, names):
            if shape == "read":
                stream.append((QUERY, f"rollback({name}, now)"))
            else:
                stream.append(
                    _quel_update(rng, translator, shape, name, key_space)
                )
        streams.append(stream)
        relations.append(names)
    return Workload(
        "write_durable",
        Backing(fsync="always"),
        preload,
        streams,
        relations,
    )


CLUSTER_SHARES = (
    ("append", 0.25),
    ("delete", 0.125),
    ("replace", 0.125),
    ("cross", 0.225),
    ("rollback", 0.135),
    ("select", 0.14),
)


def cluster_mixed(seed: int, requests: int) -> Workload:
    """The composed topology: 2 shards × 1 replica, freshness
    ``fresh``, 50% Quel updates and 50% reads over 4 relations × ~12
    tuples per connection placed (with the public
    HashPartitioner.shard_for) so each connection owns two relations
    on each shard; 45% of reads are the union or difference of two
    relations on different shards.  Coordinator journal, per-shard
    WALs, replica catch-up before every read, scatter-gather and merge
    do most of the work here and none in the other three, so a
    single-node optimisation predicts no change."""
    rng = _rng("cluster_mixed", seed)
    key_space = 8
    states = _states(rng, key_space)
    partitioner = HashPartitioner()
    preload, streams, relations = [], [], []
    for connection in range(CONNECTIONS):
        by_shard = [[] for _ in range(CLUSTER_SHARDS)]
        for index in itertools.count():
            name = _relation(connection, index)
            shard = by_shard[partitioner.shard_for(name, CLUSTER_SHARDS)]
            if len(shard) < 2:
                shard.append(name)
            if all(len(shard) == 2 for shard in by_shard):
                break
        names = sorted(itertools.chain.from_iterable(by_shard))
        translator = QuelTranslator(dict.fromkeys(names, SCHEMA))
        for name in names:
            preload.append(_define(name))
            preload.append(_replace_state(states, name, key_space))
        stream = []
        for shape, name in _mix(rng, requests, CLUSTER_SHARES, names):
            if shape == "cross":
                text = (
                    f"rollback({rng.choice(by_shard[0])}, now) "
                    f"{rng.choice(('union', 'minus'))} "
                    f"rollback({rng.choice(by_shard[1])}, now)"
                )
            elif shape == "rollback":
                text = f"rollback({name}, now)"
            elif shape == "select":
                bound = rng.randrange(1, key_space)
                text = f"select [key < {bound}] (rollback({name}, now))"
            else:
                stream.append(
                    _quel_update(rng, translator, shape, name, key_space)
                )
                continue
            stream.append((QUERY, text))
        streams.append(stream)
        relations.append(names)
    return Workload(
        "cluster_mixed",
        Backing(cluster=True),
        preload,
        streams,
        relations,
    )


#: Generator and frozen requests per connection per second of
#: ``--seconds``, by workload name.
WORKLOADS = {
    "read_hot": (read_hot, 3500),
    "time_travel_scan": (time_travel_scan, 900),
    "write_durable": (write_durable, 300),
    "cluster_mixed": (cluster_mixed, 240),
}


def generate(name: str, seed: int, seconds: float) -> Workload:
    """The workload ``name`` for ``seed``, sized for a timed window of
    about ``seconds`` on the seed commit."""
    generator, rate = WORKLOADS[name]
    return generator(seed, max(40, round(rate * seconds)))
