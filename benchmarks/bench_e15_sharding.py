"""E15 — sharding: scatter-gather overhead and rebalance cost.

Four questions the coordinator answers empirically:

* what command throughput looks like as the shard count grows — the
  coordinator adds an owner-map lookup and a numeral-translation layer
  on top of each shard's own execute path;
* what a historical read (``ρ(I, N)`` at a past global transaction)
  costs through the owner-shard translation, by shard count;
* what cross-shard reads cost — a single-shard query against 2-way and
  4-way scatter-gather unions merged at the coordinator; and
* what a rebalance costs as a function of how many identifiers move,
  split into the WAL-replay and state-copy strategies.

A fifth question is about shape: a coordinator request should cost what
it changes.  ``elements_validated_per_round`` counts the relation
elements validated per round of one append and one planned read through
a two-shard session; ``bench_payload`` commits its value at history
depth 2,000 over depth 100 as ``BENCH_e15.json``.  It is 1 when the
coordinator keeps its global value and folds in only the new element.

``--smoke`` shrinks the workload for CI; with ``REPRO_METRICS_JSON``
set, the sidecar carries the ``shard.*`` counters (commands routed vs
coordinated, query fan-out, rebalance move strategies).
"""

from __future__ import annotations

import random
import sys
import time
from unittest import mock

from repro.core import relation as relation_module
from repro.core.commands import DefineRelation, ModifyState
from repro.core.expressions import Const, Rollback, Union
from repro.core.txn import NOW
from repro.lang.session import Session
from repro.sharding import HashPartitioner, ShardedDatabase
from repro.workloads import StateGenerator

FULL = dict(
    commands=600,
    identifiers=16,
    shard_counts=(1, 2, 4, 8),
    queries=300,
    repeat=3,
)
SMOKE = dict(
    commands=150,
    identifiers=8,
    shard_counts=(1, 4),
    queries=60,
    repeat=1,
)

IDENT = "rel{:02d}".format


def command_stream(length: int, identifiers: int, seed: int = 3):
    """Defines followed by modifies over ``identifiers`` rollback
    relations; one in eight modifies reads a *different* relation, so
    the coordinated (cross-shard) write path is always exercised."""
    rng = random.Random(seed)
    generator = StateGenerator(seed=seed, key_space=64)
    commands = [
        DefineRelation(IDENT(i), "rollback") for i in range(identifiers)
    ]
    while len(commands) < length:
        target = rng.randrange(identifiers)
        expression = Const(generator.snapshot_state(3))
        if rng.random() < 0.125:
            other = (target + 1) % identifiers
            expression = Union(Rollback(IDENT(other), NOW), expression)
        commands.append(ModifyState(IDENT(target), expression))
    return commands


def _loaded(shards: int, config) -> ShardedDatabase:
    sharded = ShardedDatabase(shards, partitioner=HashPartitioner())
    for command in command_stream(
        config["commands"], config["identifiers"]
    ):
        sharded.execute(command)
    return sharded


def command_throughput(shards: int, config) -> float:
    """Commands/second through the coordinator, by shard count."""
    commands = command_stream(
        config["commands"], config["identifiers"]
    )
    with ShardedDatabase(
        shards, partitioner=HashPartitioner()
    ) as sharded:
        start = time.perf_counter()
        for command in commands:
            sharded.execute(command)
        elapsed = time.perf_counter() - start
        assert sharded.transaction_number > 0
    return len(commands) / elapsed


def rollback_latency(shards: int, config) -> float:
    """Mean microseconds per historical ``ρ(I, N)`` read (global
    numeral translated to the owner shard's local numbering)."""
    rng = random.Random(11)
    with _loaded(shards, config) as sharded:
        horizon = sharded.transaction_number
        probes = [
            Rollback(
                IDENT(rng.randrange(config["identifiers"])),
                rng.randrange(1, horizon + 1),
            )
            for _ in range(config["queries"])
        ]
        start = time.perf_counter()
        for probe in probes:
            sharded.evaluate(probe)
        elapsed = time.perf_counter() - start
    return elapsed / len(probes) * 1e6


def query_latency(shards: int, fanout: int, config) -> float:
    """Mean microseconds per query unioning ``fanout`` relations (the
    coordinator merges whatever spreads across shard boundaries)."""
    with _loaded(shards, config) as sharded:
        expression = Rollback(IDENT(0), NOW)
        for index in range(1, fanout):
            expression = Union(
                expression, Rollback(IDENT(index), NOW)
            )
        start = time.perf_counter()
        for _ in range(config["queries"]):
            sharded.evaluate(expression)
        elapsed = time.perf_counter() - start
    return elapsed / config["queries"] * 1e6


def rebalance_cost(shards: int, config) -> tuple[int, int, int, float]:
    """(moved, wal_replayed, state_copied, milliseconds) for one
    rebalance under a re-salted partitioner."""
    with _loaded(shards, config) as sharded:
        start = time.perf_counter()
        report = sharded.rebalance(HashPartitioner(salt=97))
        elapsed = time.perf_counter() - start
        return (
            report.moved,
            report.wal_replayed,
            report.state_copied,
            elapsed * 1000.0,
        )


def report(smoke: bool = False) -> str:
    config = SMOKE if smoke else FULL
    lines = [
        f"E15 — sharding ({config['commands']} commands over "
        f"{config['identifiers']} relations; "
        f"{'smoke' if smoke else 'full'} run)"
    ]
    lines.append("  command throughput (commands/s) by shard count:")
    for shards in config["shard_counts"]:
        rate = max(
            command_throughput(shards, config)
            for _ in range(config["repeat"])
        )
        lines.append(f"    {shards:2d} shard(s) {rate:10.0f}")
    lines.append(
        "  historical read latency (µs per ρ(I, N)) by shard count:"
    )
    for shards in config["shard_counts"]:
        micros = min(
            rollback_latency(shards, config)
            for _ in range(config["repeat"])
        )
        lines.append(f"    {shards:2d} shard(s) {micros:10.1f}")
    widest = max(config["shard_counts"])
    lines.append(
        f"  query latency (µs) on {widest} shard(s), by union width:"
    )
    for fanout in (1, 2, 4):
        micros = min(
            query_latency(widest, fanout, config)
            for _ in range(config["repeat"])
        )
        lines.append(f"    {fanout}-way union {micros:10.1f}")
    lines.append("  rebalance cost after the full sentence:")
    for shards in config["shard_counts"]:
        if shards == 1:
            continue
        moved, replayed, copied, millis = rebalance_cost(shards, config)
        lines.append(
            f"    {shards:2d} shard(s)  moved {moved:3d} "
            f"(wal-replayed {replayed:3d}, state-copied {copied:3d}) "
            f"{millis:8.1f} ms"
        )
    return "\n".join(lines)


SHALLOW, DEEP, ROUNDS = 100, 2000, 50
ROUND_QUERY = "select [key > 0] (rollback(r, now))"


def elements_validated_per_round(depth: int) -> float:
    """Relation elements validated (``_check_element`` calls) per round
    of one append and one planned read through a two-shard session
    whose one rollback relation already holds ``depth`` states, over
    ``ROUNDS`` rounds.  The shard validates the appended element; a
    coordinator that assembles the global value from scratch validates
    every element again on each assembly."""
    generator = StateGenerator(seed=5, key_space=64)
    writes = [
        ModifyState("r", Const(generator.snapshot_state(2)))
        for _ in range(depth + ROUNDS)
    ]
    validated = 0
    original = relation_module._check_element

    def counting(*args):
        nonlocal validated
        validated += 1
        return original(*args)

    with Session(shards=2) as session:
        session.execute("define_relation(r, rollback)")
        for command in writes[:depth]:
            session.execute_command(command)
        session.query(ROUND_QUERY)
        with mock.patch.object(relation_module, "_check_element", counting):
            for command in writes[depth:]:
                session.execute_command(command)
                session.query(ROUND_QUERY)
    return validated / ROUNDS


#: The same measurement at the commit before the coordinator kept its
#: global value (c1f38e4), where it is a deterministic count.
PARENT_NOTES = (
    "before (parent c1f38e4): coordinator_round_depth_ratio 16.1 "
    "(6,077.5 elements validated per round at depth 2000 vs 377.5 at "
    "depth 100: every write re-planned, and the session's execute, "
    "statistics and catalog each assembled the global value from "
    "scratch)."
)


def bench_payload() -> dict:
    """Perf-trajectory record for the committed ``BENCH_e15.json``."""
    shallow = elements_validated_per_round(SHALLOW)
    deep = elements_validated_per_round(DEEP)
    return {
        "experiment": "e15",
        "description": (
            "sharded coordinator: a write and a read cost what they "
            "change, not the history behind them"
        ),
        "measurements": {
            "coordinator_round_depth_ratio": {
                "kind": "ratio",
                "value": round(deep / shallow, 2),
                "ceiling": 1.1,
                "detail": (
                    f"relation elements validated per append + planned "
                    f"read round: {deep:g} at depth {DEEP} vs "
                    f"{shallow:g} at depth {SHALLOW} ({ROUNDS} rounds, "
                    f"two shards)"
                ),
            },
        },
        "notes": PARENT_NOTES,
    }


# -- pytest-benchmark entry points -----------------------------------------


def bench_command_throughput(benchmark):
    benchmark(command_throughput, 4, SMOKE)


def bench_rollback_latency(benchmark):
    benchmark(rollback_latency, 4, SMOKE)


def bench_rebalance(benchmark):
    benchmark(rebalance_cost, 4, SMOKE)


if __name__ == "__main__":
    from benchmarks.metrics_io import capture_metrics

    with capture_metrics("bench_e15_sharding"):
        print(report(smoke="--smoke" in sys.argv[1:]))
