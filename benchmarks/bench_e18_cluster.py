"""E18 — cluster topology: replica fan-out reads and failover under load.

The cluster's read path round-robins each shard's replica set, so read
*capacity* should scale with the number of replicas per shard.  As in
E17, the node's service time is simulated explicitly: every node
(primary or replica) serves reads under a per-node lock with a fixed
``service_ms`` sleep inside it — one request at a time per node, the
regime where extra replicas pay off.  The Python-level evaluator cost
is microseconds, so without the simulated service time the benchmark
would measure the GIL, not the topology.

Three sections:

* **replica fan-out** — the headline: aggregate ρ(I, now) throughput
  for 0/1/2/3 replicas per shard at a fixed reader pool.  0 replicas
  serves every read from the shard primary (one node per shard); K
  replicas spread the same reads over K nodes per shard.  The
  committed acceptance bar is a ≥2× aggregate speedup for 3 replicas
  vs the single-primary floor.
* **failover blip** — reads keep flowing while one shard fails over
  mid-run; reports the failover wall time and that zero reads failed.
* **catch-up cost** — records/second a fresh replica replays while
  bootstrapping from a populated primary's stream.

``--smoke`` shrinks the workload for CI; with ``REPRO_METRICS_JSON``
set the run also exports the ``cluster.*`` observability counters the
cluster-chaos CI job asserts on.
"""

from __future__ import annotations

import sys
import threading
import time

from repro.cluster import Cluster, ClusterConfig
from repro.core.commands import DefineRelation, ModifyState
from repro.core.expressions import Const, Rollback
from repro.core.txn import NOW
from repro.workloads.generators import StateGenerator

IDENTIFIERS = ("alpha", "beta", "gamma", "delta")

FULL = {
    "shards": 2,
    "readers": 8,
    "reads": 50,
    "service_ms": 4.0,
    "states": 12,
    "catchup_states": 200,
}
SMOKE = {
    "shards": 2,
    "readers": 4,
    "reads": 12,
    "service_ms": 4.0,
    "states": 6,
    "catchup_states": 60,
}


def _populate(cluster: Cluster, states: int) -> None:
    generator = StateGenerator(seed=18, key_space=40)
    for identifier in IDENTIFIERS:
        cluster.execute(DefineRelation(identifier, "rollback"))
    for _ in range(states):
        for identifier in IDENTIFIERS:
            cluster.execute(
                ModifyState(
                    identifier, Const(generator.snapshot_state(3))
                )
            )
    cluster.catch_up()


def _throttle_nodes(cluster: Cluster, service_ms: float) -> None:
    """Wrap every node's ``evaluate`` in a per-node lock holding a
    ``service_ms`` sleep — one in-flight read per node, exactly the
    shape a real storage node's request queue imposes.  The sleep
    releases the GIL, so distinct nodes serve genuinely in parallel."""
    delay = service_ms / 1000.0

    def throttled(node):
        inner = node.evaluate
        lock = threading.Lock()

        def evaluate(expression):
            with lock:
                time.sleep(delay)
                return inner(expression)

        return evaluate

    for index in range(cluster.shard_count):
        primary = cluster.sharded.shards[index]
        primary.evaluate = throttled(primary)
        for replica in cluster.replicas(index):
            replica.evaluate = throttled(replica)


def _hammer(cluster: Cluster, readers: int, reads: int) -> float:
    """``readers`` threads each issuing ``reads`` ρ(I, now) fan-out
    reads; returns wall seconds.  Any read error fails the bench."""
    errors: "list[BaseException]" = []

    def one(offset: int) -> None:
        try:
            for position in range(reads):
                identifier = IDENTIFIERS[
                    (offset + position) % len(IDENTIFIERS)
                ]
                cluster.evaluate(Rollback(identifier, NOW))
        except BaseException as error:  # noqa: BLE001 — rethrown below
            errors.append(error)

    threads = [
        threading.Thread(target=one, args=(offset,))
        for offset in range(readers)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return wall


def replica_fanout(config: dict) -> "dict[int, float]":
    """Aggregate read throughput (req/s) per replicas-per-shard."""
    results: "dict[int, float]" = {}
    total = config["readers"] * config["reads"]
    for replicas in (0, 1, 2, 3):
        with Cluster(
            ClusterConfig(
                shards=config["shards"], replicas_per_shard=replicas
            )
        ) as cluster:
            _populate(cluster, config["states"])
            _throttle_nodes(cluster, config["service_ms"])
            wall = _hammer(
                cluster, config["readers"], config["reads"]
            )
            results[replicas] = total / wall
    return results


def failover_blip(config: dict) -> "tuple[int, float]":
    """Reads flow while shard 0 fails over mid-run; returns the number
    of reads completed and the failover wall time."""
    with Cluster(
        ClusterConfig(shards=config["shards"], replicas_per_shard=2)
    ) as cluster:
        _populate(cluster, config["states"])
        _throttle_nodes(cluster, config["service_ms"])
        done = threading.Event()
        completed = [0]

        def read_loop() -> None:
            while not done.is_set():
                cluster.evaluate(Rollback(IDENTIFIERS[0], NOW))
                completed[0] += 1

        reader = threading.Thread(target=read_loop)
        reader.start()
        try:
            time.sleep(0.05)
            started = time.perf_counter()
            cluster.failover(0)
            failover_wall = time.perf_counter() - started
            time.sleep(0.05)
        finally:
            done.set()
            reader.join()
        assert completed[0] > 0, "no reads completed around failover"
        return completed[0], failover_wall


def catchup_rate(config: dict) -> "tuple[int, float]":
    """(records, records/s) for a fresh replica bootstrapping from a
    populated primary's stream."""
    with Cluster(
        ClusterConfig(shards=1, replicas_per_shard=0)
    ) as cluster:
        generator = StateGenerator(seed=81, key_space=40)
        cluster.execute(DefineRelation("bulk", "rollback"))
        for _ in range(config["catchup_states"]):
            cluster.execute(
                ModifyState("bulk", Const(generator.snapshot_state(3)))
            )
        started = time.perf_counter()
        cluster.add_replica(0)
        records = cluster.catch_up()
        wall = time.perf_counter() - started
        # sample the caught-up replica's lag (the
        # cluster.shard_lag_records histogram) outside the timed window
        assert cluster.lags() == {0: [0]}
        return records, records / wall


# -- reporting ---------------------------------------------------------------


def report(smoke: bool = False) -> str:
    config = SMOKE if smoke else FULL
    lines = [
        "E18 — cluster topology: sharded primaries x replica sets "
        f"({'smoke' if smoke else 'full'} run)"
    ]

    fanout = replica_fanout(config)
    base = fanout[0]
    lines.append(
        f"  replica fan-out ({config['shards']} shards, "
        f"{config['readers']} readers x {config['reads']} reads, "
        f"{config['service_ms']:.0f}ms simulated service time/node):"
    )
    for replicas, throughput in fanout.items():
        lines.append(
            f"    {replicas} replicas/shard: {throughput:8.0f} req/s  "
            f" speedup {throughput / base:5.2f}x"
        )

    completed, failover_wall = failover_blip(config)
    lines.append(
        f"  failover blip: {completed} reads completed around a "
        f"mid-run failover taking {failover_wall * 1e3:.1f} ms, "
        "zero read errors"
    )

    records, rate = catchup_rate(config)
    lines.append(
        f"  catch-up: fresh replica replayed {records} records at "
        f"{rate:.0f} records/s"
    )
    return "\n".join(lines)


def bench_payload() -> dict:
    """Perf-trajectory record for the committed ``BENCH_e18.json``."""
    config = FULL
    fanout = replica_fanout(config)
    completed, failover_wall = failover_blip(config)
    return {
        "experiment": "e18",
        "description": (
            "cluster topology: aggregate replica fan-out read "
            "throughput scaling with the per-shard replica set, vs "
            "the single-primary floor, under a simulated per-node "
            "service time"
        ),
        "measurements": {
            "replica_fanout_3v0_speedup": {
                "kind": "speedup",
                "value": round(fanout[3] / fanout[0], 2),
                "floor": 2.0,
                "detail": (
                    f"{fanout[0]:.0f} req/s @0 replicas -> "
                    f"{fanout[3]:.0f} req/s @3 replicas/shard "
                    f"({config['service_ms']:.0f}ms simulated "
                    "service time per node)"
                ),
            },
            "replica_fanout_2v0_speedup": {
                "kind": "speedup",
                "value": round(fanout[2] / fanout[0], 2),
                "floor": 1.4,
                "detail": f"{fanout[2]:.0f} req/s @2 replicas/shard",
            },
            "failover_blip": {
                "kind": "count",
                "value": completed,
                "detail": (
                    f"reads completed around a mid-run failover "
                    f"({failover_wall * 1e3:.1f} ms), zero errors"
                ),
            },
        },
    }


# -- pytest-benchmark entry points -------------------------------------------


def bench_cluster_fanout_read(benchmark):
    with Cluster(
        ClusterConfig(shards=2, replicas_per_shard=1)
    ) as cluster:
        _populate(cluster, 4)
        benchmark(cluster.evaluate, Rollback(IDENTIFIERS[0], NOW))


def bench_cluster_failover(benchmark):
    def failover_once():
        with Cluster(
            ClusterConfig(shards=1, replicas_per_shard=1)
        ) as cluster:
            _populate(cluster, 2)
            cluster.failover(0)

    benchmark(failover_once)


if __name__ == "__main__":
    from benchmarks.metrics_io import capture_metrics

    with capture_metrics("bench_e18_cluster"):
        print(report(smoke="--smoke" in sys.argv[1:]))
