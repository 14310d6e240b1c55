"""E14 — replication: apply throughput, lag, and catch-up latency.

Three questions the WAL-shipping layer answers empirically:

* how fast a replica applies the shipped command log — records/second
  through the full fetch → decode → execute → own-WAL pipeline, for
  each replica-side fsync policy;
* what lag looks like when a replica tails a primary that is writing
  under batch fsync — sampled after every poll round at several
  poll cadences; and
* what recovery from a partition costs — catch-up seconds as a
  function of how many records the replica missed, including the
  re-snapshot path when the primary compacted the missed tail away.

A fourth question is about shape: a replica that is one record behind
should pay for one record.  ``records_scanned_per_tail_fetch`` counts
the records CRC-checked while a primary's stream serves its newest
record; ``bench_payload`` commits its value at log depth 2,000 over
depth 100 as ``BENCH_e14.json``.  It is 1 when a read starts at the
wanted record's frame instead of scanning its segment from byte 0.

``--smoke`` shrinks the workload for CI; with ``REPRO_METRICS_JSON``
set, the sidecar carries the ``repl.*`` counters (batches fetched,
records applied, resnapshots, retry traffic).
"""

from __future__ import annotations

import sys
import time
import zlib
from unittest import mock

from repro.core.commands import DefineRelation, ModifyState
from repro.core.expressions import Const
from repro.durability import DurableDatabase, MemoryStore
from repro.replication import PrimaryStream, Replica, RetryPolicy
from repro.workloads import StateGenerator

FULL = dict(
    records=800,
    cadences=(1, 8, 32),
    partitions=(100, 300, 800),
    repeat=3,
)
SMOKE = dict(
    records=150,
    cadences=(1, 16),
    partitions=(40, 150),
    repeat=1,
)


def command_stream(length: int, seed: int = 3):
    generator = StateGenerator(seed=seed, key_space=64)
    commands = [DefineRelation("r", "rollback")]
    for _ in range(length - 1):
        commands.append(
            ModifyState("r", Const(generator.snapshot_state(3)))
        )
    return commands


def _primary(length: int, **kwargs) -> DurableDatabase:
    kwargs.setdefault("fsync", "never")
    kwargs.setdefault("checkpoint_every", 0)
    primary = DurableDatabase(MemoryStore(), **kwargs)
    for command in command_stream(length):
        primary.execute(command)
    return primary


def apply_throughput(length: int, fsync: str) -> float:
    """Records/second a replica applies while catching up a primary
    that already holds ``length`` records."""
    primary = _primary(length)
    replica = Replica(
        PrimaryStream(primary),
        fsync=fsync,
        retry=RetryPolicy.none(),
    )
    start = time.perf_counter()
    applied = replica.catch_up()
    elapsed = time.perf_counter() - start
    assert applied == length
    assert replica.database == primary.database
    return length / elapsed


def lag_distribution(length: int, cadence: int) -> tuple[int, float, int]:
    """Tail a primary writing under batch fsync, polling every
    ``cadence`` commands; returns (max, mean, final) observed lag in
    records, sampled *before* each poll round."""
    primary = DurableDatabase(
        MemoryStore(), fsync="batch(32, 100)", checkpoint_every=0
    )
    replica = Replica(
        PrimaryStream(primary), retry=RetryPolicy.none()
    )
    samples = []
    for index, command in enumerate(command_stream(length)):
        primary.execute(command)
        if (index + 1) % cadence == 0:
            samples.append(replica.lag())
            replica.poll()
    final = replica.lag()
    replica.catch_up()
    assert replica.database == primary.database
    mean = sum(samples) / len(samples) if samples else 0.0
    return max(samples, default=0), mean, final


def catchup_after_partition(
    missed: int, total: int, compacted: bool
) -> tuple[float, bool]:
    """Seconds to catch up after missing ``missed`` of ``total``
    records; with ``compacted`` the primary checkpoints and drops the
    missed tail first, forcing the re-snapshot path."""
    primary = DurableDatabase(
        MemoryStore(),
        fsync="never",
        checkpoint_every=0,
        keep_checkpoints=1,
        segment_bytes=4096,
    )
    commands = command_stream(total)
    for command in commands[: total - missed]:
        primary.execute(command)
    replica = Replica(
        PrimaryStream(primary), retry=RetryPolicy.none()
    )
    replica.catch_up()
    for command in commands[total - missed :]:  # the partition window
        primary.execute(command)
    if compacted:
        primary.checkpoint()
    resnapshot_possible = (
        compacted and primary.wal.first_lsn > replica.applied_lsn + 1
    )
    start = time.perf_counter()
    replica.catch_up()
    seconds = time.perf_counter() - start
    assert replica.database == primary.database
    return seconds, resnapshot_possible


def throughput_table(config) -> list:
    return [
        (
            fsync,
            max(
                apply_throughput(config["records"], fsync)
                for _ in range(config["repeat"])
            ),
        )
        for fsync in ("never", "batch(64, 100)", "always")
    ]


def lag_table(config) -> list:
    return [
        (cadence, *lag_distribution(config["records"], cadence))
        for cadence in config["cadences"]
    ]


def partition_table(config) -> list:
    rows = []
    total = max(config["partitions"])
    for missed in config["partitions"]:
        for compacted in (False, True):
            seconds, resnapshotted = catchup_after_partition(
                missed, total, compacted
            )
            rows.append((missed, compacted, resnapshotted, seconds))
    return rows


def report(smoke: bool = False) -> str:
    config = SMOKE if smoke else FULL
    lines = [
        f"E14 — replication ({config['records']} records; "
        f"{'smoke' if smoke else 'full'} run)"
    ]
    lines.append(
        "  replica apply throughput (records/s) by replica fsync:"
    )
    for fsync, rate in throughput_table(config):
        lines.append(f"    {fsync:16s} {rate:10.0f}")
    lines.append(
        "  lag tailing a batch-fsync primary, by poll cadence "
        "(records between polls):"
    )
    for cadence, worst, mean, final in lag_table(config):
        lines.append(
            f"    every {cadence:3d}  max lag {worst:4d}  "
            f"mean {mean:6.1f}  final {final:4d}"
        )
    lines.append("  catch-up after a partition (missed records):")
    for missed, compacted, resnapshotted, seconds in partition_table(
        config
    ):
        path = "re-snapshot" if resnapshotted else (
            "tail replay (compacted)" if compacted else "tail replay"
        )
        lines.append(
            f"    missed {missed:5d}  {path:23s} "
            f"{seconds * 1000.0:8.1f} ms"
        )
    return "\n".join(lines)


SHALLOW, DEEP = 100, 2000


def records_scanned_per_tail_fetch(depth: int) -> int:
    """Records CRC-checked while a primary whose log holds ``depth``
    records in one segment serves a replica the newest one."""
    primary = _primary(depth)
    assert len(primary.wal.segment_names()) == 1
    stream = PrimaryStream(primary)
    scanned = 0
    original = zlib.crc32

    def counting(*args):
        nonlocal scanned
        scanned += 1
        return original(*args)

    with mock.patch.object(zlib, "crc32", counting):
        batch = stream.fetch(depth - 1)
    assert [lsn for lsn, _ in batch] == [depth]
    primary.close()
    return scanned


#: The same count at the commit before WAL reads started at the wanted
#: record (c1f38e4).
PARENT_NOTES = (
    "before (parent c1f38e4): tail_fetch_depth_ratio 20.0 (2,000 records "
    "CRC-checked to serve the newest record at depth 2000 vs 100 at "
    "depth 100: every fetch re-scanned its segment from byte 0)."
)


def bench_payload() -> dict:
    """Perf-trajectory record for the committed ``BENCH_e14.json``."""
    shallow = records_scanned_per_tail_fetch(SHALLOW)
    deep = records_scanned_per_tail_fetch(DEEP)
    return {
        "experiment": "e14",
        "description": (
            "replication tail: serving the newest record must not cost "
            "the log behind it"
        ),
        "measurements": {
            "tail_fetch_depth_ratio": {
                "kind": "ratio",
                "value": round(deep / shallow, 2),
                "ceiling": 1.1,
                "detail": (
                    f"records CRC-checked per one-record fetch: {deep} at "
                    f"LSN {DEEP} vs {shallow} at LSN {SHALLOW} (one "
                    "segment)"
                ),
            },
        },
        "notes": PARENT_NOTES,
    }


# -- pytest-benchmark entry points -----------------------------------------


def bench_apply_throughput(benchmark):
    benchmark(apply_throughput, 80, "never")


def bench_catchup_tail(benchmark):
    benchmark(catchup_after_partition, 40, 80, False)


def bench_catchup_resnapshot(benchmark):
    benchmark(catchup_after_partition, 40, 80, True)


if __name__ == "__main__":
    from benchmarks.metrics_io import capture_metrics

    with capture_metrics("bench_e14_replication"):
        print(report(smoke="--smoke" in sys.argv[1:]))
