"""E12 — durability: WAL append throughput and recovery latency.

Two questions the durability subsystem answers empirically:

* what each fsync policy costs on the append path — commands/second
  through a :class:`DurableDatabase` over a real directory, where
  ``always`` pays one fsync per command, ``batch`` amortizes it, and
  ``never`` defers it entirely; and
* how recovery latency scales with the length of the WAL tail past the
  last checkpoint — replay is linear in the tail, so checkpoints bound
  restart time at the checkpoint interval.

A third question is about shape, not speed: a write should cost what
it changes.  ``depth_ratios`` reports the mean ``DurableDatabase.execute``
time at history depth 2,000 over that at depth 100, and the bytes the
last checkpoint of the 8th segment chain publishes (its 64th cycle) over
the last of the 1st chain (its 8th); both are 1 when nothing on the
write path re-pays for history (``bench_payload`` commits them as
``BENCH_e12.json``).  The first checkpoint of each chain re-writes the
live history by design; its bytes are reported, not gated.  Recovery's
counterpart is
``rows_built_on_open``: ``SnapshotTuple`` constructions while a
``DurableDatabase`` opens from a checkpoint, over the distinct rows of
the history it holds — 1 when each row is validated and built once,
however many states repeat it.

``--smoke`` shrinks the workload for CI; with ``REPRO_METRICS_JSON``
set, the sidecar carries the ``wal.*`` counters (records appended,
fsyncs, rotations, checkpoints, recovery replay lengths).
"""

from __future__ import annotations

import sys
import tempfile
import time
from unittest import mock

from repro.core.commands import DefineRelation, ModifyState
from repro.core.expressions import Const, Rollback, Union
from repro.core.txn import NOW
from repro.durability import DurableDatabase, MemoryStore
from repro.durability.checkpoint import CHAIN_SEGMENTS
from repro.snapshot.tuples import SnapshotTuple
from repro.workloads import StateGenerator

POLICIES = ("always", "batch(32, 100)", "never")

FULL = dict(appends=600, tails=(0, 100, 300, 600), repeat=3)
SMOKE = dict(appends=120, tails=(0, 40, 120), repeat=1)


def command_stream(length: int, seed: int = 3):
    """``define_relation`` plus ``length − 1`` constant-state updates."""
    generator = StateGenerator(seed=seed, key_space=64)
    commands = [DefineRelation("r", "rollback")]
    for _ in range(length - 1):
        commands.append(
            ModifyState("r", Const(generator.snapshot_state(3)))
        )
    return commands


def append_throughput(length: int, policy: str) -> float:
    """Commands/second through a DurableDatabase on a real directory."""
    commands = command_stream(length)
    with tempfile.TemporaryDirectory(prefix="repro-e12-") as tmp:
        with DurableDatabase(
            tmp, fsync=policy, checkpoint_every=0
        ) as ddb:
            start = time.perf_counter()
            for command in commands:
                ddb.execute(command)
            ddb.sync()
            elapsed = time.perf_counter() - start
    return length / elapsed


def recovery_latency(
    tail: int, total: int, checkpointed: bool
) -> tuple[float, int]:
    """Open-time recovery cost after a log with ``tail`` un-checkpointed
    records; returns (seconds, records replayed)."""
    commands = command_stream(total)
    with tempfile.TemporaryDirectory(prefix="repro-e12-") as tmp:
        with DurableDatabase(
            tmp, fsync="never", checkpoint_every=0
        ) as ddb:
            for index, command in enumerate(commands):
                ddb.execute(command)
                if checkpointed and index == total - tail - 1:
                    ddb.checkpoint()
        start = time.perf_counter()
        recovered = DurableDatabase(tmp, checkpoint_every=0)
        seconds = time.perf_counter() - start
        result = recovered.last_recovery
        assert recovered.transaction_number == total
        recovered.close()
    return seconds, result.replayed


SHALLOW, DEEP, WINDOW = 100, 2000, 100
#: eight full segment chains of checkpoints, ``CYCLE_COMMANDS`` apart
CYCLES, CYCLE_COMMANDS = 8 * CHAIN_SEGMENTS, 256


def execute_cost_by_depth(repeat: int = 3) -> tuple[float, float]:
    """Mean seconds per ``DurableDatabase.execute`` over the ``WINDOW``
    commands that start at history depth ``SHALLOW`` and at ``DEEP``
    (in-memory store, no fsync, no checkpoints: the command path
    alone).  Best of ``repeat`` runs per window."""
    commands = command_stream(DEEP + WINDOW + 1)
    best = [float("inf"), float("inf")]
    for _ in range(repeat):
        ddb = DurableDatabase(
            MemoryStore(), fsync="never", checkpoint_every=0
        )
        stamps = [time.perf_counter()]
        for command in commands:
            ddb.execute(command)
            stamps.append(time.perf_counter())
        ddb.close()
        # stamps[k + 1] - stamps[k] times the command that takes the
        # relation from depth k - 1 to k (command 0 defines it)
        for slot, depth in enumerate((SHALLOW, DEEP)):
            mean = (stamps[depth + WINDOW + 1] - stamps[depth + 1]) / WINDOW
            best[slot] = min(best[slot], mean)
    return best[0], best[1]


class ReplaceCountingStore(MemoryStore):
    """A simulated disk that adds up the bytes ``replace`` publishes —
    every checkpoint write goes through it."""

    def __init__(self) -> None:
        super().__init__()
        self.replaced = 0

    def replace(self, name: str, data: bytes) -> None:
        self.replaced += len(data)
        super().replace(name, data)


def checkpoint_bytes_per_checkpoint() -> tuple[list[int], int]:
    """(bytes published by each of ``CYCLES`` checkpoints,
    ``CYCLE_COMMANDS`` appends apart; checkpoint files left on disk)."""
    counts = []
    commands = iter(command_stream(CYCLES * CYCLE_COMMANDS + 1))
    store = ReplaceCountingStore()
    ddb = DurableDatabase(store, fsync="never", checkpoint_every=0)
    ddb.execute(next(commands))
    for _ in range(CYCLES):
        for _ in range(CYCLE_COMMANDS):
            ddb.execute(next(commands))
        store.replaced = 0
        ddb.checkpoint()
        counts.append(store.replaced)
    ddb.close()
    files = sum(not name.startswith("wal-") for name in store.list())
    return counts, files


RECOVERY_DEPTH = 300


def rows_built_on_open() -> tuple[int, int]:
    """(``SnapshotTuple`` constructions during one ``DurableDatabase``
    open, distinct rows of the history it opens).  The history is
    ``RECOVERY_DEPTH`` appends of one row each to the current state
    (``rollback(r, now) union {row}``), as the paper's §3.5 relations
    grow, so each row recurs in every later state; it is checkpointed
    before closing, so the open replays no WAL."""
    generator = StateGenerator(seed=3)
    store = MemoryStore()
    with DurableDatabase(store, fsync="never", checkpoint_every=0) as ddb:
        ddb.execute(DefineRelation("r", "rollback"))
        for _ in range(RECOVERY_DEPTH):
            row = Const(generator.snapshot_state(1))
            ddb.execute(ModifyState("r", Union(Rollback("r", NOW), row)))
        ddb.checkpoint()
    distinct = len(
        {
            (row.schema, row.values, tuple(map(type, row.values)))
            for state, _ in ddb.database.require("r").rstate
            for row in state.tuples
        }
    )
    built = 0
    original = SnapshotTuple.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        original(self, *args, **kwargs)

    with mock.patch.object(SnapshotTuple, "__init__", counting):
        recovered = DurableDatabase(store, checkpoint_every=0)
    assert recovered.last_recovery.replayed == 0
    recovered.close()
    return built, distinct


def depth_ratios() -> dict:
    shallow, deep = execute_cost_by_depth()
    published, files = checkpoint_bytes_per_checkpoint()
    built, distinct = rows_built_on_open()
    return {
        "shallow_us": shallow * 1e6,
        "deep_us": deep * 1e6,
        "execute_ratio": deep / shallow,
        "published": published,
        # the last checkpoint of the 8th chain over the last of the 1st
        "published_ratio": published[-1] / published[CHAIN_SEGMENTS - 1],
        "checkpoint_files": files,
        "rows_built": built,
        "rows_distinct": distinct,
        "rows_built_ratio": built / distinct,
    }


def throughput_table(config) -> list:
    return [
        (
            policy,
            max(
                append_throughput(config["appends"], policy)
                for _ in range(config["repeat"])
            ),
        )
        for policy in POLICIES
    ]


def recovery_table(config) -> list:
    total = max(config["tails"])
    rows = []
    for tail in config["tails"]:
        seconds, replayed = recovery_latency(
            tail, total, checkpointed=tail < total
        )
        rows.append((tail, replayed, seconds))
    return rows


def report(smoke: bool = False) -> str:
    config = SMOKE if smoke else FULL
    lines = [
        f"E12 — durability ({config['appends']} commands; "
        f"{'smoke' if smoke else 'full'} run)"
    ]
    lines.append("  append throughput (commands/s) by fsync policy:")
    for policy, rate in throughput_table(config):
        lines.append(f"    {policy:16s} {rate:10.0f}")
    lines.append(
        "  recovery latency vs un-checkpointed WAL tail "
        f"(total history {max(config['tails'])}):"
    )
    for tail, replayed, seconds in recovery_table(config):
        lines.append(
            f"    tail {tail:5d}  replayed {replayed:5d}  "
            f"{seconds * 1000.0:8.1f} ms"
        )
    if not smoke:
        ratios = depth_ratios()
        lines.append(
            f"  execute cost at depth {DEEP} / depth {SHALLOW}: "
            f"{ratios['deep_us']:.0f} us / {ratios['shallow_us']:.0f} us"
            f" = {ratios['execute_ratio']:.2f}"
        )
        lines.append(
            f"  bytes published by checkpoint {CYCLES} / checkpoint "
            f"{CHAIN_SEGMENTS}: {ratios['published'][-1]} / "
            f"{ratios['published'][CHAIN_SEGMENTS - 1]}"
            f" = {ratios['published_ratio']:.2f}"
        )
        lines.append(
            f"  rows built on open / distinct rows of the history: "
            f"{ratios['rows_built']} / {ratios['rows_distinct']}"
            f" = {ratios['rows_built_ratio']:.2f}"
        )
    return "\n".join(lines)


#: The "before" of each measurement: the first two at the commit before
#: the write path became depth-independent (f9ed76f), same host, two
#: runs; the third at the commit before checkpoint decode shared rows
#: (9e4226d), where it is a deterministic count.
PARENT_NOTES = (
    "before (parent f9ed76f): execute_depth_ratio 10.99 and 10.48 "
    "(1208us / 110us, 1239us / 118us); checkpoint_encoded_ratio 8.0 "
    "(states encoded per checkpoint 256, 512, 768, 1024, 1280, 1536, "
    "1792, 2048). What is left of the first ratio is the O(depth) "
    "pointer copy of the state-sequence tuple, about 2.5 ns per element. "
    "before (parent 9e4226d): recovery_rows_built_ratio 150.5 (45,150 "
    "SnapshotTuple constructions for 300 distinct rows: every row "
    "rebuilt and re-validated in every state that holds it). "
    "checkpoint_encoded_ratio gave way to checkpoint_bytes_ratio when "
    "checkpoints became segment chains: states are no longer encoded "
    "one by one through state_to_dict, so bytes are what is counted."
)


#: ``checkpoint_bytes_per_checkpoint`` at the commit before checkpoints
#: became segment chains, where each one re-wrote the whole history (a
#: deterministic count): checkpoints 1, 8 and 64, and the sum of all 64.
PARENT_BYTES_COMMIT = "088e931"
PARENT_BYTES = (76528, 612390, 4910907, 159456178)


def bench_payload() -> dict:
    """Perf-trajectory record for the committed ``BENCH_e12.json``."""
    ratios = depth_ratios()
    published = ratios["published"]
    return {
        "experiment": "e12",
        "description": (
            "durable write path: per-command and per-checkpoint cost "
            "must not grow with history depth"
        ),
        "measurements": {
            "execute_depth_ratio": {
                "kind": "ratio",
                "value": round(ratios["execute_ratio"], 2),
                "ceiling": 1.5,
                "detail": (
                    f"mean DurableDatabase.execute {ratios['deep_us']:.1f}us"
                    f" at depth {DEEP} vs {ratios['shallow_us']:.1f}us at "
                    f"depth {SHALLOW} ({WINDOW}-command windows, best of 3)"
                ),
            },
            "checkpoint_bytes_ratio": {
                "kind": "ratio",
                "value": round(ratios["published_ratio"], 2),
                "ceiling": 1.1,
                "detail": (
                    f"bytes replace()d per checkpoint, {CYCLE_COMMANDS} "
                    f"appends apart, checkpoint {CYCLES} over checkpoint "
                    f"{CHAIN_SEGMENTS} (each the last of a full chain of "
                    f"{CHAIN_SEGMENTS} segments); chain 1: "
                    f"{published[:CHAIN_SEGMENTS]}, chain 8: "
                    f"{published[-CHAIN_SEGMENTS:]}. The first checkpoint "
                    f"of each chain re-writes the live history, so all "
                    f"{CYCLES} sum to {sum(published)}; "
                    f"{ratios['checkpoint_files']} manifest and segment "
                    f"files stay on disk. Before (parent "
                    f"{PARENT_BYTES_COMMIT}, full-copy checkpoints): "
                    f"checkpoints 1, 8, 64 wrote {PARENT_BYTES[0]}, "
                    f"{PARENT_BYTES[1]}, {PARENT_BYTES[2]} (ratio "
                    f"{PARENT_BYTES[2] / PARENT_BYTES[1]:.2f}), all "
                    f"{CYCLES} sum to {PARENT_BYTES[3]}, 2 files"
                ),
            },
            "recovery_rows_built_ratio": {
                "kind": "ratio",
                "value": round(ratios["rows_built_ratio"], 2),
                "ceiling": 1.0,
                "detail": (
                    f"SnapshotTuple constructions opening a checkpointed "
                    f"{RECOVERY_DEPTH}-append history: "
                    f"{ratios['rows_built']} for "
                    f"{ratios['rows_distinct']} distinct rows"
                ),
            },
        },
        "notes": PARENT_NOTES,
    }


# -- pytest-benchmark entry points -----------------------------------------


def bench_append_always(benchmark):
    benchmark(append_throughput, 60, "always")


def bench_append_batch(benchmark):
    benchmark(append_throughput, 60, "batch(16, 100)")


def bench_append_never(benchmark):
    benchmark(append_throughput, 60, "never")


def bench_recovery_replay(benchmark):
    benchmark(recovery_latency, 60, 60, False)


if __name__ == "__main__":
    from benchmarks.metrics_io import capture_metrics

    with capture_metrics("bench_e12_durability"):
        print(report(smoke="--smoke" in sys.argv[1:]))
