"""The traced run: per-layer metrics from an in-process replay.

The workload is regenerated at ``TRACE_SHARE`` of the timed count and
replayed twice against ``serve_in_thread`` over **one** connection, so
exactly one request is in flight and every span belongs to it: once
untouched, once with :mod:`benchmarks.e2e.spans` installed and the
``repro.obsv`` registry on.  The ratio of the two wall times is the
tracing overhead.  The full-size served run of
:mod:`benchmarks.e2e.served` is made as well, with tracing off, for
the client-observed tail latencies and the shed and recovery counts.

Times are mean *self* time per request (or per read, per write):
a span's duration minus what its direct children cover.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time
from collections import defaultdict

from repro.obsv import registry as obsv
from repro.server import serve_in_thread
from repro.server.client import AsyncReproClient
from repro.workloads.sentences import EXECUTE, QUERY

from benchmarks.e2e import served
from benchmarks.e2e.spans import ROOT_SPAN, Recorder
from benchmarks.e2e.workloads import WARMUP_SHARE, Workload, generate

#: The traced replay sends this share of the timed request count.
TRACE_SHARE = 0.25


def replay(workload: Workload, recorder: "Recorder | None"):
    """Preload and warm up, then send the rest of the interleaved
    streams over one connection to an in-process server; returns
    ``(wall seconds of that rest, its replies, registry snapshot or
    None)``.  With a recorder, spans and registry counts cover the
    rest only, as the end-to-end clock does."""
    stream = workload.interleaved()
    warmup = int(len(stream) * WARMUP_SHARE)

    async def run(host: str, port: int):
        replies: "list[served.Reply]" = []
        async with AsyncReproClient(host, port) as client:
            await served.send(
                client, workload.preload + stream[:warmup], []
            )
            registry = None
            if recorder is not None:
                registry = obsv.enable(obsv.MetricsRegistry())
                recorder.active = True
            started = time.perf_counter()
            try:
                await served.send(client, stream[warmup:], replies)
                wall = time.perf_counter() - started
            finally:
                if recorder is not None:
                    recorder.active = False
                    obsv.disable()
        return wall, replies, registry and registry.snapshot()

    with served.work_directory() as directory:
        config = workload.backing.server_config(
            os.path.join(directory, "data")
        )
        with serve_in_thread(config) as handle:
            return asyncio.run(run(handle.host, handle.port))


def trace(name: str, seed: int, seconds: float, spans_out: "str | None"):
    """The per-layer metrics of workload ``name``; returns ``(metrics,
    served run, full-size workload)``."""
    recorder = Recorder()
    recorder.install()
    try:
        recorder.active = True
        small = generate(name, seed, seconds * TRACE_SHARE)
    finally:
        recorder.active = False
        recorder.uninstall()
    untraced_wall, _, _ = replay(small, None)
    recorder.install()
    try:
        traced_wall, replies, counts = replay(small, recorder)
    finally:
        recorder.uninstall()
    if spans_out is not None:
        recorder.write(spans_out)
    workload = generate(name, seed, seconds)
    run = served.serve(workload, served.oracle(workload), setups=1)
    run.violations += [
        f"traced replay item {index} failed: {reply.value}"
        for index, reply in enumerate(replies)
        if reply.failed
    ]
    metrics = _metrics(recorder, counts, small)
    metrics["trace.overhead_share"] = (traced_wall / untraced_wall, "ratio")
    metrics["client.read_p99_ms"] = (
        served.tail_ms(served.latencies_ms(workload, run, QUERY)), "ms"
    )
    metrics["client.write_p99_ms"] = (
        served.tail_ms(served.latencies_ms(workload, run, EXECUTE)), "ms"
    )
    metrics["server.shed_count"] = (
        run.server_metrics.get("server.shed", 0), "count"
    )
    metrics["durability.recovery_records_replayed"] = (
        run.recovery_replayed, "count"
    )
    return metrics, run, workload


def _metrics(recorder: Recorder, counts: dict, workload: Workload) -> dict:
    """Aggregate the spans and registry counts of one traced replay."""
    spans = [span for span in recorder.spans if span.request > 0]
    self_ns = defaultdict(int)  # (name, server side?) → summed self time
    calls = defaultdict(int)
    for span in spans:
        self_ns[span.name, span.server] += span.self_ns
        calls[span.name] += 1

    def us(name: str, per: int, server: "bool | None" = None) -> tuple:
        sides = (True, False) if server is None else (server,)
        total = sum(self_ns[name, side] for side in sides)
        return (total / 1e3 / per if per else 0.0, "us")

    stream = workload.interleaved()
    stream = stream[int(len(stream) * WARMUP_SHARE):]
    requests = len(stream)
    reads = sum(kind == QUERY for kind, _ in stream)
    writes = requests - reads
    counters = counts["counters"]
    histograms = counts["histograms"]

    def count(name: str) -> int:
        return counters.get(name, 0)

    def share(part: float, whole: float) -> tuple:
        return (part / whole if whole else 0.0, "ratio")

    latency_ns = sum(
        span.duration_ns for span in spans if span.name == ROOT_SPAN
    )
    attributed_ns = sum(
        span.self_ns for span in spans if span.name != ROOT_SPAN
    )

    admitted = {}
    queue_wait_ns = 0
    for span in spans:
        if span.name == "server.admit":
            admitted[span.request] = span.end_ns
        elif span.name == "server.start":
            queue_wait_ns += span.start_ns - admitted[span.request]

    commands = [
        span.duration_ns for span in spans if span.name == "core.command"
    ]
    tenth = max(1, len(commands) // 10)
    growth = (
        statistics.mean(commands[-tenth:]) / statistics.mean(commands[:tenth])
        if commands
        else 0.0
    )

    checkpoints = [
        span for span in spans if span.name == "durability.checkpoint"
    ]
    checkpoint_bytes = sum(
        span.size
        for span in spans
        if span.name == "durability.replace"
        and span.parent >= 0
        and recorder.spans[span.parent].name == "durability.checkpoint"
    )
    translations = [
        span.duration_ns
        for span in recorder.spans
        if span.name == "quel.translate"
    ]
    lookups = count("lang.plan_cache.hits") + count("lang.plan_cache.misses")
    applied = histograms.get("repl.apply_seconds", {})
    cluster_reads = count("cluster.reads_replica") + count(
        "cluster.reads_primary"
    )
    dispatch_ns = sum(
        self_ns[name, True]
        for name in (
            "server.admit", "server.start", "server.finish",
            "server.query", "server.execute",
        )
    )
    return {
        "client.self_us_per_req": (
            sum(
                total
                for (name, server), total in self_ns.items()
                if not server and name != ROOT_SPAN
            ) / 1e3 / requests,
            "us",
        ),
        "server.decode_us_per_req": us("wire.decode", requests, True),
        "server.encode_us_per_req": us("wire.encode", requests, True),
        "server.queue_wait_us_per_req": (
            queue_wait_ns / 1e3 / requests, "us"
        ),
        "server.dispatch_us_per_req": (dispatch_ns / 1e3 / requests, "us"),
        "server.unattributed_us_per_req": (
            (latency_ns - attributed_ns) / 1e3 / requests, "us"
        ),
        "server.render_us_per_read": us("server.render", reads),
        "server.result_bytes_per_read": (
            sum(s.size for s in spans if s.name == "server.render") / reads,
            "bytes",
        ),
        "lang.parse_us_per_req": us("lang.parse", requests),
        "lang.plan_cache_hit_share": share(
            count("lang.plan_cache.hits"), lookups
        ),
        "lang.plan_cache_evictions": (
            count("lang.plan_cache.evictions"), "count"
        ),
        "optimizer.stats_us_per_read": us("optimizer.stats", reads),
        "optimizer.rewrite_us_per_read": us("optimizer.rewrite", reads),
        "optimizer.plans_optimized": (
            count("optimizer.plans_optimized"), "count"
        ),
        "core.compile_us_per_read": us("core.compile", reads),
        "core.eval_us_per_read": us("core.eval", reads),
        "core.steps_executed_per_read": (
            count("engine.steps_executed") / reads, "count"
        ),
        "core.find_state_us_per_rollback": us(
            "core.find_state", calls["core.find_state"]
        ),
        "core.command_us_per_write": us("core.command", writes),
        "core.command_depth_growth_ratio": (growth, "ratio"),
        "durability.encode_us_per_write": us("durability.encode", writes),
        "durability.append_us_per_write": us("durability.append", writes),
        "durability.fsync_us_per_write": us("durability.fsync", writes),
        "durability.fsyncs_per_write": share(count("wal.fsyncs"), writes),
        "durability.wal_bytes_per_write": (
            count("wal.bytes_appended") / writes if writes else 0.0, "bytes"
        ),
        "durability.checkpoints": (len(checkpoints), "count"),
        "durability.checkpoint_s_total": (
            sum(span.duration_ns for span in checkpoints) / 1e9, "s"
        ),
        "durability.checkpoint_bytes_total": (checkpoint_bytes, "bytes"),
        "durability.checkpoint_stall_max_ms": (
            max((span.duration_ns for span in checkpoints), default=0) / 1e6,
            "ms",
        ),
        "replication.catch_up_us_per_read": us("replication.catch_up", reads),
        "replication.records_applied": (
            count("repl.records_applied"), "count"
        ),
        "replication.apply_us_per_record": (
            applied.get("sum", 0.0) * 1e6 / count("repl.records_applied")
            if count("repl.records_applied")
            else 0.0,
            "us",
        ),
        "replication.batches_fetched": (
            count("repl.batches_fetched"), "count"
        ),
        "sharding.route_us_per_req": us("sharding.route", requests),
        "sharding.journal_us_per_write": us("sharding.journal", writes),
        "sharding.fanout_mean": (
            histograms.get("shard.query_fanout", {}).get("mean", 0.0),
            "count",
        ),
        "sharding.merges": (count("shard.merges"), "count"),
        "cluster.execute_us_per_write": us("cluster.execute", writes),
        "cluster.evaluate_us_per_read": us("cluster.evaluate", reads),
        "cluster.reads_replica_share": share(
            count("cluster.reads_replica"), cluster_reads
        ),
        "quel.translate_us_per_stmt": (
            statistics.mean(translations) / 1e3 if translations else 0.0,
            "us",
        ),
        "trace.coverage_share": share(attributed_ns, latency_ns),
        "trace.missing_spans": (recorder.missing, "count"),
    }
