"""Smoke tests of the served-stack benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (about a
minute; not part of the tier-1 suite, whose ``testpaths`` is
``tests``).
"""

import json
import os
import re
import subprocess

import pytest

from benchmarks.e2e import cli, served
from benchmarks.e2e.spans import Recorder
from benchmarks.e2e.workloads import WORKLOADS, generate

SMOKE_SECONDS = cli.contract()["run_seconds"] * cli.SMOKE_SHARE
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _names(section: str) -> "list[str]":
    return [entry["name"] for entry in cli.contract()[section]]


@pytest.mark.parametrize("name", WORKLOADS)
def test_generation_is_a_function_of_the_seed(name):
    first = generate(name, 7, SMOKE_SECONDS)
    assert generate(name, 7, SMOKE_SECONDS).stream_sha256 == first.stream_sha256
    assert generate(name, 8, SMOKE_SECONDS).stream_sha256 != first.stream_sha256


def test_contract_names_the_workloads_and_only_well_formed_names():
    assert _names("workloads") == list(WORKLOADS)
    for section in ("workloads", "end_to_end", "per_layer"):
        for name in _names(section):
            assert NAME.fullmatch(name), name


def test_every_span_table_row_resolves_on_this_commit():
    recorder = Recorder()
    recorder.install()
    recorder.uninstall()
    assert recorder.missing == 0


def test_spans_closed_out_of_order_fail_loudly():
    recorder = Recorder()
    outer = recorder._open("outer")
    recorder._open("inner")
    with pytest.raises(AssertionError, match="one request in flight"):
        recorder._close(outer)


def test_the_driver_form_exits_non_zero_on_a_violation(monkeypatch, capsys):
    def wrong_reply(workload, expected, run):
        run.violations.append("connection 0 item 0: wrong reply")

    monkeypatch.setattr(served, "_verify_replies", wrong_reply)
    status = cli.main([
        "--workload", "read_hot", "--seed", "3",
        "--seconds", str(SMOKE_SECONDS), "--trace", "0",
    ])
    last_line = capsys.readouterr().out.splitlines()[-1]
    assert status == 1
    assert json.loads(last_line)["correct"] is False


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_is_correct_and_emits_the_contract_metrics(name):
    result = cli.measure(name, 3, SMOKE_SECONDS, trace=False)
    assert result["violations"] == []
    assert list(result["metrics"]) == _names("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_trace_emits_the_layer_metrics_and_the_flat_cells_hold(name):
    result = cli.measure(name, 3, SMOKE_SECONDS, trace=True)
    assert result["violations"] == []
    metrics = {
        metric: entry["value"] for metric, entry in result["metrics"].items()
    }
    assert sorted(metrics) == sorted(_names("per_layer"))
    assert metrics["trace.missing_spans"] == 0
    if name == "read_hot":
        # each of the 2 × 24 texts is planned at most once: the
        # transaction number never moves under a read (a full-size run
        # plans them all during warm-up and reports 0)
        assert metrics["optimizer.plans_optimized"] <= 48
        assert metrics["lang.plan_cache_evictions"] == 0
    if name != "cluster_mixed":
        for metric, value in metrics.items():
            if metric.startswith(("replication.", "sharding.", "cluster.")):
                assert value == 0, metric


@pytest.fixture
def servers(monkeypatch):
    """Every server subprocess the test starts."""
    started = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(served.subprocess, "Popen", Recording)
    return started


@pytest.mark.parametrize("close_fails", [False, True])
def test_a_failing_run_leaves_no_server_and_no_directory(
    monkeypatch, servers, close_fails
):
    async def broken_send(client, items, out):
        raise RuntimeError("the load generator broke")

    async def broken_close(client):
        raise OSError("the socket was reset")

    monkeypatch.setattr(served, "send", broken_send)
    if close_fails:
        monkeypatch.setattr(served.AsyncReproClient, "close", broken_close)
    workload = generate("write_durable", 3, SMOKE_SECONDS)
    with pytest.raises(
        OSError if close_fails else RuntimeError, match="reset|broke"
    ):
        served.serve(workload, served.oracle(workload))
    assert servers and all(server.poll() is not None for server in servers)
    assert os.listdir(served.WORK_ROOT) == []


def test_a_server_that_does_not_start_says_why(monkeypatch, servers):
    workload = generate("read_hot", 3, SMOKE_SECONDS)
    monkeypatch.setattr(
        type(workload.backing), "serve_args",
        lambda backing, directory: ["--no-such-flag"],
    )
    with pytest.raises(RuntimeError, match="unrecognized arguments"):
        served.serve(workload, served.oracle(workload))
    assert servers and all(server.poll() is not None for server in servers)
    assert os.listdir(served.WORK_ROOT) == []
