"""Concurrent clients vs the in-process Session oracle.

Each client replays a seeded, namespaced :class:`SentenceWorkload`
against the shared server while other clients hammer it concurrently;
namespacing makes every client's query results a pure function of its
own schedule, so the assertion is strict: every printed relation must be
**byte-identical** to what a lone in-process :class:`Session` answers
for the same schedule.  Seeds derive from the suite's run seed, so any
divergence is reproducible from the printed ``REPRO_TEST_SEED``."""

from __future__ import annotations

import random
import threading

import pytest

from repro.lang.session import Session
from repro.server import protocol
from repro.server.client import ReproClient
from repro.server.loadgen import oracle_digests
from repro.server.server import ServerConfig, ThreadedServer
from repro.server.store import render_state
from repro.workloads.sentences import EXECUTE, QUERY, SentenceWorkload


@pytest.fixture
def server():
    config = ServerConfig(port=0, workers=4, queue_high=256)
    with ThreadedServer(config) as handle:
        yield handle


def _replay_through_wire(server, workload):
    """One client's run: every query's printed text, in order."""
    texts = []
    txns = []
    with ReproClient(server.host, server.port, timeout=60.0) as client:
        for kind, source in workload.items():
            if kind == EXECUTE:
                txns.append(client.execute(source))
            else:
                texts.append(client.query(source))
    return texts, txns


def _oracle_texts(workload):
    session = Session()
    texts = []
    for kind, source in workload.items():
        if kind == EXECUTE:
            session.execute(source)
        else:
            texts.append(render_state(session.query(source)))
    return texts


def test_single_client_byte_identical(server, test_seed):
    workload = SentenceWorkload(
        seed=test_seed % 2**31, namespace="solo", length=30
    )
    texts, txns = _replay_through_wire(server, workload)
    assert texts == _oracle_texts(workload)
    assert txns == sorted(txns)


def test_concurrent_clients_byte_identical(server, test_seed):
    """8 threads × 25 sentences, one shared database, zero divergence."""
    clients = 8
    workloads = [
        SentenceWorkload(
            seed=(test_seed + index) % 2**31,
            namespace=f"c{index}",
            length=25,
            read_fraction=0.6,
        )
        for index in range(clients)
    ]
    results: "list[tuple]" = [None] * clients
    errors: "list[Exception]" = []

    def run(index):
        try:
            results[index] = _replay_through_wire(
                server, workloads[index]
            )
        except Exception as error:  # pragma: no cover - reported below
            errors.append(error)

    threads = [
        threading.Thread(target=run, args=(index,))
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    for index, workload in enumerate(workloads):
        texts, txns = results[index]
        assert texts == _oracle_texts(workload), (
            f"client {index} diverged from the oracle"
        )
        # global commit order is nondeterministic; per-client txns
        # must still be strictly monotonic
        assert txns == sorted(txns) and len(set(txns)) == len(txns)


def test_concurrent_clients_against_durable_backing(tmp_path, test_seed):
    """The same zero-divergence property when every write goes through
    the WAL."""
    config = ServerConfig(
        port=0,
        workers=4,
        queue_high=256,
        durable_dir=str(tmp_path / "db"),
        fsync="batch(64, 100)",
    )
    clients = 4
    with ThreadedServer(config) as server:
        workloads = [
            SentenceWorkload(
                seed=(test_seed ^ (index * 977)) % 2**31,
                namespace=f"d{index}",
                length=12,
            )
            for index in range(clients)
        ]
        results: "list[tuple]" = [None] * clients
        errors: "list[Exception]" = []

        def run(index):
            try:
                results[index] = _replay_through_wire(
                    server, workloads[index]
                )
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=run, args=(index,))
            for index in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        for index, workload in enumerate(workloads):
            texts, _ = results[index]
            assert texts == _oracle_texts(workload)


def test_in_place_and_queued_answers_agree(test_seed):
    """Both request paths against the oracle: a seeded share of
    requests carries a small stall and goes through the queue, which
    sends whatever arrives behind it there too; the rest are answered
    in the read callback."""
    clients = 4
    workloads = [
        SentenceWorkload(
            seed=(test_seed + 7919 * index) % 2**31,
            namespace=f"m{index}",
            length=20,
            read_fraction=0.6,
        )
        for index in range(clients)
    ]
    results: "list[tuple]" = [None] * clients
    errors: "list[Exception]" = []
    config = ServerConfig(port=0, workers=2, queue_high=256, debug_ops=True)
    ops = {EXECUTE: protocol.OP_EXECUTE, QUERY: protocol.OP_QUERY}

    def run(server, index):
        stalls = random.Random(test_seed * 31 + index)
        texts, txns = [], []
        try:
            with ReproClient(server.host, server.port, timeout=60.0) as c:
                for kind, source in workloads[index].items():
                    stall_ms = stalls.choice((None, None, None, 1, 3))
                    reply = c._request(
                        c._message(ops[kind], source, stall_ms=stall_ms)
                    )
                    if kind == EXECUTE:
                        txns.append(reply["txn"])
                    else:
                        texts.append(reply["result"])
            results[index] = texts, txns
        except Exception as error:  # pragma: no cover - reported below
            errors.append(error)

    with ThreadedServer(config) as server:
        threads = [
            threading.Thread(target=run, args=(server, index))
            for index in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        metrics = server.metrics()
    assert not errors, errors
    for index, workload in enumerate(workloads):
        texts, txns = results[index]
        assert texts == _oracle_texts(workload), (
            f"client {index} diverged from the oracle"
        )
        assert txns == sorted(txns) and len(set(txns)) == len(txns)
    assert metrics["server.accepted"] == (
        metrics["server.completed"] + metrics["server.errors"]
    )
    assert metrics["server.queue_depth"] == 0
    assert metrics["server.inflight"] == 0


def test_oracle_digests_match_oracle_texts(test_seed):
    """The loadgen digest oracle and the full-text oracle agree — the
    digests the driver compares are digests of exactly these texts."""
    import hashlib

    workload = SentenceWorkload(
        seed=test_seed % 2**31, namespace="x", length=20
    )
    digests, texts = oracle_digests(workload)
    assert digests == [
        hashlib.sha256(t.encode("utf-8")).hexdigest()[:24] for t in texts
    ]
    assert len(digests) == sum(
        1 for kind, _ in workload.items() if kind == QUERY
    )
