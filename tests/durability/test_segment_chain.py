"""The segment chain is snapshot-reducible: recovered ≡ oracle at every txn.

A stored history is right iff it decodes to the same value at every
transaction number (the paper's C6).  Two properties pin that down for
the chain of sealed segments:

* a hypothesis stream over all four relation types — scheme changes,
  empty states, ``ANY``-domain values ``1``, ``True``, ``1.0`` and
  ``"1"`` that compare equal but print differently — with checkpoints,
  clean closes and kills in any order.  After every reopen the
  recovered value equals the oracle, and per relation per transaction
  number it renders the same text with the same value types;
* a crash at every store operation of a checkpoint (segment publish,
  manifest publish, every delete) — one that starts a new chain and
  drops the oldest, and one that extends its chain — recovers exactly
  the committed sentence under ``fsync="always"``, and the database
  keeps working.

Floats have no concrete-syntax literal, so no WAL record carries
``1.0``: the stream starts from an in-memory history published with
:func:`write_checkpoint` (as a replica re-snapshot does).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.commands import DefineRelation, ModifyState, execute
from repro.core.expressions import Const
from repro.core.sentences import run
from repro.durability import (
    CrashPoint,
    DurableDatabase,
    FaultPlan,
    MemoryStore,
)
from repro.durability.checkpoint import CHAIN_SEGMENTS, write_checkpoint
from repro.historical.chronons import FOREVER
from repro.historical.state import HistoricalState
from repro.server.store import render_state
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState

from tests.durability.conftest import assert_recovered_prefix
from tests.durability.test_row_shared_recovery import typed

RELATIONS = (
    ("r", "rollback"),
    ("t", "temporal"),
    ("s", "snapshot"),
    ("h", "historical"),
)
#: Two schemes over the ANY domain: a stream switches between them.
SCHEMAS = (Schema(["a", "b"]), Schema(["a"]))
#: Values a WAL record can carry; the base history adds ``1.0``.
VALUES = [1, True, "1", 0, False, "0"]


def make_state(rtype, schema, rows, start):
    rows = [row[: len(schema.attributes)] for row in rows]
    if rtype in ("temporal", "historical"):
        return HistoricalState.from_rows(
            schema, [(row, [(start, FOREVER)]) for row in rows]
        )
    return SnapshotState(schema, rows)


def base_history():
    """Every relation defined, with float-bearing states no log could
    hold."""
    commands = [DefineRelation(name, rtype) for name, rtype in RELATIONS]
    for number, floats in enumerate(([(1.0, 1.0)], [(1.0, True), (0.0, "0")])):
        for name, rtype in RELATIONS:
            commands.append(
                ModifyState(
                    name, Const(make_state(rtype, SCHEMAS[0], floats, number))
                )
            )
    return run(commands)


steps = st.one_of(
    st.tuples(
        st.just("modify"),
        st.integers(0, len(RELATIONS) - 1),
        st.integers(0, len(SCHEMAS) - 1),
        st.lists(
            st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES)),
            max_size=3,
        ),
        st.integers(0, 20),
    ),
    st.tuples(st.sampled_from(["checkpoint", "close", "kill"])),
)


def assert_same_history(recovered, oracle):
    assert recovered.database == oracle
    for name, _ in RELATIONS:
        relation = oracle.require(name)
        for txn in range(oracle.transaction_number + 1):
            expected = relation.find_state(txn)
            actual = recovered.state_at(name, txn)
            assert render_state(actual) == render_state(expected)
            if hasattr(expected, "schema"):
                assert typed(actual) == typed(expected)


@settings(max_examples=60, deadline=None)
@given(
    every=st.sampled_from([0, 3]),
    stream=st.lists(steps, max_size=30),
)
def test_recovered_history_equals_the_oracle_at_every_txn(every, stream):
    oracle = base_history()
    store = MemoryStore()
    write_checkpoint(store, oracle, 1)

    def reopen():
        return DurableDatabase(
            store, fsync="always", checkpoint_every=every, keep_checkpoints=2
        )

    ddb = reopen()
    assert_same_history(ddb, oracle)
    for step in stream:
        if step[0] == "modify":
            _, index, schema, rows, start = step
            name, rtype = RELATIONS[index]
            command = ModifyState(
                name, Const(make_state(rtype, SCHEMAS[schema], rows, start))
            )
            ddb.execute(command)
            oracle = execute(command, oracle)
        elif step[0] == "checkpoint":
            ddb.checkpoint()
        else:
            ddb.close() if step[0] == "close" else ddb.kill()
            ddb = reopen()
            assert_same_history(ddb, oracle)
    ddb.kill()
    ddb = reopen()
    assert_same_history(ddb, oracle)
    ddb.close()


OPTIONS = dict(
    fsync="always", checkpoint_every=0, keep_checkpoints=2, segment_bytes=2048
)
EVERY = 10


def drive(store, workload, commands):
    """``commands`` commands with a checkpoint after every ``EVERY``th."""
    ddb = DurableDatabase(store, **OPTIONS)
    for index, command in enumerate(workload[:commands]):
        ddb.execute(command)
        if index % EVERY == EVERY - 1:
            ddb.checkpoint()
    return ddb


@pytest.mark.parametrize(
    "commands",
    [
        # two full chains: the next checkpoint starts a third, drops the
        # first chain's manifest and segments, and compacts the WAL
        2 * CHAIN_SEGMENTS * EVERY + 5,
        # the next checkpoint extends its chain and drops the manifest
        # it supersedes
        (2 * CHAIN_SEGMENTS + 1) * EVERY + 5,
    ],
    ids=["new-chain", "extend"],
)
def test_crash_at_every_store_op_of_a_checkpoint(workload, oracle, commands):
    probe = MemoryStore()
    ddb = drive(probe, workload, commands)
    before = probe.ops
    ddb.checkpoint()
    total = probe.ops - before
    assert total >= 3  # segment, manifest, and deletes
    for op in range(1, total + 1):
        store = MemoryStore(FaultPlan(crash_at_op=before + op))
        ddb = drive(store, workload, commands)
        with pytest.raises(CrashPoint):
            ddb.checkpoint()
        store.crash()
        recovered = DurableDatabase(store, **OPTIONS)
        assert_recovered_prefix(
            recovered.database, oracle, commands, commands
        )
        for command in workload[commands:commands + 20]:
            recovered.execute(command)
        recovered.checkpoint()
        recovered.close()
        assert DurableDatabase(store).database == oracle[commands + 20]
