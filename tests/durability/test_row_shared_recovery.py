"""Recovery through the row-shared checkpoint decode is exact.

The interning trap: checkpoint decode reuses one ``SnapshotTuple`` per
distinct row of a relation, and ``1``, ``True``, ``1.0`` and ``"1"``
hash equal (the first three also compare equal).  A row table keyed on
``tuple(row)`` would hand the ``1`` of an early version to a later
version that stored ``True``.  So: an ``ANY``-domain rollback (and
temporal) relation whose versions mix exactly those values goes through
``checkpoint → kill → recover``, and the recovered state at every
transaction must equal the pre-crash one with the same ``type()`` per
value and the same ``render_state`` text.

Floats have no concrete-syntax literal, so no WAL record can carry
``1.0``: the history is built in memory and published with the
reference :func:`write_checkpoint` (what a replica re-snapshot does);
a durable database recovers it, appends one logged command, writes its
own checkpoint and is killed; a second recovery must match the oracle.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.commands import DefineRelation, ModifyState, execute
from repro.core.expressions import Const
from repro.core.sentences import run
from repro.durability import DurableDatabase, MemoryStore
from repro.durability.checkpoint import write_checkpoint
from repro.historical.chronons import FOREVER
from repro.historical.state import HistoricalState
from repro.server.store import render_state
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState

SCHEMA = Schema(["a", "b"])  # both attributes in the ANY domain
TRAP = [1, True, 1.0, "1", 0, False, 0.0, "0"]

rows = st.lists(
    st.tuples(st.sampled_from(TRAP), st.sampled_from(TRAP)), max_size=4
)


def typed(state):
    values = (
        [t.value.values for t in state]
        if isinstance(state, HistoricalState)
        else [t.values for t in state]
    )
    return sorted(
        tuple((type(v).__name__, repr(v)) for v in row) for row in values
    )


def history(versions):
    commands = [
        DefineRelation("r", "rollback"),
        DefineRelation("t", "temporal"),
    ]
    for number, version in enumerate(versions):
        periods = [(number, FOREVER)]
        commands.append(
            ModifyState("r", Const(SnapshotState(SCHEMA, version)))
        )
        commands.append(
            ModifyState(
                "t",
                Const(
                    HistoricalState.from_rows(
                        SCHEMA, [(row, periods) for row in version]
                    )
                ),
            )
        )
    return run(commands)


@settings(max_examples=40, deadline=None)
@given(st.lists(rows, min_size=1, max_size=8))
@example([[(1, 1)], [(True, True)], [(1.0, 1.0)], [("1", "1")]])
@example([[(1, "1"), (0, False)], [(True, "1"), (0.0, False)]])
def test_recovered_history_keeps_every_value_type(versions):
    oracle = history(versions)
    store = MemoryStore()
    write_checkpoint(store, oracle, 1)
    first = DurableDatabase(store, fsync="always", checkpoint_every=0)
    logged = ModifyState("r", Const(SnapshotState(SCHEMA, [(True, "1")])))
    first.execute(logged)
    oracle = execute(logged, oracle)
    first.checkpoint()
    first.kill()

    recovered = DurableDatabase(store, checkpoint_every=0)
    try:
        assert recovered.last_recovery.replayed == 0  # all from the file
        assert recovered.transaction_number == oracle.transaction_number
        for identifier in ("r", "t"):
            for txn in range(1, oracle.transaction_number + 1):
                expected = oracle.require(identifier).find_state(txn)
                actual = recovered.state_at(identifier, txn)
                assert actual == expected
                assert render_state(actual) == render_state(expected)
                if hasattr(expected, "schema"):
                    assert typed(actual) == typed(expected)
    finally:
        recovered.close()
