"""Decoding builds each distinct row once per relation.

A relation's states are decoded against one row table: a row already
seen in an earlier state of the same relation reuses that
``SnapshotTuple``, and equal schemas decode to one ``Schema``.  Counted
with spies, no wall clock.  New rows are still validated, and the table
tells ``1``, ``True``, ``1.0`` and ``"1"`` apart although they hash
(and mostly compare) equal.
"""

import pytest

from repro.core.commands import DefineRelation, ModifyState
from repro.core.expressions import Const
from repro.core.sentences import run
from repro.errors import DomainError
from repro.historical.state import HistoricalState
from repro.persistence import database_from_dict, database_to_dict
from repro.snapshot.attributes import INTEGER, Attribute
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState
from repro.snapshot.tuples import SnapshotTuple

from tests.conftest import calls_to

KV = Schema([Attribute("k", INTEGER), Attribute("v", INTEGER)])


def growing_history(depth: int):
    """A rollback relation whose ``depth`` states each add one row to
    the one before, and a temporal relation doing the same with valid
    times: ``depth`` distinct rows each, ~depth²/2 row occurrences."""
    commands = [
        DefineRelation("r", "rollback"),
        DefineRelation("t", "temporal"),
    ]
    for n in range(1, depth + 1):
        rows = [[i, i % 3] for i in range(n)]
        commands.append(ModifyState("r", Const(SnapshotState(KV, rows))))
        commands.append(
            ModifyState(
                "t",
                Const(
                    HistoricalState.from_rows(
                        KV, [(row, [(0, n)]) for row in rows]
                    )
                ),
            )
        )
    return run(commands)


@pytest.mark.parametrize("depth", [5, 40])
def test_one_tuple_per_distinct_row(depth):
    database = growing_history(depth)
    payload = database_to_dict(database)
    with calls_to(SnapshotTuple, "__init__") as built, calls_to(
        Schema, "__init__"
    ) as schemas:
        decoded = database_from_dict(payload)
    assert decoded == database
    # depth distinct rows in each of the two relations, one schema each
    assert len(built) == 2 * depth
    assert len(schemas) == 2


def test_new_rows_are_still_validated():
    payload = database_to_dict(growing_history(6))
    last = payload["relations"]["r"]["states"][-1]["state"]
    last["rows"][-1] = [99, "not an integer"]
    with pytest.raises(DomainError):
        database_from_dict(payload)


def test_unhashable_value_is_a_domain_error():
    payload = database_to_dict(growing_history(2))
    payload["relations"]["r"]["states"][0]["state"]["rows"][0] = [[1], 0]
    with pytest.raises(DomainError):
        database_from_dict(payload)


def test_hash_equal_values_of_different_types_stay_apart():
    schema = Schema(["a"])
    values = [1, True, 1.0, "1", 0, False, 0.0]
    commands = [DefineRelation("r", "rollback")]
    commands += [
        ModifyState("r", Const(SnapshotState(schema, [[value]])))
        for value in values
    ]
    decoded = database_from_dict(database_to_dict(run(commands)))
    recovered = [
        state.sorted_rows()[0][0] for state, _ in decoded.require("r").rstate
    ]
    assert [type(v) for v in recovered] == [type(v) for v in values]
    assert recovered == values
