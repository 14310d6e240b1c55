"""The differential shard oracle: workload generator + assertions.

The sharding suite's contract (ISSUE 5): a :class:`ShardedDatabase` fed
a randomized command sentence must be *observationally identical* to the
unsharded in-memory oracle executing the same sentence — byte-identical
``ρ(I, N)`` results (via the canonical JSON encoding) for every
identifier at every historical transaction number, an equal reassembled
:class:`~repro.core.database.Database` value, and the same global
transaction counter.  Every generator takes an explicit seed wired to
the run-seed discipline in ``tests/conftest.py``.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.core.commands import DefineRelation, ModifyState, execute
from repro.core.database import EMPTY_DATABASE, Database, DatabaseState
from repro.core.expressions import (
    Const,
    Difference,
    Rollback,
    Select,
    Union,
)
from repro.core.relation import EMPTY_STATE, Relation
from repro.core.txn import NOW
from repro.errors import ShardingError
from repro.persistence.json_codec import database_to_dict, state_to_dict
from repro.snapshot.predicates import Comparison, attr, lit
from repro.workloads.generators import StateGenerator

#: Identifiers spread across several shards under both partitioner
#: families; two rollback relations so cross-identifier *and*
#: past-transaction reads compose.
RELATIONS = (
    ("alpha", "rollback"),
    ("omega", "rollback"),
    ("snap", "snapshot"),
    ("hist", "historical"),
    ("tempo", "temporal"),
)

SNAPSHOT_LIKE = ("alpha", "omega", "snap")
HISTORICAL_LIKE = ("hist", "tempo")


def sharded_workload(length: int = 220, seed: int = 7):
    """A ``length``-command sentence exercising every routing shape.

    Beyond the durability suite's scripted workload, this one makes the
    *cross-shard* paths first-class: ``modify_state`` expressions that
    union/difference two different rollback relations, rollbacks at past
    (global!) transaction numbers, selections and projections over
    cross-identifier products, plus the paper's two no-op shapes and
    occasional sequences.
    """
    rng = random.Random(seed)
    snap = StateGenerator(seed=seed, key_space=30)
    hist = StateGenerator(seed=seed + 1, key_space=30)
    commands = [DefineRelation(i, t) for i, t in RELATIONS]
    #: conservative running lower bound for "has a state by now" — the
    #: generator only needs it to bias toward interesting expressions
    modified: set[str] = set()
    txn_estimate = len(commands)

    def past_numeral():
        return rng.randrange(txn_estimate + 2)

    def rollback_pair():
        a, b = rng.sample(("alpha", "omega"), 2)
        left = Rollback(a, NOW if rng.random() < 0.5 else past_numeral())
        right = Rollback(b, NOW if rng.random() < 0.5 else past_numeral())
        return left, right

    while len(commands) < length:
        roll = rng.random()
        if roll < 0.04:
            commands.append(DefineRelation("alpha", "rollback"))  # no-op
            txn_estimate += 0
            continue
        if roll < 0.08:
            commands.append(  # no-op: unbound identifier
                ModifyState("ghost", Const(snap.snapshot_state(1)))
            )
            continue
        if roll < 0.55:
            identifier = rng.choice(SNAPSHOT_LIKE)
            expression = Const(snap.snapshot_state(rng.randint(1, 4)))
            if identifier in modified and rng.random() < 0.5:
                shape = rng.random()
                if shape < 0.4 and identifier != "snap":
                    # cross-identifier union/difference of rollbacks
                    left, right = rollback_pair()
                    node = Union if rng.random() < 0.7 else Difference
                    expression = Union(node(left, right), expression)
                elif shape < 0.7:
                    expression = Union(
                        Rollback(identifier, NOW), expression
                    )
                else:
                    # σ/π over the current state, keeping the schema
                    expression = Union(
                        Select(
                            Rollback(identifier, NOW),
                            Comparison(attr("key"), ">=", lit(0)),
                        ),
                        expression,
                    )
        else:
            identifier = rng.choice(HISTORICAL_LIKE)
            expression = Const(hist.historical_state(rng.randint(1, 3)))
            if (
                "hist" in modified
                and "tempo" in modified
                and rng.random() < 0.4
            ):
                expression = Union(
                    Union(
                        Rollback("hist", NOW), Rollback("tempo", NOW)
                    ),
                    expression,
                )
        command = ModifyState(identifier, expression)
        if rng.random() > 0.96 and identifier in modified:
            command = DefineRelation(identifier, dict(RELATIONS)[identifier]).then(
                command
            )
        commands.append(command)
        modified.add(identifier)
        txn_estimate += 1
    return commands


def oracle_history(commands):
    """``oracle[k]`` = the database after the first ``k`` commands."""
    databases = [EMPTY_DATABASE]
    for command in commands:
        databases.append(execute(command, databases[-1]))
    return databases


def canonical(state) -> object:
    """The byte-identical comparison key: the paper's untyped ∅ maps to
    a distinguished marker, anything else to its canonical JSON dict."""
    if state is EMPTY_STATE:
        return {"empty_set": True}
    return state_to_dict(state)


def assert_differential(sharded, oracle) -> None:
    """The full oracle comparison.

    * the global counters agree;
    * the reassembled global database equals the oracle *value* and its
      canonical JSON encoding (byte-identity, not just ``__eq__``);
    * for every identifier the oracle ever bound, ``ρ(I, N)`` agrees at
      every transaction number ``0..n`` and at ``now`` — through the
      scatter-gather evaluator for history-keeping relations, and
      through ``state_at`` (the FINDSTATE surface) for all of them.
    """
    assert sharded.transaction_number == oracle.transaction_number
    rebuilt = sharded.as_database()
    assert rebuilt == oracle
    assert database_to_dict(rebuilt) == database_to_dict(oracle)
    for identifier in oracle.state.identifiers:
        relation = oracle.require(identifier)
        now_expr = Rollback(identifier, NOW)
        assert canonical(sharded.evaluate(now_expr)) == canonical(
            now_expr.evaluate(oracle)
        )
        for txn in range(oracle.transaction_number + 1):
            assert canonical(sharded.state_at(identifier, txn)) == (
                canonical(relation.find_state(txn))
            ), f"state_at({identifier!r}, {txn})"
            if relation.rtype.keeps_history:
                expression = Rollback(identifier, txn)
                assert canonical(sharded.evaluate(expression)) == (
                    canonical(expression.evaluate(oracle))
                ), f"ρ({identifier!r}, {txn})"


# ---------------------------------------------------------------------------
# the coordinator's kept global value
# ---------------------------------------------------------------------------


def assembled_from_scratch(sharded) -> Database:
    """The global value assembled from nothing, every relation through
    the validating constructor — what ``ShardedDatabase.as_database``
    computed on every call before the coordinator kept its value.  The
    reference the kept value must equal after every step."""
    state = DatabaseState()
    for identifier in sharded.identifiers:
        owner = sharded._owner[identifier]
        relation = sharded._shards[owner].database.lookup(identifier)
        if relation is None:
            continue
        mods = sharded._mods.get(identifier, [])
        if relation.rtype.keeps_history:
            if len(mods) != relation.history_length:
                raise ShardingError(
                    f"coordinator metadata for {identifier!r} "
                    f"records {len(mods)} modifies but shard "
                    f"{owner} holds {relation.history_length} states"
                )
            rstate = tuple(
                (entry[0], global_txn)
                for entry, global_txn in zip(relation.rstate, mods)
            )
        elif mods:
            rstate = ((relation.rstate[-1][0], mods[-1]),)
        else:
            rstate = ()
        state = state.bind(identifier, Relation(relation.rtype, rstate))
    return Database(state, sharded.transaction_number)


def catalog_of(database: Database) -> dict:
    """What a catalog token stands for: each relation's type and the
    scheme of its current state (None when it has none)."""
    catalog = {}
    for identifier in database.state:
        relation = database.require(identifier)
        state = relation.current_state
        catalog[identifier] = (
            relation.rtype,
            None if state is EMPTY_STATE else state.schema,
        )
    return catalog


def check_kept_value(coordinator, previous):
    """After a step: the kept value equals a from-scratch assembly, an
    unchanged coordinator hands back the identical value, and a token
    handed on names an equal catalog.  Returns the ``(token, catalog)``
    to pass as ``previous`` after the next step."""
    database = coordinator.database
    assert database == assembled_from_scratch(
        getattr(coordinator, "sharded", coordinator)
    )
    assert coordinator.database is database
    catalog = catalog_of(database)
    if previous is not None and previous[0] is database.catalog_token:
        assert catalog == previous[1]
    return database.catalog_token, catalog


STEP_RELATIONS = ("a", "b", "c")
STEP_SCHEMES = ("(k: integer)", "(k: integer, v: integer)")


@st.composite
def catalog_steps(draw) -> str:
    """Command texts over three relations: defines, constant modifies
    that keep or change the scheme, in-place appends, reads of another
    relation (the coordinated path) and of a past transaction."""
    name = draw(st.sampled_from(STEP_RELATIONS))
    kind = draw(st.integers(0, 5))
    if kind == 0:
        rtype = draw(st.sampled_from(["rollback", "rollback", "snapshot"]))
        return f"define_relation({name}, {rtype})"
    scheme = draw(st.sampled_from(STEP_SCHEMES))
    keys = draw(st.lists(st.integers(0, 6), max_size=5))
    width = scheme.count(":")
    rows = ", ".join(
        "(" + ", ".join(str(key + column) for column in range(width)) + ")"
        for key in keys
    )
    constant = f"state {scheme} {{ {rows} }}"
    if kind == 1:
        return f"modify_state({name}, rollback({name}, now) union {constant})"
    if kind == 2:
        other = draw(st.sampled_from(STEP_RELATIONS))
        return f"modify_state({name}, rollback({other}, now) union {constant})"
    if kind == 3:
        numeral = draw(st.integers(0, 12))
        return (
            f"modify_state({name}, rollback({name}, {numeral}) "
            f"union {constant})"
        )
    return f"modify_state({name}, {constant})"


def coordinator_steps(*operations: str):
    """Command texts mixed with topology operations, three to one."""
    return st.one_of(
        catalog_steps(),
        catalog_steps(),
        catalog_steps(),
        st.sampled_from(operations),
    )
