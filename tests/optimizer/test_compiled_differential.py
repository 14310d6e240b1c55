"""The C6 differential suite for the optimized + compiled read path.

Section 5 of the paper: *any* physical evaluation strategy is correct
iff it is observation-equivalent to the simple semantics.  The read
path now stacks three strategies — cost-guided rewriting, compiled
(flattened, CSE'd) execution, and per-backend physical storage — so
this suite drives all of them against ``Expression.evaluate`` as the
oracle:

* hypothesis-random expression trees, optimized and compiled, against
  the plain evaluator on a semantic database;
* directed queries over **all five** storage backends, with the
  compiled plan executing directly against the backend's database view;
* string queries through plain, sharded (``shards=2``), durable and
  replica :class:`Session` objects — whose ``query`` path optimizes and
  compiles under the covers — against the oracle, twice each so the
  second call exercises the cached compiled plan.

Randomized parts follow the run-seed discipline (``REPRO_TEST_SEED``).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.commands import DefineRelation, ModifyState
from repro.core.compile import compile_expression
from repro.core.database import Database
from repro.core.expressions import (
    Const,
    Difference,
    Expression,
    Product,
    Project,
    Rollback,
    Select,
    Union,
    evaluate,
    is_empty_set,
)
from repro.core.sentences import run
from repro.core.txn import NOW
from repro.lang.parser import parse_expression
from repro.lang.session import Session
from repro.optimizer import collect_statistics, optimize_with_cost
from repro.optimizer.equivalence import states_equal
from repro.snapshot.attributes import INTEGER, Attribute
from repro.snapshot.predicates import And, Comparison, attr, lit
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState
from repro.storage import (
    CheckpointDeltaBackend,
    DeltaBackend,
    FullCopyBackend,
    ReverseDeltaBackend,
    TupleTimestampBackend,
    VersionedDatabase,
)
from repro.storage.versioned_db import _BackendDatabaseView

from tests.conftest import COORDINATORS, coordinator_session, kv_states

KV = Schema([Attribute("k", INTEGER), Attribute("v", INTEGER)])
XY = Schema([Attribute("x", INTEGER), Attribute("y", INTEGER)])
CATALOG = {"r": KV, "s": KV, "t": XY}

PK = Comparison(attr("k"), ">", lit(4))
PV = Comparison(attr("v"), "<", lit(3))
PX = Comparison(attr("x"), "=", lit(1))


def kv(*rows):
    return SnapshotState(KV, [list(r) for r in rows])


def xy(*rows):
    return SnapshotState(XY, [list(r) for r in rows])


def optimized_compiled(query: Expression, database) -> object:
    """The full physical read path: statistics → cost-guided rewrite →
    compiled plan → execution against ``database``."""
    stats = collect_statistics(database)
    plan = compile_expression(
        optimize_with_cost(query, CATALOG, stats)
    )
    return plan(database)


# ---------------------------------------------------------------------------
# hypothesis-random trees against the plain evaluator
# ---------------------------------------------------------------------------

_LEAVES = st.one_of(
    st.builds(Const, kv_states(max_rows=4)),
    st.sampled_from(
        [
            Rollback("r", NOW),
            Rollback("r", 1),
            Rollback("r", 2),
            Rollback("s", NOW),
        ]
    ),
)

#: Schema-preserving combinators, so every random tree is well-typed.
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.builds(Union, children, children),
        st.builds(Difference, children, children),
        st.builds(lambda e: Select(e, PK), children),
        st.builds(lambda e: Select(e, PV), children),
        st.builds(lambda e: Select(e, And(PK, PV)), children),
        st.builds(lambda e: Project(e, ("k", "v")), children),
    ),
    max_leaves=8,
)


class TestRandomTrees:
    @settings(max_examples=60, deadline=None)
    @given(_TREES, kv_states(max_rows=5), kv_states(max_rows=5))
    def test_optimized_compiled_equals_evaluate(self, query, s1, s2):
        database = run(
            [
                DefineRelation("r", "rollback"),
                ModifyState("r", Const(s1)),
                ModifyState("r", Const(s2)),
                DefineRelation("s", "rollback"),
                ModifyState("s", Const(s2)),
            ]
        )
        oracle = evaluate(query, database)
        physical = optimized_compiled(query, database)
        if is_empty_set(oracle):
            assert is_empty_set(physical)
        else:
            assert states_equal(oracle, physical)

    @settings(max_examples=30, deadline=None)
    @given(_TREES)
    def test_projection_on_top(self, query):
        database = run(
            [
                DefineRelation("r", "rollback"),
                ModifyState("r", Const(kv((1, 1), (5, 2), (7, 0)))),
                DefineRelation("s", "rollback"),
                ModifyState("s", Const(kv((5, 5), (9, 1)))),
            ]
        )
        wrapped = Project(query, ("k",))
        oracle = evaluate(wrapped, database)
        physical = optimized_compiled(wrapped, database)
        if is_empty_set(oracle):
            assert is_empty_set(physical)
        else:
            assert states_equal(oracle, physical)


# ---------------------------------------------------------------------------
# all five storage backends
# ---------------------------------------------------------------------------

BACKENDS = [
    FullCopyBackend,
    DeltaBackend,
    ReverseDeltaBackend,
    CheckpointDeltaBackend,
    TupleTimestampBackend,
]

STREAM = [
    DefineRelation("r", "rollback"),
    ModifyState("r", Const(kv((1, 10), (2, 20)))),
    ModifyState("r", Union(Rollback("r"), Const(kv((5, 1), (7, 2))))),
    ModifyState(
        "r",
        Difference(
            Rollback("r"),
            Select(Rollback("r"), Comparison(attr("k"), "=", lit(1))),
        ),
    ),
    DefineRelation("s", "rollback"),
    ModifyState("s", Union(Rollback("r", 2), Const(kv((9, 0))))),
    DefineRelation("t", "rollback"),
    ModifyState("t", Const(xy((1, 7), (5, 8)))),
]

QUERIES = [
    Select(Union(Rollback("r", NOW), Rollback("r", 2)), PK),
    Select(Union(Rollback("r", NOW), Rollback("s", NOW)), And(PK, PV)),
    Difference(Rollback("r", NOW), Select(Rollback("r", NOW), PK)),
    Project(
        Select(
            Product(Rollback("r", NOW), Rollback("t", NOW)),
            And(PK, PX),
        ),
        ("k", "x"),
    ),
    Union(Rollback("r", 1), Rollback("r", 3)),  # historical probes
]


class TestAllBackends:
    @pytest.mark.parametrize(
        "backend_cls", BACKENDS, ids=lambda cls: cls.__name__
    )
    def test_compiled_path_observation_equivalent(self, backend_cls):
        versioned = VersionedDatabase(backend_cls())
        oracle_db = run(STREAM)
        versioned.execute_all(STREAM)
        view = _BackendDatabaseView(
            versioned.backend, versioned.transaction_number
        )
        for query in QUERIES:
            oracle = evaluate(query, oracle_db)
            interpreted = versioned.evaluate(query)
            compiled = optimized_compiled(query, view)
            if is_empty_set(oracle):
                assert is_empty_set(interpreted)
                assert is_empty_set(compiled)
            else:
                assert states_equal(oracle, interpreted)
                assert states_equal(oracle, compiled)

    @pytest.mark.parametrize(
        "backend_cls", BACKENDS, ids=lambda cls: cls.__name__
    )
    def test_backend_statistics_feed_the_rewrite(self, backend_cls):
        versioned = VersionedDatabase(backend_cls())
        versioned.execute_all(STREAM)
        stats = collect_statistics(versioned)
        assert stats.get("r") == 3.0  # (2,20),(5,1),(7,2) after delete
        assert stats.version_count("r") == 3


# ---------------------------------------------------------------------------
# sessions: plain, sharded, durable, replica
# ---------------------------------------------------------------------------

SESSION_PROGRAM = """
define_relation(r, rollback);
modify_state(r, state (k: integer, v: integer) { (1, 10), (2, 20) });
modify_state(r, rollback(r, now) union state (k: integer, v: integer) { (5, 1), (7, 2) });
define_relation(t, rollback);
modify_state(t, state (x: integer, y: integer) { (1, 7), (5, 8) });
"""

SESSION_QUERIES = [
    "select [k > 4] (rollback(r, now) union rollback(r, 2))",
    "project [k] (select [k > 4 and v < 3] (rollback(r, now)))",
    "rollback(r, now) minus select [k > 4] (rollback(r, now))",
    "project [k, x] (select [k = x] (rollback(r, now) times rollback(t, now)))",
]


def check_session(session: Session, oracle_db: Database) -> None:
    """Every query, twice (second run hits the cached compiled plan),
    against the plain evaluator on the oracle database value."""
    for source in SESSION_QUERIES:
        oracle = evaluate(parse_expression(source), oracle_db)
        first = session.query(source)
        second = session.query(source)
        if is_empty_set(oracle):
            assert is_empty_set(first) and is_empty_set(second)
        else:
            assert states_equal(oracle, first)
            assert states_equal(oracle, second)


class TestSessions:
    def test_plain_session(self):
        session = Session()
        session.execute(SESSION_PROGRAM)
        check_session(session, session.database)
        assert session.plan_cache_info()["hits"] == len(SESSION_QUERIES)

    def test_sharded_session(self):
        session = Session(shards=2)
        session.execute(SESSION_PROGRAM)
        oracle_db = session.database
        check_session(session, oracle_db)
        session.close()

    def test_durable_and_replica_sessions(self, tmp_path):
        primary = Session(str(tmp_path / "primary"))
        primary.execute(SESSION_PROGRAM)
        replica = Session(replica_of=primary)
        try:
            check_session(primary, primary.database)
            check_session(replica, primary.database)
        finally:
            replica.close()
            primary.close()

    def test_seeded_random_workload_all_modes_agree(
        self, test_seed, tmp_path
    ):
        """A seeded random command stream applied to plain, sharded and
        durable sessions; every mode must answer every query like the
        plain evaluator on its own database value (and the values must
        agree across modes)."""
        rng = random.Random(test_seed)
        commands = [
            "define_relation(r, rollback)",
            "modify_state(r, state (k: integer, v: integer) { (0, 0) })",
        ]
        for _ in range(12):
            k = rng.randrange(10)
            v = rng.randrange(5)
            if rng.random() < 0.7:
                commands.append(
                    "modify_state(r, rollback(r, now) union state "
                    f"(k: integer, v: integer) {{ ({k}, {v}) }})"
                )
            else:
                commands.append(
                    "modify_state(r, rollback(r, now) minus select "
                    f"[k = {k}] (rollback(r, now)))"
                )
        txn = rng.randrange(2, 8)
        queries = [
            f"select [k > {rng.randrange(5)}] (rollback(r, now) "
            f"union rollback(r, {txn}))",
            f"project [k] (select [v < {rng.randrange(1, 5)}] "
            "(rollback(r, now)))",
        ]

        plain = Session()
        sharded = Session(shards=2)
        durable = Session(str(tmp_path / "durable"))
        try:
            for command in commands:
                plain.execute(command)
                sharded.execute(command)
                durable.execute(command)
            assert sharded.database == plain.database
            assert durable.database == plain.database
            for source in queries:
                oracle = evaluate(
                    parse_expression(source), plain.database
                )
                for session in (plain, sharded, durable):
                    for _ in range(2):
                        result = session.query(source)
                        if is_empty_set(oracle):
                            assert is_empty_set(result)
                        else:
                            assert states_equal(oracle, result)
        finally:
            sharded.close()
            durable.close()


# ---------------------------------------------------------------------------
# shape-cached plans against a fresh parse
# ---------------------------------------------------------------------------
#
# A session plans a query once per *shape* (its text with the rollback
# numerals and comparison literals lifted into parameters) and keeps the
# plan across writes that leave the catalog alone.  The e2e oracle plans
# and renders through this same code, so this suite is the independent
# check: every answer must equal a fresh parse evaluated by the plain
# semantics, errors included.

SHAPE_PROGRAM = (
    "define_relation(r, rollback)",
    "modify_state(r, state (k: integer, v: integer) "
    "{ (1, 10), (2, 20), (5, 1) })",
    "define_relation(s, rollback)",
    "modify_state(s, state (k: integer, v: integer) { (5, 5), (9, 1) })",
    "modify_state(r, rollback(r, now) union "
    "state (k: integer, v: integer) { (7, 2), (8, 3) })",
    "define_relation(w, rollback)",
    'modify_state(w, state (name: string, n: integer) '
    '{ ("x y", 1), ("x  y", 2), ("z", 3) })',
    "modify_state(r, rollback(r, now) minus "
    "select [k = 1] (rollback(r, now)))",
    "define_relation(t, snapshot)",
    "modify_state(t, state (k: integer, v: integer) { (1, 1) })",
    'modify_state(w, rollback(w, now) union '
    'state (name: string, n: integer) { ("a", 4) })',
)

#: Numerals beyond the last transaction, negative ones (a RollbackError
#: at parse time) and ``now``; ``t`` is a snapshot relation (a numeral
#: on it is a RelationTypeError) and ``nosuch`` is unbound.
NUMERALS = st.one_of(st.just("now"), st.integers(-2, 14).map(str))
CONSTANTS = st.integers(-3, 12).map(str)
WORDS = st.sampled_from(['"x y"', '"x  y"', '"z"', '"a"', '"-- no"', '""'])
SEPARATORS = st.sampled_from([" ", " ", "  ", "\n", " -- note\n"])


@st.composite
def kv_predicates(draw, depth: int = 0) -> list:
    choice = draw(st.integers(0, 4 if depth < 2 else 1))
    if choice < 2:
        attribute = draw(st.sampled_from(["k", "v"]))
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        constant = draw(CONSTANTS)
        if choice == 0:
            return [attribute, op, constant]
        return [constant, op, attribute]
    if choice == 4:
        return ["not", "(", *draw(kv_predicates(depth + 1)), ")"]
    connective = "and" if choice == 2 else "or"
    return [
        "(", *draw(kv_predicates(depth + 1)), ")",
        connective,
        "(", *draw(kv_predicates(depth + 1)), ")",
    ]


@st.composite
def kv_terms(draw, depth: int = 0) -> list:
    choice = draw(st.integers(0, 5 if depth < 3 else 1))
    if choice == 0:
        relation = draw(st.sampled_from(["r", "r", "s", "t", "nosuch"]))
        return ["rollback", "(", relation, ",", draw(NUMERALS), ")"]
    if choice == 1:
        return [
            "state", "(", "k", ":", "integer", ",", "v", ":", "integer",
            ")", "{", "(", draw(CONSTANTS), ",", draw(CONSTANTS), ")", "}",
        ]
    if choice == 2:
        return [
            "select", "[", *draw(kv_predicates()), "]",
            "(", *draw(kv_terms(depth + 1)), ")",
        ]
    if choice == 5:
        return [
            "project", "[", "k", ",", "v", "]",
            "(", *draw(kv_terms(depth + 1)), ")",
        ]
    operator = "union" if choice == 3 else "minus"
    return [
        "(", *draw(kv_terms(depth + 1)), ")",
        operator,
        "(", *draw(kv_terms(depth + 1)), ")",
    ]


@st.composite
def query_texts(draw) -> str:
    kind = draw(st.integers(0, 3))
    if kind == 0:
        pieces = ["project", "[", "k", "]", "(", *draw(kv_terms()), ")"]
    elif kind == 1:
        pieces = [
            "select", "[", "name", "=", draw(WORDS), "or", "n",
            draw(st.sampled_from(["<", ">"])), draw(CONSTANTS), "]",
            "(", "rollback", "(", "w", ",", draw(NUMERALS), ")", ")",
        ]
    else:
        pieces = draw(kv_terms())
    text = pieces[0]
    for piece in pieces[1:]:
        text += draw(SEPARATORS) + piece
    return text


def outcome(evaluate_text, text: str):
    """``("ok", rendered result)`` or ``("error", exception type)``."""
    from repro.errors import ReproError
    from repro.server.store import render_state

    try:
        result = evaluate_text(text)
    except ReproError as error:
        return ("error", type(error).__name__)
    return ("ok", result if isinstance(result, str) else render_state(result))


class TestShapeCachedPlans:
    def test_equal_a_fresh_parse_on_every_backing(self, tmp_path):
        from repro.replication import RetryPolicy
        from repro.server.store import ServerStore

        plain = Session()
        durable = Session(str(tmp_path / "durable"))
        plain_store = ServerStore()
        durable_store = ServerStore(durable_dir=str(tmp_path / "store"))
        for source in SHAPE_PROGRAM:
            for writer in (plain, durable, plain_store):
                writer.execute(source)
            durable_store.execute(source)
        replica = Session(replica_of=durable, retry=RetryPolicy.none())
        readers = {
            "plain": plain.query,
            "durable": durable.query,
            "replica": replica.query,
            "plain view": plain_store.view().query,
            "durable view": durable_store.view().query,
        }
        oracle_db = plain.database
        texts = set()
        try:

            @settings(max_examples=200, deadline=None)
            @given(query_texts())
            def check(text):
                texts.add(text)
                expected = outcome(
                    lambda t: parse_expression(t).evaluate(oracle_db), text
                )
                for name, read in readers.items():
                    assert outcome(read, text) == expected, (name, text)

            check()
            # distinct texts differing only in literals shared plans
            assert plain.plan_cache_info()["misses"] < len(texts)
        finally:
            replica.close()
            durable.close()
            durable_store.close()

    @pytest.mark.parametrize(
        "text",
        [
            "rollback(r, -1)",
            "select [k < 3] (rollback(r, -2))",
            "rollback(nosuch, 2) minus rollback(r, -1)",
            "rollback(t, 3)",
            "rollback(nosuch, 3)",
            "select [k < 3] (rollback(nosuch, now))",
        ],
    )
    def test_errors_match_a_fresh_parse_on_a_cached_shape(self, text):
        from repro.errors import ReproError

        session = Session()
        for source in SHAPE_PROGRAM:
            session.execute(source)
        # plan the numeral shapes with valid values first; the others
        # have no valid text, so their second run is the cached one
        session.query("rollback(r, 3)")
        session.query("select [k < 1] (rollback(r, 4))")
        with pytest.raises(ReproError) as fresh:
            parse_expression(text).evaluate(session.database)
        for _ in range(2):
            with pytest.raises(type(fresh.value)):
                session.query(text)


STREAM_RELATIONS = ("a", "b")
KV_SCHEME = "(k: integer, v: integer)"
K_SCHEME = "(k: integer)"


@st.composite
def catalog_commands(draw) -> str:
    """Commands that define relations, give them a first state, change
    their scheme, empty them, or grow them in place."""
    name = draw(st.sampled_from(STREAM_RELATIONS))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        rtype = draw(st.sampled_from(["rollback", "rollback", "snapshot"]))
        return f"define_relation({name}, {rtype})"
    if kind == 3:
        return f"modify_state({name}, rollback({name}, now) minus " \
            f"rollback({name}, now))"
    keys = draw(st.lists(st.integers(0, 6), max_size=8))
    if draw(st.booleans()):
        scheme = K_SCHEME
        rows = ", ".join(f"({key})" for key in keys)
    else:
        scheme = KV_SCHEME
        rows = ", ".join(f"({key}, {key % 3})" for key in keys)
    constant = f"state {scheme} {{ {rows} }}"
    if kind == 4:
        return (
            f"modify_state({name}, rollback({name}, now) union {constant})"
        )
    return f"modify_state({name}, {constant})"


STREAM_QUERIES = (
    "rollback(a, now)",
    "rollback(a, 3)",
    "project [k] (rollback(a, now))",
    "project [k, v] (rollback(b, now))",
    "select [k < 3] (rollback(a, now) union rollback(b, now))",
    "project [k] (select [k > 1] (rollback(a, now) minus rollback(b, now)))",
    "select [k > 2] (rollback(a, now) times rename(rollback(b, now), k -> j))",
    "select [v = 1] (rollback(b, now))",
)


class TestPlansAcrossCommandStreams:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(catalog_commands(), min_size=1, max_size=14))
    @example(
        # re-planned under scheme (k) (the first state is a drift from
        # none), π[k] is an identity and goes; a same-sized state of
        # scheme (k, v) must bring it back
        [
            "define_relation(a, rollback)",
            "modify_state(a, state (k: integer) { (1), (2), (3), (4) })",
            "modify_state(a, state (k: integer, v: integer) "
            "{ (1, 1), (2, 2), (3, 3), (4, 4) })",
        ]
    )
    def test_cached_plan_equals_a_fresh_plan_after_every_command(
        self, commands
    ):
        from repro.errors import ReproError
        from repro.server.store import ServerStore

        cached = Session()
        store = ServerStore()
        view = store.view()
        for command in commands:
            try:
                cached.execute(command)
            except ReproError:
                continue
            store.execute(command)
            fresh = Session()
            fresh.reanchor(cached.database, record=False)
            for text in STREAM_QUERIES:
                expected = outcome(fresh.query, text)
                assert outcome(cached.query, text) == expected, (
                    commands, text
                )
                assert outcome(view.query, text) == expected, (
                    commands, text
                )

    @pytest.mark.parametrize("backing", COORDINATORS)
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.one_of(
                catalog_commands(),
                catalog_commands(),
                catalog_commands(),
                st.sampled_from(["rebalance", "add_shard", "failover"]),
            ),
            min_size=1,
            max_size=14,
        )
    )
    def test_cached_plan_equals_a_fresh_plan_on_a_coordinator(
        self, backing, steps
    ):
        """The same streams through a sharded or cluster session, with
        its topology moves mixed in: the coordinator's kept value hands
        plans on across writes and moves, and they must stay right."""
        from repro.errors import ReproError
        from repro.sharding import HashPartitioner

        with coordinator_session(backing) as cached:
            for salt, step in enumerate(steps):
                try:
                    if step == "rebalance":
                        cached.rebalance(HashPartitioner(salt=salt))
                    elif step == "add_shard":
                        cached.add_shard()
                    elif step == "failover":
                        if cached.cluster is None:
                            continue
                        shard = salt % cached.cluster.shard_count
                        cached.failover(shard)
                        cached.add_replica(shard)
                    else:
                        cached.execute(step)
                except ReproError:
                    continue
                fresh = Session()
                fresh.reanchor(cached.database, record=False)
                for text in STREAM_QUERIES:
                    assert outcome(cached.query, text) == outcome(
                        fresh.query, text
                    ), (steps, text)
