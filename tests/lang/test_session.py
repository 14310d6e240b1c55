"""Tests for interactive sessions and the state formatter."""

import pytest

from repro.core.database import EMPTY_DATABASE
from repro.core.relation import Relation
from repro.lang.session import Session, format_state
from repro.optimizer.rewriter import CostGuidedRewriter
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState

from tests.conftest import COORDINATORS, calls_to, coordinator_session

PROGRAM = """
define_relation(faculty, rollback);
modify_state(faculty,
    state (name: string, rank: string) { ("merrie", "assistant") });
modify_state(faculty,
    rollback(faculty, now)
    union state (name: string, rank: string) { ("tom", "full") });
"""


class TestSession:
    def test_execute_program(self):
        session = Session()
        session.execute(PROGRAM)
        assert session.transaction_number == 3
        assert len(session.current_state("faculty")) == 2

    def test_incremental_equals_batch(self):
        """Executing commands one at a time equals evaluating the whole
        sentence — compositionality of C."""
        batch = Session()
        batch.execute(PROGRAM)

        incremental = Session()
        for line in [
            "define_relation(faculty, rollback)",
            'modify_state(faculty, state (name: string, rank: string)'
            ' { ("merrie", "assistant") })',
            'modify_state(faculty, rollback(faculty, now) union '
            'state (name: string, rank: string) { ("tom", "full") })',
        ]:
            incremental.execute_command(line)
        assert incremental.database == batch.database

    def test_query_is_side_effect_free(self):
        session = Session()
        session.execute(PROGRAM)
        before = session.database
        session.query("project [name] (rollback(faculty, now))")
        assert session.database == before

    def test_query_result(self):
        session = Session()
        session.execute(PROGRAM)
        result = session.query(
            'select [rank = "full"] (rollback(faculty, now))'
        )
        assert result.sorted_rows() == [("tom", "full")]

    def test_history_trail(self):
        session = Session()
        session.execute(PROGRAM)
        assert session.history[0] == EMPTY_DATABASE
        assert len(session.history) == 4  # empty + 3 commands
        txns = [db.transaction_number for db in session.history]
        assert txns == [0, 1, 2, 3]

    def test_display_table(self):
        session = Session()
        session.execute(PROGRAM)
        text = session.display("faculty")
        assert "faculty" in text
        assert "merrie" in text
        assert "tom" in text

    def test_display_past_state(self):
        session = Session()
        session.execute(PROGRAM)
        text = session.display("faculty", 2)
        assert "merrie" in text
        assert "tom" not in text

    def test_display_fresh_relation(self):
        session = Session()
        session.execute("define_relation(r, rollback)")
        assert "no recorded state" in session.display("r")


class TestFormatState:
    def test_empty_state(self):
        state = SnapshotState.empty(Schema(["a", "b"]))
        text = format_state(state)
        assert "(empty)" in text
        assert "a" in text

    def test_historical_state_shows_valid_column(self):
        from repro.historical.state import HistoricalState

        state = HistoricalState.from_rows(
            Schema(["k"]), [(["x"], [(0, 5)])]
        )
        text = format_state(state)
        assert "valid" in text
        assert "[0, 5)" in text


class TestHistoryLimit:
    def test_default_is_bounded(self):
        session = Session()
        assert session.history_limit == Session.DEFAULT_HISTORY_LIMIT

    def test_trail_is_trimmed_to_limit(self):
        session = Session(history_limit=3)
        session.execute("define_relation(r, rollback)")
        for i in range(10):
            session.execute(
                "modify_state(r, rollback(r, now) union "
                'state (k: integer) { (%d) })' % i
            )
        assert len(session.history) == 3
        # the retained suffix is the most recent databases, newest last
        txns = [db.transaction_number for db in session.history]
        assert txns == [9, 10, 11]
        assert session.history[-1] == session.database

    def test_none_retains_everything(self):
        session = Session(history_limit=None)
        session.execute("define_relation(r, rollback)")
        for i in range(10):
            session.execute(
                "modify_state(r, rollback(r, now) union "
                'state (k: integer) { (%d) })' % i
            )
        assert len(session.history) == 12  # empty + 11 commands

    def test_bounded_trail_is_a_suffix_of_unbounded(self):
        bounded = Session(history_limit=4)
        unbounded = Session(history_limit=None)
        for s in (bounded, unbounded):
            s.execute(PROGRAM)
            s.execute(
                "modify_state(faculty, rollback(faculty, now) union "
                'state (name: string, rank: string) { ("amy", "assoc") })'
            )
        assert bounded.history == unbounded.history[-4:]
        assert bounded.database == unbounded.database

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            Session(history_limit=0)
        with pytest.raises(ValueError):
            Session(history_limit=-5)


class TestPlanCache:
    def test_repeat_query_reuses_parsed_expression(self):
        session = Session()
        session.execute(PROGRAM)
        source = "project [name] (rollback(faculty, now))"
        first = session._cached_expression(source)
        assert session._cached_expression(source) is first
        assert session.plan_cache_info()["size"] == 1

    def test_query_results_unchanged_by_caching(self):
        cached = Session()
        uncached = Session(plan_cache_capacity=0)
        for s in (cached, uncached):
            s.execute(PROGRAM)
        source = 'select [rank = "full"] (rollback(faculty, now))'
        for _ in range(3):
            assert (
                cached.query(source).sorted_rows()
                == uncached.query(source).sorted_rows()
            )
        assert cached.plan_cache_info()["size"] == 1
        assert uncached.plan_cache_info()["size"] == 0

    def test_capacity_bounds_cache(self):
        session = Session(plan_cache_capacity=2)
        session.execute(PROGRAM)
        for name in ("name", "rank", "name", "rank"):
            session.query("project [%s] (rollback(faculty, now))" % name)
        session.query("rollback(faculty, now)")
        assert session.plan_cache_info()["size"] == 2

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            Session(plan_cache_capacity=-1)

    def test_whitespace_variants_share_one_plan(self):
        """The cache key is the query's token shape, so reformatting a
        query must hit the plan compiled for its first spelling."""
        session = Session()
        session.execute(PROGRAM)
        spellings = [
            "project [name] (rollback(faculty, now))",
            "project  [name]  (rollback(faculty,  now))",
            "project [name]\n    (rollback(faculty, now))",
            "  project [name] (rollback(faculty, now))  ",
        ]
        results = [session.query(s).sorted_rows() for s in spellings]
        assert all(rows == results[0] for rows in results)
        info = session.plan_cache_info()
        assert info["size"] == 1
        assert info["misses"] == 1
        assert info["hits"] == len(spellings) - 1

    def test_info_reports_hits_and_misses(self):
        session = Session()
        session.execute(PROGRAM)
        assert session.plan_cache_info()["hits"] == 0
        session.query("rollback(faculty, now)")
        session.query("rollback(faculty, now)")
        session.query("project [rank] (rollback(faculty, now))")
        info = session.plan_cache_info()
        assert info["hits"] == 1
        assert info["misses"] == 2

    def test_cached_plan_replans_after_new_transaction(self):
        """A cached plan outlives a write that keeps the catalog, but it
        runs against the new value: it must not serve the stale
        answer."""
        session = Session()
        session.execute(PROGRAM)
        source = "project [name] (rollback(faculty, now))"
        before = session.query(source).sorted_rows()
        session.execute(
            "modify_state(faculty, rollback(faculty, now) union "
            'state (name: string, rank: string) { ("zoe", "assoc") })'
        )
        after = session.query(source).sorted_rows()
        assert before != after
        assert ("zoe",) in after

    def test_whitespace_inside_strings_is_part_of_the_query(self):
        """Regression: the key was ``" ".join(source.split())``, which
        folds runs of whitespace inside string literals too, so a text
        differing only there was answered from the other's plan."""
        session = Session()
        session.execute(
            "define_relation(r, rollback);"
            'modify_state(r, state (k: string) { ("x y"), ("x  y") })'
        )
        single = 'select [k = "x y"] (rollback(r, now))'
        double = 'select [k = "x  y"] (rollback(r, now))'
        assert session.query(single).sorted_rows() == [("x y",)]
        assert session.query(double).sorted_rows() == [("x  y",)]
        constant = 'state (k: string) { ("a %s b") }'
        for gap in (" ", "  ", " ", "  "):
            rows = session.query(constant % gap).sorted_rows()
            assert rows == [(f"a {gap} b",)]

    def test_a_comment_ends_at_its_line(self):
        """Regression: ``-- c⏎ union B`` and ``-- c union B`` normalized
        to one key although the second comments ``union B`` out."""
        session = Session()
        session.execute(PROGRAM)
        session.execute(
            "define_relation(other, rollback);"
            'modify_state(other, state (name: string, rank: string)'
            ' { ("zed", "full") })'
        )
        two_lines = "rollback(faculty, now) -- c\nunion rollback(other, now)"
        one_line = "rollback(faculty, now) -- c union rollback(other, now)"
        assert len(session.query(two_lines)) == 3
        assert len(session.query(one_line)) == 2
        assert session.plan_cache_info()["size"] == 2

    def test_texts_differing_in_literals_share_one_plan(self):
        session = Session()
        session.execute(PROGRAM)
        results = [
            session.query(
                f'select [rank = "{rank}"] (rollback(faculty, {txn}))'
            ).sorted_rows()
            for txn, rank in ((2, "assistant"), (3, "full"), (3, "x"))
        ]
        assert results == [[("merrie", "assistant")], [("tom", "full")], []]
        info = session.plan_cache_info()
        assert (info["size"], info["misses"], info["hits"]) == (1, 1, 2)

    def test_a_repeated_text_is_not_lexed_again(self):
        import repro.lang.session as session_module

        session = Session()
        session.execute(PROGRAM)
        texts = [
            "rollback(faculty, 2)",
            'select [rank = "full"] (rollback(faculty, 3))',
        ]
        for text in texts:
            session.query(text)
        with calls_to(session_module, "tokenize") as lexed:
            for _ in range(3):
                for text in texts:
                    session.query(text)
        assert lexed == []


def replace_faculty(index: int) -> str:
    """A write that keeps the catalog and the cardinality: two rows of
    the same scheme."""
    return (
        "modify_state(faculty, state (name: string, rank: string) "
        f'{{ ("p{index}", "full"), ("q", "assistant") }})'
    )


class TestPlanValidity:
    """A plan is re-optimized when the catalog token or a cardinality
    moves, and only then (counted, not timed)."""

    SOURCE = 'select [rank = "full"] (rollback(faculty, now))'

    def test_writes_that_keep_the_catalog_keep_the_plan(self):
        self.check_writes_keep_the_plan(Session())

    @pytest.mark.parametrize("backing", COORDINATORS)
    def test_writes_that_keep_the_catalog_keep_the_plan_on_a_coordinator(
        self, backing
    ):
        with coordinator_session(backing) as session:
            self.check_writes_keep_the_plan(session)

    def check_writes_keep_the_plan(self, session):
        session.execute(PROGRAM)
        with calls_to(CostGuidedRewriter, "rewrite") as rewrites:
            assert session.query(self.SOURCE).sorted_rows() == [
                ("tom", "full")
            ]
            for index in range(20):
                session.execute(replace_faculty(index))
                assert session.query(self.SOURCE).sorted_rows() == [
                    (f"p{index}", "full")
                ]
        assert len(rewrites) == 1

    @pytest.mark.parametrize("backing", COORDINATORS)
    def test_warm_coordinator_reads_assemble_no_relation(self, backing):
        """A coordinator hands back its kept global value while nothing
        changed: 100 reads build no relation and plan nothing."""
        with coordinator_session(backing) as session:
            session.execute(PROGRAM)
            assert len(session.query(self.SOURCE)) == 1
            with calls_to(Relation, "__init__") as built, calls_to(
                CostGuidedRewriter, "rewrite"
            ) as rewrites:
                for _ in range(100):
                    assert session.query(self.SOURCE).sorted_rows() == [
                        ("tom", "full")
                    ]
            assert (built, rewrites) == ([], [])

    def test_a_catalog_change_replans(self):
        session = Session()
        session.execute(PROGRAM)
        source = "project [name] (rollback(faculty, now))"
        with calls_to(CostGuidedRewriter, "rewrite") as rewrites:
            session.query(source)
            session.execute("define_relation(other, rollback)")
            session.query(source)
            session.execute(
                "modify_state(other, state (k: integer) { (1) })"
            )
            session.query(source)
            session.execute(
                "modify_state(faculty, state (name: string) { (\"ann\") })"
            )
            assert session.query(source).sorted_rows() == [("ann",)]
        assert len(rewrites) == 4

    def test_cardinality_drift_replans(self):
        from repro.lang.session import DRIFT_FACTOR

        def add(name: str) -> None:
            session.execute(
                "modify_state(faculty, rollback(faculty, now) union "
                f'state (name: string, rank: string) {{ ("{name}", "x") }})'
            )

        session = Session()
        session.execute(PROGRAM)
        # planned at 2 tuples; the largest size that is not a drift
        within = int(DRIFT_FACTOR * (2 + 1)) - 1
        with calls_to(CostGuidedRewriter, "rewrite") as rewrites:
            session.query(self.SOURCE)
            for size in range(3, within + 1):
                add(f"n{size}")
                session.query(self.SOURCE)
            assert len(rewrites) == 1
            add("one too many")
            session.query(self.SOURCE)
        assert len(rewrites) == 2

    def test_a_time_travel_stream_plans_each_shape_once(self, test_seed):
        """The audit stream: reads at random past transactions with
        random bounds over two relations, and a few appends."""
        import random

        rng = random.Random(test_seed)
        session = Session()
        for name in ("a", "b"):
            session.execute(f"define_relation({name}, rollback)")
            for version in range(20):
                rows = ", ".join(f"({version * 10 + i})" for i in range(10))
                session.execute(
                    f"modify_state({name}, state (key: integer) {{ {rows} }})"
                )
        last = session.transaction_number
        shapes = (
            "rollback({0}, {1})",
            "select [key < {2}] (rollback({0}, {1}))",
            "project [key] (rollback({0}, {1}))",
            "rollback({0}, {1}) minus rollback({0}, {3})",
        )
        with calls_to(CostGuidedRewriter, "rewrite") as rewrites:
            for _ in range(400):
                name = rng.choice("ab")
                if rng.random() < 0.05:
                    session.execute(
                        f"modify_state({name}, rollback({name}, now) union "
                        f"state (key: integer) {{ ({rng.randrange(500)}) }})"
                    )
                    continue
                text = rng.choice(shapes).format(
                    name,
                    rng.randint(1, last),
                    rng.randrange(200),
                    rng.randint(1, last),
                )
                session.query(text)
        assert len(rewrites) <= 2 * len(shapes)
        assert session.plan_cache_info()["evictions"] == 0


class TestExplain:
    def test_explain_shows_plans_and_costs(self):
        session = Session()
        session.execute(PROGRAM)
        text = session.explain(
            'select [rank = "full"] (project [name, rank] '
            "(rollback(faculty, now)))"
        )
        assert text.startswith("plan  (cost ≈")
        assert "optimized" in text
        assert "Rollback[faculty" in text

    def test_explain_reports_accepted_rewrite(self):
        session = Session()
        session.execute(PROGRAM)
        # σ over ∪ splits into σ ∪ σ and prunes; the trace shows the
        # cost drop that justified keeping the rewrite
        text = session.explain(
            'select [rank = "full"] (rollback(faculty, now) union '
            "rollback(faculty, now))"
        )
        assert "rewrite" in text
        assert "kept" in text or "no cost-reducing rewrite" in text


class TestExecuteMany:
    BATCH = [
        "define_relation(faculty, rollback)",
        'modify_state(faculty, state (name: string, rank: string)'
        ' { ("merrie", "assistant") })',
        'modify_state(faculty, rollback(faculty, now) union '
        'state (name: string, rank: string) { ("tom", "full") })',
    ]

    def test_batch_equals_one_at_a_time(self):
        batched = Session()
        batched.execute_many(self.BATCH)
        sequential = Session()
        for line in self.BATCH:
            sequential.execute_command(line)
        assert batched.database == sequential.database
        assert batched.transaction_number == 3

    def test_sentence_items_are_split(self):
        session = Session()
        session.execute_many([PROGRAM])  # one multi-command sentence
        assert session.transaction_number == 3

    def test_durable_group_commit_survives_reopen(self, tmp_path):
        directory = str(tmp_path / "db")
        session = Session(directory)
        session.execute_many(self.BATCH)
        session.close()
        reopened = Session(directory)
        assert reopened.transaction_number == 3
        assert len(reopened.current_state("faculty")) == 2
        reopened.close()


class TestBackingKwargs:
    """A kwarg that tunes a backing the session does not have is an
    error, not a silent no-op."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_lag": 5},
            {"on_stale": "serve"},
            {"retry": object()},
            {"shards": 2, "max_lag": 0},
        ],
    )
    def test_replica_tuning_needs_replica_of(self, kwargs):
        with pytest.raises(ValueError, match="need replica_of="):
            Session(**kwargs)

    def test_partitioner_needs_shards(self):
        from repro.sharding import HashPartitioner

        with pytest.raises(ValueError, match="needs shards=N"):
            Session(partitioner=HashPartitioner())

    def test_matching_kwargs_still_compose(self):
        from repro.sharding import HashPartitioner

        partitioner = HashPartitioner(salt=7)
        with Session(shards=2, partitioner=partitioner) as session:
            session.execute("define_relation(r, rollback)")
            assert session.sharded.partitioner is partitioner
        assert Session(on_stale="reject").transaction_number == 0


class TestReanchor:
    def test_replaces_the_value_and_records_it(self):
        source = Session()
        source.execute(PROGRAM)
        session = Session()
        session.reanchor(source.database)
        assert session.database is source.database
        assert session.history == (EMPTY_DATABASE, source.database)
        assert session.query("rollback(faculty, now)") == source.query(
            "rollback(faculty, now)"
        )

    def test_without_record_the_trail_is_untouched(self):
        source = Session()
        source.execute(PROGRAM)
        session = Session()
        for database in source.history:
            session.reanchor(database, record=False)
        assert session.database is source.database
        assert session.history == (EMPTY_DATABASE,)

    def test_refused_where_the_value_has_another_owner(self, tmp_path):
        from repro.errors import ConcurrencyError, StorageError

        with Session(str(tmp_path / "db")) as durable:
            with pytest.raises(StorageError, match=r"^reanchor\(\)"):
                durable.reanchor(EMPTY_DATABASE)
        managed = Session(isolation="si")
        with pytest.raises(ConcurrencyError, match=r"^reanchor\(\)"):
            managed.reanchor(EMPTY_DATABASE)
