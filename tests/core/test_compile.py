"""Tests for the compiled expression engine.

:func:`repro.core.compile.compile_expression` must be a drop-in for
``expression.evaluate`` (C6 observation equivalence by construction —
every step dispatches through the same ``NODE_HANDLERS`` table), while
flattening the tree once: common subexpressions share one step, deep
chains neither recurse nor re-walk, and DAG-shaped trees compile in time
proportional to their *distinct* subtrees.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.commands import DefineRelation, ModifyState
from repro.core.compile import CompiledPlan, compile_expression
from repro.core.database import EMPTY_DATABASE
from repro.core.expressions import (
    Const,
    Difference,
    Product,
    Project,
    Rename,
    Rollback,
    Select,
    Union,
    evaluate,
    is_empty_set,
)
from repro.core.sentences import run
from repro.core.txn import NOW
from repro.snapshot.attributes import INTEGER, Attribute
from repro.snapshot.predicates import Comparison, attr, lit
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState

from tests.conftest import kv_states

KV = Schema([Attribute("k", INTEGER), Attribute("v", INTEGER)])


def kv(*rows):
    return SnapshotState(KV, [list(r) for r in rows])


@pytest.fixture
def db():
    return run(
        [
            DefineRelation("r", "rollback"),
            ModifyState("r", Const(kv((1, 10), (2, 20), (3, 30)))),
            ModifyState("r", Const(kv((1, 11), (4, 40)))),
            DefineRelation("empty", "rollback"),
        ]
    )


class TestEquivalence:
    def test_leaf_only(self, db):
        plan = compile_expression(Rollback("r", NOW))
        assert plan(db) == evaluate(Rollback("r", NOW), db)

    def test_const_leaf(self):
        state = kv((1, 1))
        plan = compile_expression(Const(state))
        assert plan(EMPTY_DATABASE) == state

    def test_delete_shape(self, db):
        source = Rollback("r", NOW)
        doomed = Select(source, Comparison(attr("k"), "=", lit(1)))
        query = Difference(source, doomed)
        assert compile_expression(query)(db) == evaluate(query, db)

    def test_untyped_empty_set_flows_through(self, db):
        query = Select(
            Rollback("empty", NOW), Comparison(attr("k"), "=", lit(1))
        )
        result = compile_expression(query)(db)
        assert is_empty_set(result)
        assert is_empty_set(evaluate(query, db))

    def test_historical_rollback(self, db):
        # rollback to a historical transaction number, compiled
        query = Union(Rollback("r", 2), Rollback("r", NOW))
        assert compile_expression(query)(db) == evaluate(query, db)

    @settings(max_examples=30, deadline=None)
    @given(kv_states(), kv_states())
    def test_random_states_agree(self, left, right):
        database = run(
            [
                DefineRelation("a", "rollback"),
                ModifyState("a", Const(left)),
                DefineRelation("b", "rollback"),
                ModifyState("b", Const(right)),
            ]
        )
        query = Project(
            Select(
                Union(Rollback("a", NOW), Rollback("b", NOW)),
                Comparison(attr("k"), ">", lit(3)),
            ),
            ("k",),
        )
        assert compile_expression(query)(database) == evaluate(
            query, database
        )


class TestPlanShape:
    def test_cse_shares_steps(self):
        source = Rollback("r", NOW)
        query = Difference(
            source, Select(source, Comparison(attr("k"), "=", lit(1)))
        )
        plan = compile_expression(query)
        # ρ appears twice in the tree but holds one step
        assert plan.node_count == 4
        assert plan.step_count == 3

    def test_reuse_across_calls(self, db):
        query = Union(Rollback("r", NOW), Rollback("r", 2))
        plan = compile_expression(query)
        first = plan(db)
        second = plan(db)
        assert first == second == evaluate(query, db)

    def test_deep_chain_compiles_iteratively(self, db):
        # far past the default recursion limit if compilation recursed
        query = Rollback("r", NOW)
        for index in range(5000):
            query = Select(
                query, Comparison(attr("k"), ">=", lit(-index))
            )
        plan = compile_expression(query)
        assert plan.step_count == 5001
        assert plan(db) == db.require("r").current_state

    def test_dag_counts_tree_nodes_without_walking_them(self):
        # e_{n+1} = e_n ∪ e_n: 2^200-node tree, 201 distinct subtrees
        expression = Const(kv((1, 1)))
        for _ in range(200):
            expression = Union(expression, expression)
        plan = compile_expression(expression)
        assert plan.step_count == 201
        assert plan.node_count == 2**201 - 1

    def test_repr_mentions_sharing(self):
        source = Rollback("r", NOW)
        plan = compile_expression(Union(source, source))
        assert "2 steps" in repr(plan)
        assert "3 tree nodes" in repr(plan)


class TestEngineMetrics:
    def test_compile_and_execute_counters(self, db):
        from repro.obsv import registry as obsv_registry
        from repro.obsv.registry import MetricsRegistry

        registry = obsv_registry.enable(MetricsRegistry())
        try:
            source = Rollback("r", NOW)
            query = Difference(
                source,
                Select(source, Comparison(attr("k"), "=", lit(1))),
            )
            plan = compile_expression(query)
            plan(db)
            plan(db)
            counters = registry.snapshot()["counters"]
        finally:
            obsv_registry.disable()
        assert counters["engine.plans_compiled"] == 1
        assert counters["engine.steps_compiled"] == 3
        assert counters["engine.cse_nodes_saved"] == 1
        assert counters["engine.plan_executions"] == 2
        assert counters["engine.steps_executed"] == 6

    def test_disabled_is_silent(self, db):
        from repro.obsv import registry as obsv_registry

        assert not obsv_registry.enabled()
        plan = compile_expression(Union(Rollback("r", NOW), Rollback("r", 2)))
        plan(db)  # must not raise with no observer installed


class TestBinding:
    """A template's Parameters are bound per query; steps without one
    are shared, and every value is checked before anything runs."""

    def template(self):
        from repro.core.expressions import Parameter

        return Union(
            Select(
                Rollback("r", Parameter(0)),
                Comparison(attr("k"), "<", lit(Parameter(1))),
            ),
            Rollback("r", NOW),
        )

    def test_bound_plan_equals_the_bound_tree(self, db):
        from repro.core.compile import bind

        plan = compile_expression(self.template())
        for params in ((2, 3), (3, 2), (3, 9), (1, 0)):
            bound = plan.bind(params)
            tree = bind(self.template(), params)
            assert bound.expression == tree
            assert bound(db) == evaluate(tree, db)

    def test_unparameterized_steps_are_shared(self):
        plan = compile_expression(self.template())
        bound = plan.bind((2, 3))
        shared = [
            mine is theirs
            for (_, mine, _), (_, theirs, _) in zip(bound._steps, plan._steps)
        ]
        # rollback(r, now) is the only step without a parameter below it
        assert shared.count(True) == 1
        fixed = compile_expression(Rollback("r", NOW))
        assert fixed.bind(()) is fixed

    def test_a_bad_numeral_raises_before_any_step_runs(self, db):
        from repro.core.expressions import Parameter
        from repro.errors import RollbackError

        template = Difference(
            Rollback("missing", NOW), Rollback("r", Parameter(0))
        )
        plan = compile_expression(template)
        with pytest.raises(RollbackError):
            plan.bind((-1,))(db)

    def test_steps_run_left_to_right(self):
        """Operands that fail differently raise what ``evaluate``
        raises: the left one's error."""
        from repro.errors import UnknownRelationError

        database = run(
            [
                DefineRelation("snap", "snapshot"),
                ModifyState("snap", Const(kv((1, 1)))),
            ]
        )
        # ρ(snap, 1) alone is a RelationTypeError
        query = Union(Rollback("missing", NOW), Rollback("snap", 1))
        with pytest.raises(UnknownRelationError):
            evaluate(query, database)
        with pytest.raises(UnknownRelationError):
            compile_expression(query)(database)
