"""Tests for the rollback-oriented rewrite rules and the cost-guided
rewriter.

The new rules move selections and projections toward ``ρ`` leaves so
fewer historical states are materialized; each is property-checked for
semantics preservation over randomized snapshot *and* historical
operands (claims C2/C5).  The cost-guided driver is checked for its
contract: the returned plan is observation-equivalent to the input and
never prices higher — rewrites that would raise the estimate are
recorded in the trace as rejected and do not survive.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.commands import DefineRelation, ModifyState
from repro.core.expressions import (
    Const,
    Derive,
    Product,
    Project,
    Rollback,
    Select,
    Union,
)
from repro.core.sentences import run
from repro.core.txn import NOW
from repro.historical.predicates import ValidAt
from repro.historical.state import HistoricalState
from repro.historical.temporal_exprs import ValidTime
from repro.historical.tuples import HistoricalTuple
from repro.optimizer import (
    CostGuidedRewriter,
    EXTENDED_RULES,
    PushProjectBelowProduct,
    PushProjectBelowSelect,
    PushSelectBelowDerive,
    estimate_cost,
    optimize,
    optimize_with_cost,
)
from repro.optimizer.equivalence import states_equal
from repro.snapshot.attributes import INTEGER, Attribute
from repro.snapshot.predicates import And, Comparison, attr, lit
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState

from tests.conftest import kv_historical_states, kv_states

KV = Schema([Attribute("k", INTEGER), Attribute("v", INTEGER)])
XY = Schema([Attribute("x", INTEGER), Attribute("y", INTEGER)])
CATALOG = {"r": KV, "t": XY, "h1": KV, "hx": XY}

PK = Comparison(attr("k"), ">", lit(4))
PX = Comparison(attr("x"), "=", lit(1))


def kv(*rows):
    return SnapshotState(KV, [list(r) for r in rows])


def xy_of(state):
    """Relabel a random k/v snapshot state onto the x/y schema."""
    return SnapshotState(XY, [list(t.values) for t in state.tuples])


def hxy_of(state):
    """Relabel a random k/v historical state onto the x/y schema."""
    return HistoricalState(
        XY,
        [
            HistoricalTuple(
                list(t.value.values), t.valid_time, schema=XY
            )
            for t in state.tuples
        ],
    )


def snapshot_db(r_state, t_state=None):
    commands = [
        DefineRelation("r", "rollback"),
        ModifyState("r", Const(r_state)),
    ]
    if t_state is not None:
        commands += [
            DefineRelation("t", "rollback"),
            ModifyState("t", Const(t_state)),
        ]
    return run(commands)


def temporal_db(h1_state, hx_state=None):
    commands = [
        DefineRelation("h1", "temporal"),
        ModifyState("h1", Const(h1_state)),
    ]
    if hx_state is not None:
        commands += [
            DefineRelation("hx", "temporal"),
            ModifyState("hx", Const(hx_state)),
        ]
    return run(commands)


def check(rule, expression, database):
    rewritten = rule.apply(expression, CATALOG)
    assert rewritten is not None, f"{rule.name} did not fire"
    assert rewritten != expression
    assert states_equal(
        expression.evaluate(database), rewritten.evaluate(database)
    )
    return rewritten


class TestPushSelectBelowDerive:
    @settings(max_examples=30)
    @given(kv_historical_states())
    def test_commutes_with_derivation(self, h1):
        db = temporal_db(h1)
        expression = Select(
            Derive(
                Rollback("h1", NOW), ValidAt(ValidTime(), 5), ValidTime()
            ),
            PK,
        )
        rewritten = check(PushSelectBelowDerive(), expression, db)
        assert isinstance(rewritten, Derive)
        assert isinstance(rewritten.operand, Select)

    @settings(max_examples=30)
    @given(kv_historical_states())
    def test_commutes_with_default_derive(self, h1):
        db = temporal_db(h1)
        expression = Select(Derive(Rollback("h1", NOW)), PK)
        check(PushSelectBelowDerive(), expression, db)

    def test_inapplicable_without_derive(self):
        assert (
            PushSelectBelowDerive().apply(
                Select(Rollback("r", NOW), PK), CATALOG
            )
            is None
        )


class TestPushProjectBelowSelect:
    @settings(max_examples=30)
    @given(kv_states())
    def test_snapshot_commutes_when_refs_covered(self, state):
        db = snapshot_db(state)
        expression = Project(Select(Rollback("r", NOW), PK), ("k",))
        rewritten = check(PushProjectBelowSelect(), expression, db)
        assert isinstance(rewritten, Select)
        assert isinstance(rewritten.operand, Project)

    @settings(max_examples=30)
    @given(kv_historical_states())
    def test_historical_commutes(self, h1):
        db = temporal_db(h1)
        expression = Select(Rollback("h1", NOW), PK)
        expression = Project(expression, ("k",))
        # catalog maps h1 to KV; rule needs only predicate refs ⊆ names
        check(PushProjectBelowSelect(), expression, db)

    def test_inapplicable_when_predicate_needs_dropped_attribute(self):
        expression = Project(
            Select(Rollback("r", NOW), PK), ("v",)
        )  # predicate reads k, projection keeps only v
        assert (
            PushProjectBelowSelect().apply(expression, CATALOG) is None
        )


class TestPushProjectBelowProduct:
    @settings(max_examples=25)
    @given(kv_states(max_rows=5), kv_states(max_rows=5))
    def test_snapshot_splits_ordered_partition(self, left, right):
        db = snapshot_db(left, xy_of(right))
        expression = Project(
            Product(Rollback("r", NOW), Rollback("t", NOW)), ("k", "x")
        )
        rewritten = check(PushProjectBelowProduct(), expression, db)
        assert isinstance(rewritten, Product)
        assert rewritten.left == Project(Rollback("r", NOW), ("k",))
        assert rewritten.right == Project(Rollback("t", NOW), ("x",))

    @settings(max_examples=25)
    @given(
        kv_historical_states(max_rows=4),
        kv_historical_states(max_rows=4),
    )
    def test_historical_splits(self, h1, hx):
        db = temporal_db(h1, hxy_of(hx))
        expression = Project(
            Product(Rollback("h1", NOW), Rollback("hx", NOW)),
            ("v", "y"),
        )
        check(PushProjectBelowProduct(), expression, db)

    def test_inapplicable_when_interleaved(self):
        expression = Project(
            Product(Rollback("r", NOW), Rollback("t", NOW)), ("x", "k")
        )  # right-side name first: not an ordered partition
        assert (
            PushProjectBelowProduct().apply(expression, CATALOG) is None
        )

    def test_inapplicable_when_one_side_empty(self):
        expression = Project(
            Product(Rollback("r", NOW), Rollback("t", NOW)), ("k", "v")
        )  # nothing kept from the right operand
        assert (
            PushProjectBelowProduct().apply(expression, CATALOG) is None
        )

    def test_inapplicable_without_catalog(self):
        expression = Project(
            Product(Rollback("r", NOW), Rollback("t", NOW)), ("k", "x")
        )
        assert PushProjectBelowProduct().apply(expression, {}) is None


class TestCostGuidedRewriter:
    def test_accepts_cost_reducing_pushdown(self):
        query = Select(
            Union(Rollback("r", NOW), Rollback("r", 1)), PK
        )
        rewriter = CostGuidedRewriter(
            catalog=CATALOG, stats={"r": 100.0}
        )
        optimized = rewriter.rewrite(query)
        assert rewriter.final_cost < rewriter.baseline_cost
        assert optimized != query
        assert any(accepted for _, _, _, accepted in rewriter.trace)

    def test_rejects_cost_raising_rewrite(self):
        # π below σ raises the estimate here; the gate must refuse it
        query = Project(Select(Rollback("r", NOW), PK), ("k",))
        rewriter = CostGuidedRewriter(
            catalog=CATALOG, stats={"r": 100.0}
        )
        optimized = rewriter.rewrite(query)
        assert optimized == query
        assert rewriter.final_cost == rewriter.baseline_cost
        assert rewriter.trace, "candidates should have been priced"
        assert all(not accepted for _, _, _, accepted in rewriter.trace)

    def test_never_costlier_and_equivalent(self):
        database = snapshot_db(
            kv((1, 1), (5, 2), (7, 0), (9, 3)),
            xy_of(kv((1, 0), (5, 1))),
        )
        queries = [
            Select(Union(Rollback("r", NOW), Rollback("r", 2)), PK),
            Project(
                Select(
                    Product(Rollback("r", NOW), Rollback("t", NOW)),
                    And(PK, PX),
                ),
                ("k", "x"),
            ),
            Union(Rollback("r", NOW), Rollback("r", NOW)),
            Project(Rollback("r", NOW), ("k", "v")),
        ]
        stats = {"r": 4.0, "t": 2.0}
        for query in queries:
            rewriter = CostGuidedRewriter(catalog=CATALOG, stats=stats)
            optimized = rewriter.rewrite(query)
            assert rewriter.final_cost <= rewriter.baseline_cost
            assert estimate_cost(optimized, stats) <= estimate_cost(
                query, stats
            )
            assert states_equal(
                query.evaluate(database), optimized.evaluate(database)
            )

    def test_missing_catalog_entry_does_not_break_rewrites(self):
        # schema-dependent rules can't type ρ(ghost); the rewrite
        # must degrade to a no-op, not raise
        query = Select(
            Product(Rollback("ghost", NOW), Rollback("r", NOW)), PK
        )
        rewriter = CostGuidedRewriter(catalog={}, stats={"r": 10.0})
        optimized = rewriter.rewrite(query)
        assert rewriter.final_cost <= rewriter.baseline_cost
        assert estimate_cost(optimized, {"r": 10.0}) <= estimate_cost(
            query, {"r": 10.0}
        )

    def test_optimize_with_cost_helper(self):
        query = Select(
            Union(Rollback("r", NOW), Rollback("r", 1)), PK
        )
        optimized = optimize_with_cost(
            query, CATALOG, {"r": 100.0}
        )
        assert estimate_cost(optimized, {"r": 100.0}) < estimate_cost(
            query, {"r": 100.0}
        )

    def test_extended_rules_fixpoint_terminates(self):
        # the full extended set must reach a fixpoint on a nested query
        query = Project(
            Select(
                Product(Rollback("r", NOW), Rollback("t", NOW)),
                And(PK, PX),
            ),
            ("k", "x"),
        )
        optimize(query, CATALOG, EXTENDED_RULES)  # must terminate

    @settings(max_examples=20)
    @given(kv_states(max_rows=6), kv_states(max_rows=6))
    def test_property_equivalence_on_random_states(self, a, b):
        database = snapshot_db(a, xy_of(b))
        query = Project(
            Select(
                Product(Rollback("r", NOW), Rollback("t", NOW)),
                And(PK, PX),
            ),
            ("k", "x"),
        )
        stats = {"r": float(len(a.tuples)), "t": float(len(b.tuples))}
        optimized = optimize_with_cost(query, CATALOG, stats)
        assert states_equal(
            query.evaluate(database), optimized.evaluate(database)
        )


class TestOptimizerMetrics:
    def test_counters_and_ratio(self):
        from repro.obsv import registry as obsv_registry
        from repro.obsv.registry import MetricsRegistry

        query = Select(
            Union(Rollback("r", NOW), Rollback("r", 1)), PK
        )
        registry = obsv_registry.enable(MetricsRegistry())
        try:
            rewriter = CostGuidedRewriter(
                catalog=CATALOG, stats={"r": 100.0}
            )
            rewriter.rewrite(query)
            snapshot = registry.snapshot()
        finally:
            obsv_registry.disable()
        counters = snapshot["counters"]
        assert counters["optimizer.plans_optimized"] == 1
        assert counters["optimizer.rewrites_considered"] >= 1
        assert counters["optimizer.rewrites_accepted"] >= 1
        assert (
            counters["optimizer.rewrites_considered"]
            == counters["optimizer.rewrites_accepted"]
            + counters.get("optimizer.rewrites_rejected", 0)
        )
        ratio = snapshot["histograms"]["optimizer.cost_ratio"]
        assert ratio["count"] == 1

    def test_disabled_is_silent(self):
        from repro.obsv import registry as obsv_registry

        assert not obsv_registry.enabled()
        optimize_with_cost(
            Select(Union(Rollback("r", NOW), Rollback("r", 1)), PK),
            CATALOG,
            {"r": 100.0},
        )
