"""E16 — the cost-based optimizer and the compiled expression engine.

The read path introduced in this arc stacks three amortizations on the
repeated-query workload (the production shape: the same query text
issued over and over against a session):

* **plan cache** — parse, optimize and compile once per query *shape*
  (the text with its rollback numerals and comparison literals lifted
  into parameters), so an audit reading one query at many past
  transactions plans it once;
* **cost-guided rewrite** — keep a rule application only when
  ``estimate_cost`` under collected statistics drops, so σ/π sink
  toward the ρ leaves and products shrink before they materialize;
* **compiled plan** — flatten the optimized tree once into a
  topologically ordered step loop with common subexpressions hash-
  consed to a single step.

This experiment measures each layer in isolation (the sections also
feed E2/E4/E13's ``BENCH_*.json`` trajectory sidecars) and reports the
optimizer/engine observability counters for one optimized, repeatedly
executed query.  Every timed comparison first verifies the fast path's
result equals the plain ``evaluate`` result — C6's observation
equivalence, enforced exhaustively by
``tests/optimizer/test_compiled_differential.py``.
"""

from __future__ import annotations

from benchmarks.bench_e2_expression_eval import compiled_dag_comparison
from benchmarks.bench_e4_optimizer import compiled_join_comparison
from benchmarks.bench_e13_read_cache import compiled_session_comparison


#: Reads of one shape in :func:`distinct_literal_plans`, each at its own
#: rollback numeral.
DISTINCT_LITERAL_READS = 500


def distinct_literal_plans(reads: int = DISTINCT_LITERAL_READS):
    """``(plans optimized, reads)`` for one query shape read at
    ``reads`` distinct rollback numerals — every text distinct — as the
    ``optimizer.plans_optimized`` counter records them."""
    from benchmarks.bench_e13_read_cache import _session_program
    from repro.lang.session import Session
    from repro.obsv import registry as obsv_registry
    from repro.obsv.registry import MetricsRegistry

    session = Session()
    session.execute(_session_program())
    registry = obsv_registry.enable(MetricsRegistry())
    try:
        for numeral in range(1, reads + 1):
            session.query(
                f"project [key] (select [a1 > 50] (rollback(r, {numeral})))"
            )
        counters = registry.snapshot()["counters"]
    finally:
        obsv_registry.disable()
    return counters.get("optimizer.plans_optimized", 0), reads


#: The same count at the commit before plans were keyed by shape
#: (689eb2c): every distinct text was parsed, optimized and compiled.
PARENT_DISTINCT_LITERAL_PLANS = (
    "before (parent 689eb2c): 500 plans for 500 reads, 1.0"
)


def metrics_snapshot() -> dict:
    """Run one session workload under an enabled registry and return
    the ``optimizer.*`` / ``engine.*`` / ``lang.plan_cache.*`` counters
    it produced."""
    from benchmarks.bench_e13_read_cache import (
        SESSION_QUERY,
        _session_program,
    )
    from repro.lang.session import Session
    from repro.obsv import registry as obsv_registry
    from repro.obsv.registry import MetricsRegistry

    registry = obsv_registry.enable(MetricsRegistry())
    try:
        session = Session()
        session.execute(_session_program())
        for _ in range(10):
            session.query(SESSION_QUERY)
        counters = registry.snapshot()["counters"]
    finally:
        obsv_registry.disable()
    prefixes = ("optimizer.", "engine.", "lang.")
    return {
        name: value
        for name, value in sorted(counters.items())
        if name.startswith(prefixes)
    }


def report() -> str:
    lines = ["E16 — cost-based optimizer + compiled expression engine"]

    plain, compiled, steps, nodes = compiled_dag_comparison()
    lines.append(
        f"  CSE (DAG, {nodes} tree nodes -> {steps} steps): "
        f"plain {plain * 1e3:8.1f} ms   "
        f"compiled {compiled * 1e3:6.2f} ms   "
        f"speedup {plain / compiled:6.0f}x"
    )

    naive_s, comp_s, naive_cost, opt_cost = compiled_join_comparison()
    lines.append(
        f"  cost-guided join (est. {naive_cost:.0f} -> {opt_cost:.0f}): "
        f"naive {naive_s * 1e3:7.1f} ms   "
        f"compiled {comp_s * 1e3:6.2f} ms   "
        f"speedup {naive_s / comp_s:5.1f}x"
    )

    adhoc, cached = compiled_session_comparison()
    lines.append(
        f"  session repeated query: ad-hoc {adhoc * 1e6:8.1f}µs   "
        f"cached plan {cached * 1e6:7.2f}µs   "
        f"speedup {adhoc / cached:5.1f}x"
    )

    plans, reads = distinct_literal_plans()
    lines.append(
        f"  one shape, {reads} distinct rollback numerals: "
        f"{plans} plans optimized"
    )

    lines.append("  counters for 10 repeats of the session query:")
    for name, value in metrics_snapshot().items():
        lines.append(f"    {name} = {value}")
    lines.append(
        "  every fast path verified equal to plain evaluate before "
        "timing (C6)"
    )
    return "\n".join(lines)


def bench_payload() -> dict:
    """Perf-trajectory record for the committed ``BENCH_e16.json`` —
    all three layers of the repeated-query read path."""
    plain, compiled, steps, nodes = compiled_dag_comparison()
    naive_s, comp_s, naive_cost, opt_cost = compiled_join_comparison()
    adhoc, cached = compiled_session_comparison()
    plans, reads = distinct_literal_plans()
    return {
        "experiment": "e16",
        "description": (
            "compiled engine + cost-guided optimizer: CSE over a DAG, "
            "cost-guided join rewrite, and the session plan cache"
        ),
        "measurements": {
            "cse_dag_speedup": {
                "kind": "speedup",
                "value": round(plain / compiled, 2),
                "floor": 5.0,
                "detail": f"{nodes} tree nodes -> {steps} steps",
            },
            "cost_guided_join_speedup": {
                "kind": "speedup",
                "value": round(naive_s / comp_s, 2),
                "floor": 5.0,
                "detail": (
                    f"estimated cost {naive_cost:.0f} -> {opt_cost:.0f}"
                ),
            },
            "session_repeat_speedup": {
                "kind": "speedup",
                "value": round(adhoc / cached, 2),
                "floor": 5.0,
                "detail": (
                    f"ad-hoc {adhoc * 1e6:.1f}us vs cached "
                    f"{cached * 1e6:.2f}us per query"
                ),
            },
            "distinct_literal_plans_per_read": {
                "kind": "ratio",
                "value": round(plans / reads, 4),
                "ceiling": 0.05,
                "detail": (
                    f"{plans} plans optimized for {reads} reads of one "
                    f"shape at {reads} distinct rollback numerals; "
                    f"{PARENT_DISTINCT_LITERAL_PLANS}"
                ),
            },
        },
    }


# -- pytest-benchmark entry points -----------------------------------------


def bench_compiled_plan_execution(benchmark):
    from benchmarks.bench_e2_expression_eval import (
        build_database,
        random_expression,
    )
    import random

    from repro.core.compile import compile_expression

    database = build_database()
    plan = compile_expression(random_expression(6, random.Random(0)))
    benchmark(plan, database)


def bench_cost_guided_rewrite(benchmark):
    from benchmarks.bench_e4_optimizer import CATALOG, join_query
    from repro.optimizer import optimize_with_cost

    query = join_query()
    stats = {"emp": 300, "dept": 60}
    benchmark(optimize_with_cost, query, CATALOG, stats)


def bench_cached_session_query(benchmark):
    from benchmarks.bench_e13_read_cache import (
        SESSION_QUERY,
        _session_program,
    )
    from repro.lang.session import Session

    session = Session()
    session.execute(_session_program())
    session.query(SESSION_QUERY)  # warm the plan cache
    benchmark(session.query, SESSION_QUERY)


if __name__ == "__main__":
    from benchmarks.metrics_io import capture_metrics

    with capture_metrics("bench_e16_compiled_engine"):
        print(report())
