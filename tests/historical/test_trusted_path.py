"""The historical operators derive value parts on the trusted path.

Hypothesis differential: ``historical_project``, ``historical_product``,
``historical_rename`` and ``historical_natural_join`` equal their former
per-tuple bodies (kept here as the reference), and every result tuple's
schema is the result state's schema.  Count gate: no derived value is
re-validated and schema work does not grow with cardinality.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.historical.derived import historical_natural_join
from repro.historical.operators import (
    historical_product,
    historical_project,
    historical_rename,
)
from repro.historical.state import HistoricalState
from repro.historical.tuples import HistoricalTuple
from repro.snapshot.attributes import INTEGER, Attribute, Domain
from repro.snapshot.schema import Schema

from tests.conftest import calls_to, nonempty_period_sets

KV = Schema([Attribute("k", INTEGER), Attribute("v", INTEGER)])
VW = Schema([Attribute("v", INTEGER), Attribute("w", INTEGER)])
XY = Schema([Attribute("x", INTEGER), Attribute("y", INTEGER)])


# -- the former per-tuple bodies, kept as the reference --------------------


def reference_project(state, names):
    return HistoricalState(
        state.schema.project(names),
        [
            HistoricalTuple(
                [t[n] for n in names],
                t.valid_time,
                schema=t.schema.project(names),
            )
            for t in state.tuples
        ],
    )


def reference_product(left, right):
    out = []
    for l in left.tuples:
        for r in right.tuples:
            shared = l.valid_time.intersect(r.valid_time)
            if not shared.is_empty():
                joined = l.schema.concat(r.schema)
                out.append(
                    HistoricalTuple(
                        l.value.values + r.value.values, shared, schema=joined
                    )
                )
    return HistoricalState(left.schema.concat(right.schema), out)


def reference_rename(state, mapping):
    new_schema = state.schema.rename(mapping)
    return HistoricalState(
        new_schema,
        [
            HistoricalTuple(t.value.values, t.valid_time, schema=new_schema)
            for t in state.tuples
        ],
    )


def reference_natural_join(left, right):
    common = left.schema.common_names(right.schema)
    right_only = [n for n in right.schema.names if n not in common]
    joined = Schema(
        list(left.schema.attributes) + [right.schema[n] for n in right_only]
    )
    out = []
    for l in left.tuples:
        for r in right.tuples:
            if any(l[n] != r[n] for n in common):
                continue
            shared = l.valid_time.intersect(r.valid_time)
            if not shared.is_empty():
                values = l.value.values + tuple(r[n] for n in right_only)
                out.append(HistoricalTuple(values, shared, schema=joined))
    return HistoricalState(joined, out)


# -- strategies --------------------------------------------------------------


@st.composite
def states_over(draw, schema, max_rows=6):
    rows = draw(
        st.lists(
            st.tuples(*[st.integers(0, 3)] * schema.degree),
            max_size=max_rows,
        )
    )
    return HistoricalState(
        schema,
        [
            HistoricalTuple(row, draw(nonempty_period_sets()), schema=schema)
            for row in rows
        ],
    )


def assert_same(result, reference):
    assert result == reference
    assert all(t.schema == result.schema for t in result)


class TestDifferential:
    @settings(max_examples=50)
    @given(
        states_over(KV),
        st.lists(st.sampled_from(KV.names), unique=True),
    )
    def test_project(self, state, names):
        assert_same(
            historical_project(state, names),
            reference_project(state, names),
        )

    @settings(max_examples=50)
    @given(states_over(KV), states_over(XY))
    def test_product(self, left, right):
        assert_same(
            historical_product(left, right), reference_product(left, right)
        )

    @settings(max_examples=50)
    @given(
        states_over(KV), st.sampled_from([{"k": "a"}, {"k": "v", "v": "k"}])
    )
    def test_rename(self, state, mapping):
        assert_same(
            historical_rename(state, mapping),
            reference_rename(state, mapping),
        )

    @settings(max_examples=50)
    @given(states_over(KV), states_over(VW))
    def test_natural_join(self, left, right):
        assert_same(
            historical_natural_join(left, right),
            reference_natural_join(left, right),
        )


def kv(n):
    return HistoricalState.from_rows(
        KV, [([i, i % 3], [(i, i + 5)]) for i in range(n)]
    )


def vw(n):
    return HistoricalState.from_rows(
        VW, [([i % 3, i], [(0, n)]) for i in range(n)]
    )


OPERATORS = {
    "project": lambda l, r: historical_project(l, ["v"]),
    "product": lambda l, r: historical_product(
        l, historical_rename(r, {"v": "x", "w": "y"})
    ),
    "rename": lambda l, r: historical_rename(l, {"k": "key"}),
    "natural_join": historical_natural_join,
}


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_operators_work_once_per_call(name):
    schemas_built = []
    for n in (4, 40):
        left, right = kv(n), vw(n)
        with calls_to(Schema, "__init__") as schemas, calls_to(
            Domain, "validate"
        ) as validated:
            result = OPERATORS[name](left, right)
        assert len(result) > 0
        assert validated == []
        schemas_built.append(len(schemas))
    assert schemas_built[0] == schemas_built[1]
