"""A tuple is validated once, where it enters; operators derive on the
trusted path.

Count tests (spies on ``Schema.__init__``, ``Domain.validate`` and
``SnapshotTuple.__init__``, no wall clock): projection, rename, product
and natural join do their schema work once per call and never
re-validate a derived value, while every entry point — the public
constructors and state literals parsed from query text — still checks
every value.  A hypothesis differential pins each rewritten operator to
its former per-tuple body, kept here as the reference.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DomainError, SchemaError
from repro.lang.parser import parse_expression
from repro.snapshot.attributes import INTEGER, STRING, Attribute, Domain
from repro.snapshot.derived import natural_join, rename
from repro.snapshot.operators import product, project
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState
from repro.snapshot.tuples import SnapshotTuple

from tests.conftest import calls_to

KVW = Schema(
    [
        Attribute("k", INTEGER),
        Attribute("v", STRING),
        Attribute("w", INTEGER),
    ]
)
WZ = Schema([Attribute("w", INTEGER), Attribute("z", STRING)])
XY = Schema([Attribute("x", INTEGER), Attribute("y", STRING)])


def kvw(n):
    return SnapshotState(KVW, [(i, f"s{i % 7}", i % 5) for i in range(n)])


def wz(n):
    return SnapshotState(WZ, [(i % 5, f"z{i}") for i in range(n)])


# -- the former per-tuple bodies, kept as the reference --------------------


def reference_project(state, names):
    return SnapshotState.from_tuples(
        state.schema.project(names),
        frozenset(
            SnapshotTuple(t.schema.project(names), [t[n] for n in names])
            for t in state.tuples
        ),
    )


def reference_rename(state, mapping):
    new_schema = state.schema.rename(mapping)
    return SnapshotState.from_tuples(
        new_schema,
        frozenset(SnapshotTuple(new_schema, t.values) for t in state.tuples),
    )


def reference_product(left, right):
    return SnapshotState.from_tuples(
        left.schema.concat(right.schema),
        frozenset(
            SnapshotTuple(l.schema.concat(r.schema), l.values + r.values)
            for l in left.tuples
            for r in right.tuples
        ),
    )


def reference_natural_join(left, right):
    common = left.schema.common_names(right.schema)
    if not common:
        return reference_product(left, right)
    if left.schema == right.schema:
        return SnapshotState.from_tuples(
            left.schema, left.tuples & right.tuples
        )
    right_only = [n for n in right.schema.names if n not in common]
    joined = Schema(
        list(left.schema.attributes) + [right.schema[n] for n in right_only]
    )
    buckets = {}
    for r in right.tuples:
        buckets.setdefault(tuple(r[n] for n in common), []).append(r)
    out = set()
    for l in left.tuples:
        for r in buckets.get(tuple(l[n] for n in common), ()):
            values = l.values + tuple(r[n] for n in right_only)
            out.add(SnapshotTuple(joined, values))
    return SnapshotState.from_tuples(joined, frozenset(out))


# -- strategies --------------------------------------------------------------


def states_over(schema, max_rows=8):
    columns = [
        st.integers(0, 4) if a.domain == INTEGER else st.sampled_from("abc")
        for a in schema.attributes
    ]
    return st.lists(st.tuples(*columns), max_size=max_rows).map(
        lambda rows: SnapshotState(schema, rows)
    )


def names_of(schema):
    return st.lists(st.sampled_from(schema.names), unique=True)


def assert_same(result, reference):
    assert result == reference
    assert all(t.schema == result.schema for t in result)


class TestDifferential:
    @settings(max_examples=60)
    @given(states_over(KVW), names_of(KVW))
    def test_project(self, state, names):
        assert_same(project(state, names), reference_project(state, names))

    @settings(max_examples=60)
    @given(
        states_over(KVW),
        st.dictionaries(
            st.sampled_from(KVW.names), st.sampled_from(["a", "b", "c"])
        ).filter(lambda m: len(set(m.values())) == len(m)),
    )
    def test_rename(self, state, mapping):
        assert_same(rename(state, mapping), reference_rename(state, mapping))

    @settings(max_examples=60)
    @given(states_over(KVW), states_over(XY))
    def test_product(self, left, right):
        assert_same(product(left, right), reference_product(left, right))

    @settings(max_examples=60)
    @given(
        states_over(KVW),
        st.sampled_from([WZ, XY, KVW, Schema([Attribute("k", INTEGER)])]),
        st.data(),
    )
    def test_natural_join(self, left, right_schema, data):
        right = data.draw(states_over(right_schema))
        assert_same(
            natural_join(left, right), reference_natural_join(left, right)
        )


# -- count gates -------------------------------------------------------------

OPERATORS = {
    "project": lambda left, right: project(left, ["w", "k"]),
    "rename": lambda left, right: rename(left, {"k": "key"}),
    "product": lambda left, right: product(left, rename(right, {"w": "w2"})),
    "natural_join": natural_join,
}


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_operators_work_once_per_call(name):
    """O(1) schemas however many tuples, and no derived value is
    validated or built through the public constructor again.  Operands
    are built before the spies, so every call counted is the
    operator's own."""
    schemas_built = []
    for n in (4, 60):
        left, right = kvw(n), wz(n)
        with calls_to(Schema, "__init__") as schemas, calls_to(
            Domain, "validate"
        ) as validated, calls_to(SnapshotTuple, "__init__") as built:
            result = OPERATORS[name](left, right)
        assert len(result) > 0
        assert validated == [] and built == []
        schemas_built.append(len(schemas))
    assert schemas_built[0] == schemas_built[1] <= 3


class TestEntryPointsStillValidate:
    def test_state_constructor_checks_every_value(self):
        rows = [(i, f"s{i}", i) for i in range(30)]
        with calls_to(Domain, "validate") as validated:
            SnapshotState(KVW, rows)
        assert len(validated) == 30 * KVW.degree
        with pytest.raises(DomainError):
            SnapshotState(KVW, rows + [(30, "s30", "not an integer")])

    def test_tuple_constructor_checks_every_value(self):
        for values in ([1, "a", "x"], (1, "a", "x"), iter([1, "a", "x"])):
            with pytest.raises(DomainError):
                SnapshotTuple(KVW, values)
        with pytest.raises(DomainError):
            SnapshotTuple(KVW, {"k": 1, "v": "a", "w": "x"})

    def test_parsed_literal_checks_every_value(self):
        rows = ", ".join(f'({i}, "s{i}")' for i in range(20))
        source = f"state (k: integer, s: string) {{ {rows} }}"
        with calls_to(Domain, "validate") as validated:
            parse_expression(source)
        assert len(validated) == 20 * 2
        with pytest.raises(DomainError):
            parse_expression(source[:-2] + ", (20, 21) }")

    def test_with_schema_revalidates_under_a_different_domain(self):
        t = SnapshotTuple(Schema(["a"]), ["text"])
        with pytest.raises(DomainError):
            t.with_schema(Schema([Attribute("a", INTEGER)]))
        assert t.with_schema(Schema(["b"])).values == ("text",)


class TestStringRowsAreRejected:
    """A ``str`` row used to be split into characters."""

    def test_state_row(self):
        with pytest.raises(SchemaError, match="str"):
            SnapshotState(Schema(["x", "y"]), ["ab"])

    def test_tuple_values(self):
        with pytest.raises(SchemaError, match="str"):
            SnapshotTuple(Schema(["x"]), "z")
        with pytest.raises(SchemaError, match="bytes"):
            SnapshotTuple(Schema(["x"]), b"z")

    def test_sequences_and_mappings_still_accepted(self):
        schema = Schema(["x"])
        for values in (["z"], ("z",), iter(["z"]), {"x": "z"}):
            assert SnapshotTuple(schema, values).values == ("z",)
