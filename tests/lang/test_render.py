"""``format_state`` renders each row's cells once, lays out the table in
one pass and keeps the text on the state; it must be byte-identical to
the former cell-by-cell renderer, kept here as the reference."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.commands import DefineRelation, ModifyState
from repro.core.expressions import Const
from repro.historical.state import HistoricalState
from repro.historical.tuples import HistoricalTuple
from repro.lang.session import Session, format_state
from repro.server.store import render_state
from repro.snapshot.attributes import ANY, Attribute
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState

from tests.conftest import nonempty_period_sets


def reference_format_state(state, title: str = "") -> str:
    """The renderer before rows were rendered once."""
    if isinstance(state, HistoricalState):
        headers = list(state.schema.names) + ["valid"]
        rows = [
            [str(v) for v in t.value.values] + [_reference_periods(t)]
            for t in state.tuples
        ]
    else:
        headers = list(state.schema.names)
        rows = [[str(v) for v in t.values] for t in state.tuples]
    rows.sort()
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows), 1)
        if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(
        " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    )
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            " | ".join(v.ljust(w) for v, w in zip(row, widths))
        )
    if not rows:
        lines.append("(empty)")
    return "\n".join(lines)


def _reference_periods(historical_tuple) -> str:
    return " + ".join(
        f"[{i.start}, {i.end!r})"
        for i in historical_tuple.valid_time.intervals
    )


#: Values of the ``any`` domain: the 1/True/1.0/"1" family (equal and
#: hash-equal, so a state keeps whichever came first), unicode, wide
#: text and format metacharacters.
VALUES = st.one_of(
    st.sampled_from([1, True, 1.0, "1", 0, False, 0.0, "", "%s", "{}"]),
    st.integers(-10**12, 10**12),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.text(alphabet="ab é漢́ ", min_size=20, max_size=80),
)

NAMES = st.lists(
    st.sampled_from(["k", "value", "a_long_attribute_name", "x1"]),
    min_size=1,
    max_size=3,
    unique=True,
)


@st.composite
def snapshot_states(draw):
    names = draw(NAMES)
    schema = Schema([Attribute(name, ANY) for name in names])
    rows = draw(
        st.lists(
            st.lists(VALUES, min_size=len(names), max_size=len(names)),
            max_size=12,
        )
    )
    return SnapshotState(schema, rows)


@st.composite
def historical_states(draw):
    names = draw(NAMES)
    schema = Schema([Attribute(name, ANY) for name in names])
    rows = draw(
        st.lists(
            st.lists(VALUES, min_size=len(names), max_size=len(names)),
            max_size=8,
        )
    )
    tuples = [
        HistoricalTuple(row, draw(nonempty_period_sets()), schema=schema)
        for row in rows
    ]
    return HistoricalState(schema, tuples)


class TestByteIdentity:
    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(snapshot_states(), historical_states()),
        st.sampled_from(["", "r", "a title"]),
    )
    def test_matches_the_reference(self, state, title):
        expected = reference_format_state(state, title)
        assert format_state(state, title) == expected
        # a second render reads the kept table
        assert format_state(state, title) == expected

    @settings(max_examples=100, deadline=None)
    @given(snapshot_states(), st.data())
    def test_a_projection_of_a_rendered_state_matches(self, state, data):
        from repro.snapshot.operators import project

        format_state(state)
        names = data.draw(
            st.lists(
                st.sampled_from(state.schema.names),
                min_size=1,
                unique=True,
            )
        )
        projected = project(state, names)
        assert format_state(projected) == reference_format_state(projected)

    def test_empty_states(self):
        for state in (
            SnapshotState.empty(Schema(["a", "bb"])),
            HistoricalState(Schema(["k"]), []),
        ):
            assert format_state(state) == reference_format_state(state)


class Counted:
    """An ``any``-domain value that counts its renderings."""

    renders = 0

    def __init__(self, value: int) -> None:
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Counted) and other.value == self.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __str__(self) -> str:
        Counted.renders += 1
        return f"c{self.value}"


class TestCellsAreKept:
    SCHEMA = Schema([Attribute("k", ANY), Attribute("v", ANY)])

    def state(self, rows: int = 7) -> SnapshotState:
        return SnapshotState(
            self.SCHEMA, [[Counted(i), Counted(-i)] for i in range(rows)]
        )

    def test_rerendering_a_state_renders_each_row_once(self):
        session = Session()
        session.execute_command(DefineRelation("r", "rollback"))
        session.execute_command(ModifyState("r", Const(self.state())))
        Counted.renders = 0
        texts = {
            render_state(session.query("rollback(r, now)"))
            for _ in range(5)
        }
        assert len(texts) == 1
        assert Counted.renders == 2 * 7

    def test_states_sharing_tuples_share_their_cells(self):
        state = self.state()
        format_state(state)
        Counted.renders = 0
        subset = SnapshotState(self.SCHEMA, list(state.tuples)[:4])
        text = format_state(subset)
        assert Counted.renders == 0
        assert text == reference_format_state(subset)

    def test_a_projection_picks_its_sources_cells(self):
        from repro.snapshot.operators import project

        state = self.state()
        format_state(state)
        Counted.renders = 0
        projected = project(state, ["v"])
        text = format_state(projected)
        assert Counted.renders == 0
        assert text == reference_format_state(projected)
