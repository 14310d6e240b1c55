"""Shared fixtures and hypothesis strategies for the test suite.

Seed discipline for every randomized test (see ``docs/testing.md``):
one *run seed* is chosen per pytest run — from ``REPRO_TEST_SEED`` when
set, otherwise fresh from the system RNG — and printed in the report
header.  The ``test_seed`` fixture derives a per-test seed from it, and
any failing test that used ``test_seed`` gets a "reproduce with" section
appended to its failure report, so no randomized flake is ever
unreproducible.
"""

from __future__ import annotations

import os
import random
import zlib
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import strategies as st

from repro.core.commands import DefineRelation, ModifyState
from repro.core.expressions import Const
from repro.core.sentences import run
from repro.historical.chronons import FOREVER
from repro.historical.intervals import Interval
from repro.historical.periods import PeriodSet
from repro.historical.state import HistoricalState
from repro.historical.tuples import HistoricalTuple
from repro.snapshot.attributes import INTEGER, STRING, Attribute
from repro.snapshot.schema import Schema
from repro.snapshot.state import SnapshotState

# ---------------------------------------------------------------------------
# seed discipline
# ---------------------------------------------------------------------------

#: The run seed: every randomized test derives its RNG from this one
#: number, so exporting ``REPRO_TEST_SEED=<printed value>`` replays the
#: entire run's randomness.
RUN_SEED: int = (
    int(os.environ["REPRO_TEST_SEED"])
    if os.environ.get("REPRO_TEST_SEED")
    else random.SystemRandom().randrange(2**31)
)


def derive_seed(run_seed: int, nodeid: str) -> int:
    """A per-test seed: the run seed folded with a stable hash of the
    test's node id, so tests stay independent of collection order."""
    return run_seed ^ zlib.crc32(nodeid.encode("utf-8"))


def pytest_report_header(config) -> str:
    return (
        f"repro run seed: {RUN_SEED} "
        f"(reproduce with REPRO_TEST_SEED={RUN_SEED})"
    )


@pytest.fixture
def test_seed(request) -> int:
    """This test's seed, derived from the run seed and the test's node
    id.  Failures stamp it into the report (see the hookwrapper below)."""
    return derive_seed(RUN_SEED, request.node.nodeid)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    if "test_seed" not in getattr(item, "fixturenames", ()):
        return
    seed = derive_seed(RUN_SEED, item.nodeid)
    report.sections.append(
        (
            "reproduction seed",
            f"this test drew its randomness from seed {seed}; rerun "
            f"the whole suite identically with "
            f"REPRO_TEST_SEED={RUN_SEED}, or pass seed={seed} to the "
            f"failing generator directly",
        )
    )


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def faculty_schema() -> Schema:
    """The example schema used throughout the paper-flavored tests."""
    return Schema(
        [Attribute("name", STRING), Attribute("rank", STRING)]
    )


@pytest.fixture
def kv_schema() -> Schema:
    """A small integer key/value schema."""
    return Schema([Attribute("k", INTEGER), Attribute("v", INTEGER)])


@pytest.fixture
def faculty_states(faculty_schema):
    """Three successive snapshot states of the faculty relation."""
    s1 = SnapshotState(faculty_schema, [["merrie", "assistant"]])
    s2 = SnapshotState(
        faculty_schema,
        [["merrie", "assistant"], ["tom", "full"]],
    )
    s3 = SnapshotState(
        faculty_schema,
        [["merrie", "associate"], ["tom", "full"]],
    )
    return [s1, s2, s3]


@pytest.fixture
def rollback_db(faculty_schema, faculty_states):
    """A database with one rollback relation holding three states
    (at transactions 2, 3, 4; define_relation commits at 1)."""
    commands = [DefineRelation("faculty", "rollback")]
    commands += [
        ModifyState("faculty", Const(state)) for state in faculty_states
    ]
    return run(commands)


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

#: Small integer chronons for interval endpoints.
chronons = st.integers(min_value=0, max_value=60)


@st.composite
def intervals(draw) -> Interval:
    """Random bounded or unbounded half-open intervals."""
    start = draw(st.integers(min_value=0, max_value=50))
    if draw(st.booleans()):
        length = draw(st.integers(min_value=1, max_value=30))
        return Interval(start, start + length)
    return Interval(start, FOREVER)


@st.composite
def period_sets(draw, max_intervals: int = 4) -> PeriodSet:
    """Random (possibly empty) period sets."""
    pieces = draw(
        st.lists(intervals(), min_size=0, max_size=max_intervals)
    )
    # At most one unbounded run survives canonicalization anyway.
    return PeriodSet(pieces)


@st.composite
def nonempty_period_sets(draw, max_intervals: int = 4) -> PeriodSet:
    pieces = draw(
        st.lists(intervals(), min_size=1, max_size=max_intervals)
    )
    return PeriodSet(pieces)


#: Rows for the k/v schema.
kv_rows = st.tuples(
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=4),
)


@st.composite
def kv_states(draw, max_rows: int = 8) -> SnapshotState:
    """Random snapshot states over the k/v schema."""
    schema = Schema([Attribute("k", INTEGER), Attribute("v", INTEGER)])
    rows = draw(st.lists(kv_rows, min_size=0, max_size=max_rows))
    return SnapshotState(schema, [list(r) for r in rows])


@st.composite
def kv_historical_states(draw, max_rows: int = 6) -> HistoricalState:
    """Random historical states over the k/v schema."""
    schema = Schema([Attribute("k", INTEGER), Attribute("v", INTEGER)])
    rows = draw(st.lists(kv_rows, min_size=0, max_size=max_rows))
    tuples = []
    for row in rows:
        periods = draw(nonempty_period_sets())
        tuples.append(
            HistoricalTuple(list(row), periods, schema=schema)
        )
    return HistoricalState(schema, tuples)


def coordinator_session(backing: str):
    """A ``Session`` whose value a coordinator assembles from shards:
    ``"sharded"`` (two shards) or ``"cluster"`` (two shards of one
    replica each)."""
    from repro.cluster import ClusterConfig
    from repro.lang.session import Session

    if backing == "sharded":
        return Session(shards=2)
    return Session(cluster=ClusterConfig(shards=2, replicas_per_shard=1))


#: The ``coordinator_session`` backings, for ``parametrize``.
COORDINATORS = ("cluster", "sharded")


# ---------------------------------------------------------------------------
# spies
# ---------------------------------------------------------------------------


@contextmanager
def calls_to(owner, name: str):
    """Record the positional arguments of every call to ``owner.name``
    (a class attribute, so methods see ``self`` first) while the block
    runs; the behaviour is unchanged.  For count tests: no wall clock."""
    original = getattr(owner, name)
    calls: list[tuple] = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    with mock.patch.object(owner, name, spy):
        yield calls
