"""The incremental checkpoint encoder against the from-scratch one.

``DurableDatabase`` encodes each historical state once and reuses the
text at later checkpoints; ``write_checkpoint`` encodes the whole value
every time.  The files must be the same bytes — after any command
sequence over all four relation types, across crashes and recoveries,
and after falling back from a corrupted checkpoint — and the work must
be proportional to what changed.  Everything here counts or compares
bytes; nothing is timed.
"""

from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.core.commands import DefineRelation, ModifyState
from repro.core.database import Database, DatabaseState
from repro.core.expressions import Const
from repro.core.relation import Relation, RelationType
from repro.durability import DurableDatabase, MemoryStore
from repro.durability import checkpoint as checkpoint_module
from repro.durability.checkpoint import (
    CheckpointEncoder,
    checkpoint_lsn,
    list_checkpoints,
    write_checkpoint,
)
from repro.persistence import json_codec
from repro.workloads.generators import StateGenerator

from tests.durability.conftest import oracle_history, scripted_workload
from tests.durability.test_checkpoint_recovery import corrupt_checkpoint

LENGTH = 60


def from_scratch(database, lsn):
    reference = MemoryStore()
    return reference.read(write_checkpoint(reference, database, lsn))


def open_durable(store, every):
    return DurableDatabase(
        store, fsync="always", checkpoint_every=every, keep_checkpoints=2
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    every=st.sampled_from([0, 5, 16]),
    events=st.lists(
        st.tuples(
            st.integers(0, LENGTH - 1),
            st.sampled_from(["checkpoint", "crash", "corrupt"]),
        ),
        max_size=8,
    ),
)
def test_checkpoint_bytes_equal_from_scratch(seed, every, events):
    """Every checkpoint file a durable database writes — automatic or
    explicit, before or after a crash — is byte-identical to
    ``write_checkpoint`` of the same value."""
    schedule = defaultdict(list)
    for position, event in events:
        schedule[position].append(event)
    store = MemoryStore()
    ddb = open_durable(store, every)
    seen: dict = {}
    compared = 0

    def compare_new_files():
        nonlocal compared
        for name in list_checkpoints(store):
            data = store.read(name)
            if seen.get(name) != data:
                # written by the step just taken, so it holds the
                # current value
                lsn = checkpoint_lsn(name)
                assert lsn == ddb.wal.last_lsn
                assert data == from_scratch(ddb.database, lsn)
                seen[name] = data
                compared += 1

    for index, command in enumerate(
        scripted_workload(length=LENGTH, seed=seed)
    ):
        ddb.execute(command)
        compare_new_files()
        for event in schedule[index]:
            if event == "checkpoint":
                ddb.checkpoint()
            else:
                names = list_checkpoints(store)
                if event == "corrupt" and names:
                    corrupt_checkpoint(store, names[-1])
                    seen[names[-1]] = store.read(names[-1])
                before = ddb.database
                ddb.kill()
                ddb = open_durable(store, every)
                assert ddb.database == before
                if event == "corrupt" and names:
                    # recovery fell back past the damaged file
                    assert ddb.last_recovery.checkpoint_lsn < (
                        checkpoint_lsn(names[-1])
                    )
                # the first checkpoint after recovery starts cold
                ddb.checkpoint()
            compare_new_files()
    ddb.checkpoint()
    compare_new_files()
    assert compared >= 1
    ddb.close()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    indexes=st.lists(st.integers(0, LENGTH), min_size=1, max_size=12),
)
def test_encoder_matches_on_unrelated_values(seed, indexes):
    """The cache is validated, never trusted: fed database values in
    any order — successors, predecessors, repeats — one encoder still
    yields the from-scratch text for each."""
    oracle = oracle_history(scripted_workload(length=LENGTH, seed=seed))
    encoder, store = CheckpointEncoder(), MemoryStore()
    for lsn, index in enumerate(indexes):
        name = encoder.write(store, oracle[index], lsn)
        assert store.read(name) == from_scratch(oracle[index], lsn)


def test_same_length_different_history_misses():
    """A relation rebuilt with as many states but other contents (what
    a redefinition would bind) shares no pair with the cached prefix."""
    states = StateGenerator(seed=3, key_space=20)
    first = Relation(
        RelationType.ROLLBACK,
        [(states.snapshot_state(2), txn) for txn in (1, 2, 3)],
    )
    second = Relation(
        first.rtype,
        [(states.snapshot_state(2), txn) for txn in (1, 2, 3)],
    )
    encoder, store = CheckpointEncoder(), MemoryStore()
    for lsn, relation in enumerate((first, second, first)):
        database = Database(DatabaseState({"r": relation}), 3)
        name = encoder.write(store, database, lsn)
        assert store.read(name) == from_scratch(database, lsn)


class TestCheckpointWorkIsWhatChanged:
    """A spy on ``state_to_dict`` where both encoders call it."""

    def test_nth_checkpoint_encodes_only_new_states(self, monkeypatch):
        encoded = []
        original = checkpoint_module.state_to_dict

        def spy(state):
            encoded.append(state)
            return original(state)

        monkeypatch.setattr(checkpoint_module, "state_to_dict", spy)
        monkeypatch.setattr(json_codec, "state_to_dict", spy)
        snap = StateGenerator(seed=1, key_space=30)
        hist = StateGenerator(seed=2, key_space=30)
        ddb = DurableDatabase(
            MemoryStore(), fsync="never", checkpoint_every=0
        )
        for identifier, rtype in (
            ("r", "rollback"),
            ("t", "temporal"),
            ("s", "snapshot"),
            ("h", "historical"),
        ):
            ddb.execute(DefineRelation(identifier, rtype))

        def cycle():
            for _ in range(5):
                ddb.execute(
                    ModifyState("r", Const(snap.snapshot_state(3)))
                )
            for _ in range(3):
                ddb.execute(
                    ModifyState("t", Const(hist.historical_state(2)))
                )
            for _ in range(2):
                ddb.execute(
                    ModifyState("s", Const(snap.snapshot_state(3)))
                )
            del encoded[:]
            ddb.checkpoint()
            return len(encoded)

        # 5 + 3 appended, the replaced snapshot state once, and the
        # never-modified historical relation has no state at all
        counts = [cycle() for _ in range(8)]
        assert counts == [9] * 8
        assert ddb.database.require("r").history_length == 40

        # nothing changed: nothing is encoded, the bytes still match
        del encoded[:]
        ddb.execute(DefineRelation("r", "rollback"))  # the paper's no-op
        ddb.checkpoint()
        assert encoded == []
        name = list_checkpoints(ddb.store)[-1]
        assert ddb.store.read(name) == from_scratch(
            ddb.database, ddb.wal.last_lsn
        )

        # the from-scratch reference pays for all of history every time
        del encoded[:]
        write_checkpoint(MemoryStore(), ddb.database, 0)
        assert len(encoded) == 40 + 24 + 1
