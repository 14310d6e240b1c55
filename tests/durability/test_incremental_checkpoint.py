"""Checkpoints write what changed: the segment chain against the value.

``DurableDatabase`` seals the states appended since its last checkpoint
into one new segment and names the whole chain in a manifest.  Decoding
that chain must give the live value — after any command sequence over
all four relation types, across crashes and recoveries, and after
falling back from a corrupted checkpoint — and the work must be
proportional to what changed: each state is encoded once, a reopened
database extends the chain it recovered, and replaced states cannot
make the chain grow without bound.  Everything here counts or compares
values and bytes; nothing is timed.
"""

import hashlib
import os
import subprocess
import sys
from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.core.commands import DefineRelation, ModifyState
from repro.core.database import Database, DatabaseState
from repro.core.expressions import Const
from repro.core.relation import Relation, RelationType
from repro.durability import DurableDatabase, MemoryStore
from repro.durability import checkpoint as checkpoint_module
from repro.durability.checkpoint import (
    CheckpointWriter,
    checkpoint_lsn,
    list_checkpoints,
    read_checkpoint,
    write_checkpoint,
)
from repro.workloads.generators import StateGenerator

from tests.durability.conftest import oracle_history, scripted_workload
from tests.durability.test_checkpoint_recovery import (
    corrupt_checkpoint,
    manifest_segments,
)

LENGTH = 60
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def open_durable(store, every):
    return DurableDatabase(
        store, fsync="always", checkpoint_every=every, keep_checkpoints=2
    )


def newest_chain(store):
    return manifest_segments(store, list_checkpoints(store)[-1])


def states_in(store, segment):
    """How many states the segment encodes, over all identifiers."""
    return sum(
        len(run["states"])
        for entry in checkpoint_module._read_segment(store, segment).values()
        for run in entry["runs"]
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
def test_checkpoint_decodes_to_the_live_value(seed, every, events):
    """Every checkpoint a durable database writes — automatic or
    explicit, before or after a crash — decodes to the value it was
    written from."""
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
                assert read_checkpoint(store, name) == (lsn, ddb.database)
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
                # the first checkpoint after recovery extends the chain
                # recovery loaded
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
    """The seal is validated, never trusted: fed database values in any
    order — successors, predecessors, repeats — one writer's chain still
    decodes to each."""
    oracle = oracle_history(scripted_workload(length=LENGTH, seed=seed))
    writer, store = CheckpointWriter(), MemoryStore()
    for lsn, index in enumerate(indexes):
        name = writer.write(store, oracle[index], lsn)
        assert read_checkpoint(store, name) == (lsn, oracle[index])


def test_same_length_different_history_misses():
    """A relation rebuilt with as many states but other contents (what
    a redefinition would bind) shares no pair with the sealed prefix,
    so it is reset."""
    states = StateGenerator(seed=3, key_space=20)
    first = Relation(
        RelationType.ROLLBACK,
        [(states.snapshot_state(2), txn) for txn in (1, 2, 3)],
    )
    second = Relation(
        first.rtype,
        [(states.snapshot_state(2), txn) for txn in (1, 2, 3)],
    )
    writer, store = CheckpointWriter(), MemoryStore()
    for lsn, relation in enumerate((first, second, first)):
        database = Database(DatabaseState({"r": relation}), 3)
        name = writer.write(store, database, lsn)
        assert read_checkpoint(store, name) == (lsn, database)
        # each write reset "r" and re-encoded its three states
        assert states_in(store, newest_chain(store)[-1]) == 3


class TestCheckpointWorkIsWhatChanged:
    """Counts of the states each segment encodes."""

    def test_nth_checkpoint_encodes_only_new_states(self):
        snap = StateGenerator(seed=1, key_space=30)
        hist = StateGenerator(seed=2, key_space=30)
        store = MemoryStore()
        ddb = DurableDatabase(store, fsync="never", checkpoint_every=0)
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
            ddb.checkpoint()
            return states_in(store, newest_chain(store)[-1])

        # 5 + 3 appended, the replaced snapshot state once, and the
        # never-modified historical relation has no state at all
        counts = [cycle() for _ in range(8)]
        assert counts == [9] * 8
        assert len(newest_chain(store)) == 8
        assert ddb.database.require("r").history_length == 40

        # nothing changed: no segment, just a manifest naming the chain
        ddb.execute(DefineRelation("r", "rollback"))  # the paper's no-op
        ddb.checkpoint()
        assert len(newest_chain(store)) == 8
        assert read_checkpoint(store, list_checkpoints(store)[-1]) == (
            ddb.wal.last_lsn,
            ddb.database,
        )

        # a one-segment chain from scratch pays for all of history
        fresh = MemoryStore()
        write_checkpoint(fresh, ddb.database, 0)
        assert states_in(fresh, newest_chain(fresh)[0]) == 40 + 24 + 1

    def test_first_checkpoint_after_reopen_writes_only_new_states(self):
        """Recovery seeds the writer from the manifest: after a clean
        close, and after a kill that leaves a WAL tail to replay, the
        next segment holds only what was appended since the last
        one."""
        states = StateGenerator(seed=4, key_space=30)
        store = MemoryStore()

        def append(count):
            for _ in range(count):
                ddb.execute(ModifyState("r", Const(states.snapshot_state(3))))

        ddb = DurableDatabase(store, fsync="always", checkpoint_every=0)
        ddb.execute(DefineRelation("r", "rollback"))
        append(200)
        ddb.checkpoint()
        ddb.close()

        ddb = DurableDatabase(store, fsync="always", checkpoint_every=0)
        append(10)
        ddb.checkpoint()
        assert states_in(store, newest_chain(store)[-1]) == 10
        append(5)
        ddb.kill()

        ddb = DurableDatabase(store, fsync="always", checkpoint_every=0)
        assert ddb.last_recovery.replayed == 5
        append(5)
        ddb.checkpoint()
        chain = newest_chain(store)
        assert [states_in(store, segment) for segment in chain] == [
            200, 10, 10,
        ]
        assert read_checkpoint(store, list_checkpoints(store)[-1])[1] == (
            ddb.database
        )
        ddb.close()

    def test_replaced_snapshots_keep_the_chain_within_twice_its_live_size(
        self,
    ):
        """Each replaced snapshot state makes its old entry dead; a
        checkpoint starts a fresh chain before dead bytes outweigh live
        ones, so 100 replaces never leave more than twice the one-segment
        chain of the same value, plus one segment."""
        states = StateGenerator(seed=5, key_space=30)
        store = MemoryStore()
        ddb = DurableDatabase(store, fsync="never", checkpoint_every=0)
        ddb.execute(DefineRelation("s", "snapshot"))
        lengths = set()
        for _ in range(100):
            ddb.execute(ModifyState("s", Const(states.snapshot_state(5))))
            ddb.checkpoint()
            chain = [len(store.read(name)) for name in newest_chain(store)]
            fresh = MemoryStore()
            write_checkpoint(fresh, ddb.database, 0)
            live = sum(len(fresh.read(n)) for n in newest_chain(fresh))
            assert sum(chain) <= 2 * live + max(chain)
            lengths.add(len(chain))
        assert lengths == {1, 2}
        # superseded segments are deleted, not just unnamed
        kept = {
            name
            for manifest in list_checkpoints(store)
            for name in manifest_segments(store, manifest)
        }
        assert {n for n in store.list() if n.startswith("segment-")} == kept
        ddb.close()


DETERMINISM_SCRIPT = """
import hashlib
from repro.durability import DurableDatabase, MemoryStore
from tests.durability.conftest import scripted_workload

store = MemoryStore()
ddb = DurableDatabase(store, fsync="never", checkpoint_every=7)
for command in scripted_workload(length=80, seed=11):
    ddb.execute(command)
ddb.checkpoint()
digest = hashlib.sha256()
for name in store.list():
    if not name.startswith("wal-"):
        digest.update(name.encode() + b"\\0" + store.read(name))
print(digest.hexdigest())
"""


def test_checkpoint_bytes_do_not_depend_on_the_hash_seed():
    """Rows are ordered by their encoded text, never by set iteration
    order: the same commands write the same segment and manifest bytes
    under two ``PYTHONHASHSEED`` values."""
    digests = set()
    for seed in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]),
        )
        result = subprocess.run(
            [sys.executable, "-c", DETERMINISM_SCRIPT],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        digests.add(result.stdout.strip())
    assert len(digests) == 1
    # the digest covers files, not an empty store
    assert hashlib.sha256().hexdigest() not in digests
