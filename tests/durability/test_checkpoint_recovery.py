"""Tests for checkpoints and checkpoint-plus-replay recovery.

A checkpoint is a manifest naming a chain of segments; damage to either
must be detected, and recovery must fall back past it.  Each corruption
test therefore runs twice: once flipping a bit of the newest manifest,
once of the newest segment.  Recovery tests add a third: a bit of the
oldest segment, which every manifest of its chain names.
"""

import json
import zlib

import pytest

from repro.errors import StorageError
from repro.core.commands import DefineRelation, ModifyState
from repro.core.expressions import Const
from repro.durability import DurableDatabase, MemoryStore
from repro.durability.checkpoint import (
    CHAIN_SEGMENTS,
    CheckpointWriter,
    checkpoint_lsn,
    checkpoint_name,
    drop_old_checkpoints,
    latest_checkpoint,
    list_checkpoints,
    read_checkpoint,
    write_checkpoint,
)
from repro.durability.recovery import recover
from repro.persistence.json_codec import database_to_dict
from repro.workloads.generators import StateGenerator

from tests.durability.conftest import oracle_history


def manifest_segments(store, name):
    """The segment names the manifest ``name`` lists, oldest first."""
    envelope = json.loads(store.read(name))
    return json.loads(envelope["manifest"])["segments"]


def corrupt_checkpoint(store, name):
    """Flip one bit inside the manifest's embedded body (a key, so the
    envelope still parses and only the CRC can tell)."""
    store.corrupt(name, store.read(name).index(b"segments"))


def corrupt_segment(store, name, position=-1):
    """Flip one bit inside the body of the newest segment the manifest
    ``name`` lists (or the one at ``position``)."""
    segment = manifest_segments(store, name)[position]
    store.corrupt(segment, store.read(segment).index(b"relations"))


def corrupt_oldest_segment(store, name):
    corrupt_segment(store, name, 0)


CORRUPTIONS = (corrupt_checkpoint, corrupt_segment)


def durable_run(workload, every, commands=90):
    """A closed store holding ``commands`` commands, checkpointed every
    ``every``, two chains kept, WAL segments small enough to compact."""
    store = MemoryStore()
    with DurableDatabase(
        store,
        fsync="always",
        checkpoint_every=every,
        keep_checkpoints=2,
        segment_bytes=2048,
    ) as ddb:
        for command in workload[:commands]:
            ddb.execute(command)
    return store


class TestCheckpointFiles:
    def test_roundtrip(self, oracle):
        store = MemoryStore()
        database = oracle[100]
        name = write_checkpoint(store, database, 100)
        lsn, loaded = read_checkpoint(store, name)
        assert lsn == 100
        assert loaded == database
        assert latest_checkpoint(store) == (100, database)

    def test_newest_wins(self, oracle):
        store = MemoryStore()
        write_checkpoint(store, oracle[50], 50)
        write_checkpoint(store, oracle[120], 120)
        lsn, loaded = latest_checkpoint(store)
        assert (lsn, loaded) == (120, oracle[120])

    def test_crc_detects_corruption(self, oracle):
        for corrupt in CORRUPTIONS:
            store = MemoryStore()
            name = write_checkpoint(store, oracle[30], 30)
            corrupt(store, name)
            with pytest.raises(StorageError, match="CRC"):
                read_checkpoint(store, name)

    def test_corrupt_newest_falls_back(self, oracle):
        for corrupt in CORRUPTIONS:
            store = MemoryStore()
            write_checkpoint(store, oracle[50], 50)
            name = write_checkpoint(store, oracle[120], 120)
            corrupt(store, name)
            assert latest_checkpoint(store) == (50, oracle[50])

    def test_corrupt_newest_of_one_chain_falls_back(self, oracle):
        """Two manifests of one writer share the older segment: damage
        to the newest manifest or segment invalidates that manifest
        only."""
        for corrupt in CORRUPTIONS:
            store, writer = MemoryStore(), CheckpointWriter()
            writer.write(store, oracle[50], 50)
            name = writer.write(store, oracle[120], 120)
            assert len(manifest_segments(store, name)) == 2
            corrupt(store, name)
            assert latest_checkpoint(store) == (50, oracle[50])

    def test_all_corrupt_means_none(self, oracle):
        for corrupt in CORRUPTIONS:
            store = MemoryStore()
            for lsn in (10, 20):
                corrupt(store, write_checkpoint(store, oracle[lsn], lsn))
            assert latest_checkpoint(store) is None

    def test_version_1_checkpoint_stays_readable(self, oracle):
        """A full-copy checkpoint written before segment chains still
        loads, and the next checkpoint starts a chain of its own."""
        store = MemoryStore()
        inner = json.dumps(
            database_to_dict(oracle[40]),
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=False,
        )
        store.replace(
            checkpoint_name(40),
            json.dumps(
                {
                    "format": "repro-wal-checkpoint",
                    "version": 1,
                    "lsn": 40,
                    "crc": zlib.crc32(inner.encode("utf-8")) & 0xFFFFFFFF,
                    "database": inner,
                }
            ).encode("utf-8"),
        )
        assert latest_checkpoint(store) == (40, oracle[40])
        ddb = DurableDatabase(store, fsync="always", checkpoint_every=0)
        assert ddb.database == oracle[40]
        ddb.checkpoint()
        assert latest_checkpoint(store) == (40, oracle[40])
        ddb.close()

    def test_unsupported_version_rejected(self, oracle):
        store = MemoryStore()
        name = write_checkpoint(store, oracle[10], 10)
        envelope = json.loads(store.read(name).decode())
        envelope["version"] = 99
        store.replace(name, json.dumps(envelope).encode())
        with pytest.raises(StorageError, match="version"):
            read_checkpoint(store, name)

    def test_drop_old_checkpoints(self, oracle):
        store = MemoryStore()
        for lsn in (10, 20, 30, 40):
            write_checkpoint(store, oracle[lsn], lsn)
        store.replace("segment-000000000050-00000000.seg", b"an orphan")
        kept = drop_old_checkpoints(store, keep=2)
        assert kept == (30, 40)
        assert list_checkpoints(store) == (
            checkpoint_name(30),
            checkpoint_name(40),
        )
        # only the segments the kept manifests name survive
        assert [n for n in store.list() if n.startswith("segment-")] == [
            *manifest_segments(store, checkpoint_name(30)),
            *manifest_segments(store, checkpoint_name(40)),
        ]
        assert latest_checkpoint(store) == (40, oracle[40])
        with pytest.raises(StorageError, match="at least one"):
            drop_old_checkpoints(store, keep=0)

    def test_drop_keeps_the_newest_manifest_of_each_chain(self):
        """Manifests of one chain share its segments, so only the newest
        of them counts toward ``keep``; a damaged manifest names nothing
        recovery can use and is dropped without counting."""
        states = StateGenerator(seed=2)
        history = oracle_history(
            [DefineRelation("r", "rollback")]
            + [
                ModifyState("r", Const(states.snapshot_state(2)))
                for _ in range(40)
            ]
        )
        store = MemoryStore()
        write_checkpoint(store, history[10], 10)
        writer = CheckpointWriter()
        for lsn in (20, 30, 40):
            writer.write(store, history[lsn], lsn)
        assert len(manifest_segments(store, checkpoint_name(40))) == 3
        corrupt_checkpoint(store, write_checkpoint(store, history[41], 41))
        assert drop_old_checkpoints(store, keep=2) == (10, 40)
        assert list_checkpoints(store) == (
            checkpoint_name(10),
            checkpoint_name(40),
        )
        first, second = (
            set(manifest_segments(store, name))
            for name in list_checkpoints(store)
        )
        assert not first & second
        assert {n for n in store.list() if n.startswith("segment-")} == (
            first | second
        )
        assert latest_checkpoint(store) == (40, history[40])


class TestRecovery:
    def test_empty_store_recovers_empty(self):
        result = recover(MemoryStore())
        assert result.database.transaction_number == 0
        assert (result.checkpoint_lsn, result.replayed) == (0, 0)

    def test_replay_without_checkpoint(self, workload, oracle):
        store = MemoryStore()
        with DurableDatabase(
            store, fsync="always", checkpoint_every=0
        ) as ddb:
            for command in workload[:60]:
                ddb.execute(command)
        result = recover(store)
        assert result.database == oracle[60]
        assert result.checkpoint_lsn == 0
        assert result.replayed == 60

    def test_checkpoint_bounds_replay(self, workload, oracle):
        store = MemoryStore()
        with DurableDatabase(
            store, fsync="always", checkpoint_every=0
        ) as ddb:
            for command in workload[:50]:
                ddb.execute(command)
            ddb.checkpoint()
            for command in workload[50:60]:
                ddb.execute(command)
        result = recover(store)
        assert result.database == oracle[60]
        assert result.checkpoint_lsn == 50
        assert result.replayed == 10

    def test_compaction_preserves_recovery(self, workload, oracle):
        store = durable_run(workload, every=4)
        # compaction really dropped something
        assert "wal-000000000001.seg" not in store.list()
        assert recover(store).database == oracle[90]

    def test_corrupt_newest_checkpoint_replays_longer_tail(
        self, workload, oracle
    ):
        """Recovery falls back to the previous chain's checkpoint;
        compaction kept every WAL record past it, so nothing is lost."""
        for corrupt in CORRUPTIONS:
            store = durable_run(workload, every=4)
            checkpoints = list_checkpoints(store)
            assert len(checkpoints) == 2
            corrupt(store, checkpoints[-1])
            result = recover(store)
            assert result.database == oracle[90]
            assert result.checkpoint_lsn == checkpoint_lsn(checkpoints[0])

    def test_corrupt_oldest_segment_of_the_newest_chain(
        self, workload, oracle
    ):
        """Every manifest of a chain names its oldest segment, so a bit
        flipped there invalidates the whole chain.  The kept fallback
        shares no file with it — the previous chain, or ∅ while the
        first chain is the only one — and the WAL still holds every
        record past that fallback."""
        for every, chains in ((20, 1), (4, 2)):
            store = durable_run(workload, every=every)
            names = list_checkpoints(store)
            assert len(manifest_segments(store, names[-1])) > 1
            corrupt_oldest_segment(store, names[-1])
            ddb = DurableDatabase(store, fsync="always", checkpoint_every=0)
            assert ddb.database == oracle[90]
            assert len(names) == chains
            assert ddb.last_recovery.checkpoint_lsn == (
                checkpoint_lsn(names[0]) if chains == 2 else 0
            )
            ddb.close()

    def test_kept_checkpoints_share_no_file(self, workload):
        """After every checkpoint the kept manifests — one per chain —
        name disjoint segments, no chain is longer than
        ``CHAIN_SEGMENTS``, and no other segment is on disk."""
        store = MemoryStore()
        ddb = DurableDatabase(
            store, fsync="never", checkpoint_every=0, keep_checkpoints=2
        )
        lengths = []
        for index, command in enumerate(workload):
            ddb.execute(command)
            if index % 5 == 4:
                ddb.checkpoint()
                chains = [
                    manifest_segments(store, name)
                    for name in list_checkpoints(store)
                ]
                assert len(chains) <= 2
                named = [segment for chain in chains for segment in chain]
                assert len(named) == len(set(named))
                assert {
                    n for n in store.list() if n.startswith("segment-")
                } == set(named)
                lengths.append(len(chains[-1]))
        assert max(lengths) == CHAIN_SEGMENTS
        ddb.close()

    def test_divergent_log_fails_loudly(self, workload, oracle):
        """If every checkpoint is lost *and* the early log was compacted
        away, replay cannot reach a consistent state — recovery must
        raise, not silently return a wrong database."""
        store = durable_run(workload, every=4)
        compacted = recover(store)
        assert compacted.checkpoint_lsn > 0
        for name in list_checkpoints(store):
            store.delete(name)
        with pytest.raises(StorageError, match="diverged"):
            recover(store)

    def test_checkpoint_outliving_log_rebases_lsns(
        self, workload, oracle
    ):
        """A checkpoint newer than the entire surviving log (total WAL
        loss) must not make post-recovery commands invisible to the
        *next* recovery."""
        store = MemoryStore()
        with DurableDatabase(
            store, fsync="always", checkpoint_every=0
        ) as ddb:
            for command in workload[:40]:
                ddb.execute(command)
            ddb.checkpoint()
        for name in store.list():
            if name.startswith("wal-"):
                store.delete(name)
        ddb = DurableDatabase(store, fsync="always", checkpoint_every=0)
        assert ddb.database == oracle[40]
        assert ddb.wal.last_lsn == 40  # rebased past the covered range
        for command in workload[40:55]:
            ddb.execute(command)
        ddb.close()
        again = DurableDatabase(store, fsync="always")
        assert again.database == oracle[55]
