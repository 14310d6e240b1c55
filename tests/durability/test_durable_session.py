"""Tests for the durable integration surface: Session(durable_dir=...),
VersionedDatabase.restore, DirectoryStore on a real filesystem, and
WAL metrics through the metrics registry."""

import pytest

from repro.errors import StorageError
from repro.durability import DurableDatabase, MemoryStore
from repro.durability.files import DirectoryStore
from repro.lang.session import Session
from repro.obsv import registry as obsv_registry
from repro.obsv.registry import MetricsRegistry
from repro.storage import FullCopyBackend
from repro.storage.versioned_db import VersionedDatabase, backends_agree


class TestDurableSession:
    def test_restart_continuity(self, tmp_path):
        directory = str(tmp_path / "db")
        session = Session(durable_dir=directory, fsync="always")
        session.execute(
            "define_relation(r, rollback);"
            'modify_state(r, state (k: integer) { (1), (2) });'
            "modify_state(r, (rollback(r, now) union"
            ' state (k: integer) { (3) }));'
        )
        before = session.database
        assert session.transaction_number == 3
        session.close()

        # the session reopens at the recovered value and keeps working
        # durably
        reopened = Session(durable_dir=directory)
        assert reopened.database == before
        assert reopened.transaction_number == 3
        reopened.execute(
            "modify_state(r, (rollback(r, now) minus"
            ' state (k: integer) { (1) }));'
        )
        state = reopened.query("rollback(r, now)")
        assert sorted(t.values[0] for t in state.tuples) == [2, 3]
        reopened.close()

        third = Session(durable_dir=directory)
        assert third.transaction_number == 4

    def test_in_memory_session_has_no_durable(self):
        session = Session()
        assert session.durable is None
        session.checkpoint()  # no-ops, not errors
        session.close()

    def test_explicit_checkpoint_compacts(self, tmp_path):
        session = Session(
            durable_dir=str(tmp_path / "db"),
            fsync="always",
            checkpoint_every=0,
        )
        session.execute("define_relation(r, rollback);")
        for i in range(10):
            session.execute(
                f"modify_state(r, state (k: integer) {{ ({i}) }});"
            )
        session.checkpoint()
        names = session.durable.store.list()
        assert any(n.startswith("checkpoint-") for n in names)
        session.close()
        reopened = Session(durable_dir=str(tmp_path / "db"))
        assert reopened.transaction_number == 11
        assert reopened.durable.last_recovery.checkpoint_lsn == 11


class TestDirectoryStore:
    def test_path_traversal_rejected(self, tmp_path):
        store = DirectoryStore(tmp_path)
        with pytest.raises(StorageError):
            store.append("../escape", b"x")
        with pytest.raises(StorageError):
            store.read("a/b")

    def test_replace_then_read_after_reopen(self, tmp_path):
        store = DirectoryStore(tmp_path)
        store.append("f", b"abc")
        store.replace("f", b"xyz")
        store.append("f", b"123")
        store.close()
        assert DirectoryStore(tmp_path).read("f") == b"xyz123"

    def test_durable_database_over_real_directory(
        self, tmp_path, workload, oracle
    ):
        with DurableDatabase(
            str(tmp_path / "wal"),
            fsync="batch(16, 60000)",
            checkpoint_every=50,
            segment_bytes=4096,
        ) as ddb:
            for command in workload[:120]:
                ddb.execute(command)
        reopened = DurableDatabase(str(tmp_path / "wal"))
        assert reopened.database == oracle[120]
        reopened.close()


class TestBackendMirror:
    """A physical backend restored from a recovered value."""

    def test_restore_replaces_nonempty_backend(self, workload, oracle):
        # restoring over a backend that already holds content wipes it
        # first and lands exactly on the restored value
        backend = FullCopyBackend()
        vdb = VersionedDatabase(backend)
        for command in workload[:10]:
            vdb.execute(command)
        vdb.restore(oracle[20])
        assert vdb.transaction_number == oracle[20].transaction_number
        reference = VersionedDatabase(FullCopyBackend())
        reference.restore(oracle[20])
        probes = [
            (identifier, txn)
            for identifier in ("r", "s", "h", "t")
            for txn in range(oracle[20].transaction_number + 1)
        ]
        assert backends_agree([backend, reference.backend], probes)


class TestStateAt:
    def test_state_at_matches_oracle(self, workload, oracle):
        store = MemoryStore()
        ddb = DurableDatabase(store, fsync="always")
        for command in workload[:80]:
            ddb.execute(command)
        expected = oracle[80]
        for identifier in ("r", "s", "h", "t"):
            relation = expected.require(identifier)
            for txn in (0, 1, 40, 80):
                assert ddb.state_at(identifier, txn) == relation.find_state(
                    txn
                )
        assert ddb.state_at("ghost", 40) is None


class TestWalMetrics:
    def test_wal_metrics_flow_through_hooks(self, workload):
        registry = obsv_registry.enable(MetricsRegistry())
        published = []

        class PublishingStore(MemoryStore):
            def replace(self, name, data):
                published.append(len(data))
                super().replace(name, data)

        try:
            store = PublishingStore()
            ddb = DurableDatabase(
                store,
                fsync="always",
                checkpoint_every=20,
                segment_bytes=2048,
            )
            for command in workload[:50]:
                ddb.execute(command)
            ddb.close()
            DurableDatabase(store).close()
        finally:
            obsv_registry.disable()
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["wal.records_appended"] == 50
        assert counters["wal.fsyncs"] >= 50
        assert counters["wal.bytes_appended"] > 0
        assert counters["wal.segments_rotated"] >= 1
        assert counters["wal.checkpoints_written"] == 2
        # every segment and manifest is published through replace()
        assert counters["wal.checkpoint_bytes"] == sum(published) > 0
        assert counters["wal.recoveries"] == 2
        assert "wal.recovery_seconds" in snapshot["histograms"]

    def test_no_observer_no_metrics(self, workload):
        assert not obsv_registry.enabled()
        ddb = DurableDatabase(MemoryStore(), fsync="always")
        for command in workload[:5]:
            ddb.execute(command)
        assert obsv_registry.get().snapshot()["counters"] == {}
