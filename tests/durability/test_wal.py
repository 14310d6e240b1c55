"""Tests for the segmented CRC-framed write-ahead log."""

import struct
import zlib

import pytest

from repro.errors import StorageError, WalError
from repro.durability.faults import MemoryStore
from repro.durability.wal import FsyncPolicy, WriteAheadLog

from tests.conftest import calls_to

_HEADER = struct.Struct("<II")


class CountingStore(MemoryStore):
    """A MemoryStore that counts fsyncs, for policy assertions."""

    def __init__(self):
        super().__init__()
        self.syncs = 0

    def sync(self, name):
        self.syncs += 1
        super().sync(name)


def payloads_of(wal, after_lsn=0):
    return [payload for _, payload in wal.records(after_lsn)]


class TestFsyncPolicy:
    def test_parse_forms(self):
        assert FsyncPolicy.parse("always").mode == "always"
        assert FsyncPolicy.parse("never").mode == "never"
        batch = FsyncPolicy.parse("batch(8, 250)")
        assert (batch.batch_records, batch.batch_ms) == (8, 250.0)
        assert FsyncPolicy.parse(batch) is batch

    @pytest.mark.parametrize(
        "spec", ["sometimes", "batch()", "batch(0, 10)", "batch(1)"]
    )
    def test_parse_rejects(self, spec):
        with pytest.raises(StorageError):
            FsyncPolicy.parse(spec)

    def test_should_sync(self):
        assert FsyncPolicy.parse("always").should_sync(0, 0.0)
        assert not FsyncPolicy.parse("never").should_sync(10**6, 10**6)
        batch = FsyncPolicy.parse("batch(4, 100)")
        assert not batch.should_sync(3, 0.05)
        assert batch.should_sync(4, 0.0)
        assert batch.should_sync(1, 0.2)


class TestAppendAndRead:
    def test_lsns_and_roundtrip(self):
        wal = WriteAheadLog(MemoryStore(), policy="always")
        items = [f"record-{i}".encode() for i in range(10)]
        assert [wal.append(p) for p in items] == list(range(1, 11))
        assert payloads_of(wal) == items
        assert payloads_of(wal, after_lsn=7) == items[7:]
        assert (wal.first_lsn, wal.last_lsn) == (1, 10)

    def test_empty_payload_rejected(self):
        wal = WriteAheadLog(MemoryStore(), policy="always")
        with pytest.raises(StorageError, match="empty WAL record"):
            wal.append(b"")

    def test_reopen_continues_lsns(self):
        store = MemoryStore()
        wal = WriteAheadLog(store, policy="always")
        for i in range(5):
            wal.append(f"a{i}".encode())
        reopened = WriteAheadLog(store, policy="always")
        assert reopened.last_lsn == 5
        assert reopened.append(b"next") == 6
        assert len(payloads_of(reopened)) == 6

    def test_rotation_spans_segments(self):
        store = MemoryStore()
        wal = WriteAheadLog(
            store, policy="always", segment_bytes=64
        )
        items = [f"payload-{i:04d}".encode() for i in range(20)]
        for item in items:
            wal.append(item)
        assert len(wal.segment_names()) > 1
        # names alone order the log
        firsts = [
            int(n[len("wal-"):-len(".seg")])
            for n in wal.segment_names()
        ]
        assert firsts == sorted(firsts)
        assert payloads_of(wal) == items
        # reopen sees the same multi-segment log
        assert payloads_of(WriteAheadLog(store, policy="always")) == items

    def test_oversized_record_still_fits_one_segment(self):
        wal = WriteAheadLog(
            MemoryStore(), policy="always", segment_bytes=32
        )
        big = b"x" * 100
        wal.append(big)
        wal.append(b"small")
        assert payloads_of(wal) == [big, b"small"]


class TestRepair:
    def test_torn_tail_is_truncated(self):
        store = MemoryStore()
        wal = WriteAheadLog(store, policy="always")
        wal.append(b"alpha")
        wal.append(b"bravo")
        name = wal.segment_names()[-1]
        # a torn final frame: header promises more bytes than exist
        store.append(name, _HEADER.pack(100, 0) + b"shor")
        store.sync(name)
        reopened = WriteAheadLog(store, policy="always")
        assert payloads_of(reopened) == [b"alpha", b"bravo"]
        assert reopened.torn_records_dropped == 1
        # the file itself was repaired, not just skipped over
        assert reopened.append(b"charlie") == 3
        assert payloads_of(WriteAheadLog(store)) == [
            b"alpha",
            b"bravo",
            b"charlie",
        ]

    def test_mid_segment_bit_flip_truncates_suffix(self):
        store = MemoryStore()
        wal = WriteAheadLog(store, policy="always")
        for i in range(6):
            wal.append(f"record-{i}".encode())
        name = wal.segment_names()[0]
        data = store.read(name)
        frame = _HEADER.size + len(b"record-0")
        # flip a payload bit inside the third record
        store.corrupt(name, 2 * frame + _HEADER.size + 1)
        reopened = WriteAheadLog(store, policy="always")
        assert payloads_of(reopened) == [b"record-0", b"record-1"]
        assert reopened.last_lsn == 2
        assert len(store.read(name)) == 2 * frame < len(data)

    def test_corruption_drops_later_segments_too(self):
        """Replay cannot skip a record and stay deterministic, so
        everything after the first invalid byte goes — even whole later
        segments."""
        store = MemoryStore()
        wal = WriteAheadLog(store, policy="always", segment_bytes=64)
        for i in range(20):
            wal.append(f"payload-{i:04d}".encode())
        first = wal.segment_names()[0]
        store.corrupt(first, _HEADER.size + 1)
        reopened = WriteAheadLog(store, policy="always")
        assert payloads_of(reopened) == []
        assert reopened.last_lsn == 0
        assert [n for n in store.list() if n.startswith("wal-")] in (
            [],
            [first],
        )

    def test_gapped_segment_is_dropped(self):
        store = MemoryStore()
        wal = WriteAheadLog(store, policy="always", segment_bytes=64)
        for i in range(20):
            wal.append(f"payload-{i:04d}".encode())
        names = wal.segment_names()
        assert len(names) >= 3
        store.delete(names[1])
        reopened = WriteAheadLog(store, policy="always")
        # only the prefix before the gap survives
        assert reopened.segment_names() == (names[0],)
        lsns = [lsn for lsn, _ in reopened.records()]
        assert lsns == list(range(1, len(lsns) + 1))


class TestTailReads:
    """A read starts at the frame of the first wanted record and
    CRC-verifies exactly the records it serves."""

    def logged(self, count, **kwargs):
        store = MemoryStore()
        wal = WriteAheadLog(store, policy="always", **kwargs)
        items = [f"record-{i:05d}".encode() for i in range(count)]
        for item in items:
            wal.append(item)
        return store, wal, items

    def test_a_one_record_fetch_costs_the_same_at_any_depth(self):
        _, wal, items = self.logged(2100)
        assert len(wal.segment_names()) == 1
        scanned = []
        for lsn in (10, 2000):
            with calls_to(zlib, "crc32") as crcs:
                batch = wal.read_from(lsn, limit=1)
            assert batch == [(lsn, items[lsn - 1])]
            scanned.append(len(crcs))
        assert scanned == [1, 1]

    def test_every_start_lsn_serves_the_exact_suffix(self):
        store, wal, items = self.logged(30, segment_bytes=64)
        assert len(wal.segment_names()) > 3
        # offsets come from appends here and from the open-time scan
        # after a reopen
        for log in (wal, WriteAheadLog(store, policy="always")):
            for after in range(len(items) + 1):
                assert payloads_of(log, after) == items[after:]

    def test_damage_at_or_after_the_requested_lsn_raises(self):
        store, wal, items = self.logged(8)
        name = wal.segment_names()[0]
        frame = _HEADER.size + len(items[0])
        store.corrupt(name, 4 * frame + _HEADER.size + 1)  # LSN 5
        for lsn in (1, 3, 5):
            with pytest.raises(WalError, match="beneath a live handle"):
                wal.read_from(lsn)
        # every *served* record is verified: a run that stops short of
        # the damage, or starts past it, is served intact
        assert wal.read_from(2, limit=3) == [
            (lsn, items[lsn - 1]) for lsn in (2, 3, 4)
        ]
        assert payloads_of(wal, after_lsn=5) == items[5:]
        # open-time repair is unchanged: the log keeps the valid prefix
        reopened = WriteAheadLog(store, policy="always")
        assert payloads_of(reopened) == items[:4]

    def test_a_truncated_segment_raises(self):
        store, wal, items = self.logged(6)
        name = wal.segment_names()[0]
        store.replace(name, store.read(name)[:-3])
        with pytest.raises(WalError, match="beneath a live handle"):
            wal.read_from(6)
        assert wal.read_from(1, limit=5) == [
            (lsn, items[lsn - 1]) for lsn in range(1, 6)
        ]


class TestSyncPolicyEffects:
    def test_always_syncs_every_append(self):
        store = CountingStore()
        wal = WriteAheadLog(store, policy="always")
        for i in range(10):
            wal.append(b"x")
        assert store.syncs == 10

    def test_never_never_syncs(self):
        store = CountingStore()
        wal = WriteAheadLog(store, policy="never")
        for i in range(10):
            wal.append(b"x")
        assert store.syncs == 0
        wal.sync()  # explicit sync still works
        assert store.syncs == 1

    def test_batch_syncs_every_n(self):
        store = CountingStore()
        wal = WriteAheadLog(store, policy="batch(4, 60000)")
        for i in range(12):
            wal.append(b"x")
        assert store.syncs == 3

    def test_sync_without_pending_is_noop(self):
        store = CountingStore()
        wal = WriteAheadLog(store, policy="always")
        wal.append(b"x")
        syncs = store.syncs
        wal.sync()
        assert store.syncs == syncs


class TestCompaction:
    def test_drop_segments_through(self):
        store = MemoryStore()
        wal = WriteAheadLog(store, policy="always", segment_bytes=64)
        for i in range(20):
            wal.append(f"payload-{i:04d}".encode())
        names = wal.segment_names()
        assert len(names) >= 3
        boundary_lsn = wal.last_lsn - 1
        dropped = wal.drop_segments_through(boundary_lsn)
        assert dropped >= 1
        # at least one segment always remains, and no record past the
        # boundary was lost
        assert len(wal.segment_names()) >= 1
        remaining = [lsn for lsn, _ in wal.records()]
        assert wal.last_lsn in remaining
        assert wal.first_lsn > 1

    def test_never_drops_last_segment(self):
        store = MemoryStore()
        wal = WriteAheadLog(store, policy="always", segment_bytes=1 << 20)
        for i in range(5):
            wal.append(b"x")
        assert wal.drop_segments_through(wal.last_lsn) == 0
        assert len(wal.segment_names()) == 1


class TestRebase:
    def test_rebase_empty_log(self):
        store = MemoryStore()
        wal = WriteAheadLog(store, policy="always")
        wal.rebase(40)
        assert wal.last_lsn == 40
        assert wal.append(b"x") == 41
        reopened = WriteAheadLog(store, policy="always")
        assert [lsn for lsn, _ in reopened.records()] == [41]

    def test_rebase_drops_stale_records(self):
        store = MemoryStore()
        wal = WriteAheadLog(store, policy="always")
        for i in range(5):
            wal.append(b"stale")
        wal.rebase(12)
        assert wal.append(b"fresh") == 13
        assert payloads_of(WriteAheadLog(store)) == [b"fresh"]

    def test_rebase_cannot_go_backwards(self):
        wal = WriteAheadLog(MemoryStore(), policy="always")
        for i in range(5):
            wal.append(b"x")
        with pytest.raises(StorageError, match="cannot rebase"):
            wal.rebase(3)

    def test_rebase_to_current_tip_is_noop(self):
        store = MemoryStore()
        wal = WriteAheadLog(store, policy="always")
        for i in range(3):
            wal.append(b"x")
        names = wal.segment_names()
        wal.rebase(3)
        assert wal.segment_names() == names
        assert wal.append(b"y") == 4
