"""A segmented, CRC-framed, append-only write-ahead command log.

Physical format — each segment file is a flat run of records::

    ┌──────────────┬──────────────┬─────────────────────┐
    │ length (u32) │ crc32 (u32)  │ payload (length B)  │  × N records
    └──────────────┴──────────────┴─────────────────────┘

little-endian, CRC over the payload bytes.  Segments are named
``wal-<first-lsn>.seg`` (LSNs are 1-based record ordinals), so the
directory listing alone orders the log, and compaction can drop whole
segment files once a checkpoint covers them.

Opening the log *repairs* it to an appendable state: a torn final record
(short header, short payload, or CRC mismatch) is physically truncated
away, and — in the rarer mid-log corruption case — every record after
the first invalid byte is dropped, because command replay cannot skip a
record and stay deterministic.  The repaired log is always a *prefix* of
what was written: recovery may lose an un-synced suffix, never serve a
corrupted record.

Durability is governed by an :class:`FsyncPolicy`:

* ``always`` — fsync after every append; nothing acknowledged is ever
  lost;
* ``batch(N, ms)`` — fsync when ``N`` records are pending or ``ms``
  milliseconds have passed since the last sync, bounding loss to the
  batch;
* ``never`` — rely on the OS (and on checkpoints, which always sync);
  fastest, loses the longest suffix.
"""

from __future__ import annotations

import struct
import time
import zlib
from typing import Iterator, Optional, Union

from repro.errors import StreamGapError, WalError
from repro.durability.files import FileStore
from repro.obsv import registry as _obsv

__all__ = ["FsyncPolicy", "WriteAheadLog", "SEGMENT_PREFIX", "SEGMENT_SUFFIX"]

_HEADER = struct.Struct("<II")

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".seg"


def _segment_name(first_lsn: int) -> str:
    return f"{SEGMENT_PREFIX}{first_lsn:012d}{SEGMENT_SUFFIX}"


def _segment_first_lsn(name: str) -> int:
    return int(name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)])


def _is_segment(name: str) -> bool:
    return (
        name.startswith(SEGMENT_PREFIX)
        and name.endswith(SEGMENT_SUFFIX)
        and name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)].isdigit()
    )


class FsyncPolicy:
    """When the log fsyncs: ``always``, ``never`` or ``batch(N, ms)``."""

    __slots__ = ("mode", "batch_records", "batch_ms")

    def __init__(
        self, mode: str, batch_records: int = 0, batch_ms: float = 0.0
    ) -> None:
        if mode not in ("always", "never", "batch"):
            raise WalError(f"unknown fsync mode {mode!r}")
        if mode == "batch" and (batch_records < 1 or batch_ms < 0):
            raise WalError(
                f"batch fsync needs N ≥ 1 and ms ≥ 0, got "
                f"batch({batch_records}, {batch_ms})"
            )
        self.mode = mode
        self.batch_records = batch_records
        self.batch_ms = batch_ms

    @classmethod
    def parse(cls, spec: "Union[str, FsyncPolicy]") -> "FsyncPolicy":
        """``"always"``, ``"never"`` or ``"batch(N, ms)"``."""
        if isinstance(spec, cls):
            return spec
        text = str(spec).strip().lower()
        if text == "always":
            return cls("always")
        if text == "never":
            return cls("never")
        if text.startswith("batch(") and text.endswith(")"):
            inner = text[len("batch("):-1]
            parts = [p.strip() for p in inner.split(",")]
            if len(parts) == 2:
                try:
                    return cls("batch", int(parts[0]), float(parts[1]))
                except ValueError:
                    pass
        raise WalError(
            f"cannot parse fsync policy {spec!r}; expected 'always', "
            "'never' or 'batch(N, ms)'"
        )

    def should_sync(self, pending: int, elapsed_s: float) -> bool:
        if self.mode == "always":
            return True
        if self.mode == "never":
            return False
        return (
            pending >= self.batch_records
            or elapsed_s * 1000.0 >= self.batch_ms
        )

    def __repr__(self) -> str:
        if self.mode == "batch":
            return f"batch({self.batch_records}, {self.batch_ms:g})"
        return self.mode


def _scan_segment(
    data: bytes, pos: int = 0
) -> Iterator[tuple[int, bytes]]:
    """``(offset, payload)`` for each valid record in ``data`` from byte
    ``pos`` on, CRC-checked as it is reached.  Stops at the first short
    or CRC-failing record."""
    size = len(data)
    while pos + _HEADER.size <= size:
        length, crc = _HEADER.unpack_from(data, pos)
        end = pos + _HEADER.size + length
        if end > size:
            return  # torn: payload truncated
        payload = data[pos + _HEADER.size:end]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return  # torn or corrupted record
        yield pos, payload
        pos = end


class _Segment:
    """One segment file: its name, first LSN, byte size, and the byte
    offset of each record's frame (so a read can start at any LSN)."""

    __slots__ = ("name", "first_lsn", "offsets", "size")

    def __init__(
        self, name: str, first_lsn: int, offsets: list[int], size: int
    ) -> None:
        self.name = name
        self.first_lsn = first_lsn
        self.offsets = offsets
        self.size = size

    @property
    def records(self) -> int:
        return len(self.offsets)

    @property
    def last_lsn(self) -> int:
        return self.first_lsn + self.records - 1


class WriteAheadLog:
    """The append-only command log over a :class:`FileStore`.

    Construction scans and repairs the log (see module docstring), so a
    live :class:`WriteAheadLog` is always appendable and its records are
    exactly the durable, valid prefix of what was ever written.
    """

    def __init__(
        self,
        store: FileStore,
        policy: "Union[str, FsyncPolicy]" = "batch(64, 100)",
        segment_bytes: int = 1 << 20,
    ) -> None:
        if segment_bytes < _HEADER.size + 1:
            raise WalError(
                f"segment_bytes must allow at least one record, got "
                f"{segment_bytes}"
            )
        self._store = store
        self.policy = FsyncPolicy.parse(policy)
        self._segment_bytes = segment_bytes
        self._segments: list[_Segment] = []
        self._pending = 0  # records appended but not yet fsynced
        self._last_sync = time.monotonic()
        self.torn_records_dropped = 0
        self._open_scan()

    # -- opening / repair -------------------------------------------------

    def _open_scan(self) -> None:
        names = [n for n in self._store.list() if _is_segment(n)]
        names.sort(key=_segment_first_lsn)
        expected: Optional[int] = None
        broken = False
        for name in names:
            first_lsn = _segment_first_lsn(name)
            if broken or (expected is not None and first_lsn != expected):
                # a gap or earlier corruption: records past this point
                # cannot be replayed deterministically — drop them
                self._store.delete(name)
                self._note_torn(1)
                broken = True
                continue
            data = self._store.read(name)
            offsets, valid = [], 0
            for offset, payload in _scan_segment(data):
                offsets.append(offset)
                valid = offset + _HEADER.size + len(payload)
            if valid < len(data):
                # torn tail (or mid-segment corruption): truncate to the
                # valid prefix and drop everything after
                self._store.replace(name, data[:valid])
                self._note_torn(1)
                self.torn_records_dropped += 1
                broken = True
            if not offsets and broken:
                # fully-torn segment: nothing valid left, remove it
                self._store.delete(name)
                continue
            self._segments.append(_Segment(name, first_lsn, offsets, valid))
            expected = first_lsn + len(offsets)

    # -- properties -------------------------------------------------------

    @property
    def store(self) -> FileStore:
        return self._store

    @property
    def first_lsn(self) -> int:
        """The LSN of the oldest retained record (0 when empty)."""
        for segment in self._segments:
            if segment.records:
                return segment.first_lsn
        return 0

    @property
    def last_lsn(self) -> int:
        """The LSN of the newest record (0 when the log is empty)."""
        if not self._segments:
            return 0
        return self._segments[-1].last_lsn

    def segment_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self._segments)

    # -- append path ------------------------------------------------------

    def append(self, payload: bytes) -> int:
        """Append one record; returns its LSN.  May fsync, per policy."""
        if not payload:
            raise WalError("cannot append an empty WAL record")
        lsn = self.last_lsn + 1 if self._segments else self._next_lsn()
        frame = (
            _HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
            + payload
        )
        segment = self._current_segment(len(frame), lsn)
        self._store.append(segment.name, frame)
        segment.offsets.append(segment.size)
        segment.size += len(frame)
        self._pending += 1
        if _obsv.enabled():
            registry = _obsv.get()
            registry.counter("wal.records_appended").inc()
            registry.counter("wal.bytes_appended").inc(len(frame))
        if self.policy.should_sync(
            self._pending, time.monotonic() - self._last_sync
        ):
            self.sync()
        return lsn

    def sync(self) -> None:
        """Force-fsync the current segment (no-op when nothing pending)."""
        if self._pending == 0:
            return
        self._store.sync(self._segments[-1].name)
        self._pending = 0
        self._last_sync = time.monotonic()
        if _obsv.enabled():
            _obsv.get().counter("wal.fsyncs").inc()

    def _next_lsn(self) -> int:
        return 1

    def _current_segment(self, frame_size: int, lsn: int) -> _Segment:
        if (
            not self._segments
            or self._segments[-1].size + frame_size > self._segment_bytes
            and self._segments[-1].records > 0
        ):
            # rotate: sync the outgoing segment so a rotation is also a
            # durability point, then start a fresh file
            if self._segments:
                self.sync()
                if _obsv.enabled():
                    _obsv.get().counter("wal.segments_rotated").inc()
            segment = _Segment(_segment_name(lsn), lsn, [], 0)
            self._store.append(segment.name, b"")
            self._segments.append(segment)
        return self._segments[-1]

    # -- read path --------------------------------------------------------

    def records(self, after_lsn: int = 0) -> Iterator[tuple[int, bytes]]:
        """Yield ``(lsn, payload)`` for every record with LSN >
        ``after_lsn``, in order.

        Each segment is scanned from the frame of the first wanted
        record, and each record is CRC-verified as it is served, so the
        cost is what is read, not the log's length.  Records before
        ``after_lsn`` are not read at all."""
        for segment in self._segments:
            if segment.records == 0 or segment.last_lsn <= after_lsn:
                continue
            skip = max(0, after_lsn + 1 - segment.first_lsn)
            wanted = range(segment.first_lsn + skip, segment.last_lsn + 1)
            frames = _scan_segment(
                self._store.read(segment.name), segment.offsets[skip]
            )
            served = 0
            for lsn, (_, payload) in zip(wanted, frames):
                yield lsn, payload
                served += 1
            if served < len(wanted):
                # the segment lost records *after* the open-time repair
                # (media corruption under a live log); serving a shorter
                # run would silently skip LSNs
                raise WalError(
                    f"segment {segment.name!r} holds {served} valid "
                    f"records from LSN {wanted[0]} but {len(wanted)} "
                    "were appended; the log is damaged beneath a live "
                    "handle"
                )

    # -- tailing (the replication shipping surface) -----------------------

    def read_from(
        self, lsn: int, limit: Optional[int] = None
    ) -> list[tuple[int, bytes]]:
        """Up to ``limit`` ``(lsn, payload)`` pairs starting at ``lsn``.

        The shipping API replicas poll: records come back CRC-verified
        and contiguous.  Asking for an LSN the log has already compacted
        or rebased away raises :class:`StreamGapError` with
        ``compacted=True`` — the authoritative "fetch a snapshot
        instead" signal.  Asking past the end returns ``[]`` (nothing
        new yet).
        """
        if lsn < 1:
            raise WalError(f"read_from needs an LSN ≥ 1, got {lsn}")
        first = self.first_lsn
        if lsn <= self.last_lsn and (first == 0 or lsn < first):
            raise StreamGapError(
                f"records from LSN {lsn} have been compacted away; "
                f"the oldest retained record is "
                f"{first if first else 'none'}",
                expected=lsn,
                got=first,
                compacted=True,
            )
        batch: list[tuple[int, bytes]] = []
        for record_lsn, payload in self.records(after_lsn=lsn - 1):
            batch.append((record_lsn, payload))
            if limit is not None and len(batch) >= limit:
                break
        return batch

    # -- re-anchoring -----------------------------------------------------

    def rebase(self, lsn: int) -> None:
        """Re-anchor the log so the next append gets LSN ``lsn + 1``.

        Used when recovery finds a checkpoint *newer* than the surviving
        log (the log's tail was lost, e.g. to a lying fsync): the
        checkpoint already covers every record ≤ ``lsn``, so any stale
        retained records are dropped and the LSN space jumps past the
        lost range.  Without this, fresh appends would re-use lost LSNs
        and a later recovery — replaying only records past the
        checkpoint — would silently skip them.
        """
        if lsn < self.last_lsn:
            raise WalError(
                f"cannot rebase to LSN {lsn}: the log already holds "
                f"records through {self.last_lsn}"
            )
        if lsn == self.last_lsn and self._segments:
            return  # already aligned
        for segment in self._segments:
            self._store.delete(segment.name)
        segment = _Segment(_segment_name(lsn + 1), lsn + 1, [], 0)
        self._store.append(segment.name, b"")
        self._segments = [segment]
        self._pending = 0

    # -- compaction -------------------------------------------------------

    def drop_segments_through(self, lsn: int) -> int:
        """Delete segments whose records are *all* ≤ ``lsn`` (i.e. fully
        covered by a checkpoint).  Returns the number dropped."""
        dropped = 0
        while len(self._segments) > 1 and self._segments[0].last_lsn <= lsn:
            segment = self._segments.pop(0)
            self._store.delete(segment.name)
            dropped += 1
        if _obsv.enabled():
            registry = _obsv.get()
            if dropped:
                registry.counter("wal.compactions").inc()
                registry.counter("wal.segments_dropped").inc(dropped)
            registry.gauge("wal.segments").set(len(self._segments))
        return dropped

    # -- internal ---------------------------------------------------------

    @staticmethod
    def _note_torn(count: int) -> None:
        if _obsv.enabled():
            _obsv.get().counter("wal.torn_records_truncated").inc(count)
