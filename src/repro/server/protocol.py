"""The wire protocol: CRC-framed, length-prefixed JSON messages.

The server and its clients exchange *frames* with exactly the physical
discipline of the durability WAL (:mod:`repro.durability.wal`) — if a
record format survives crashes on disk, it survives TCP segmentation on
the wire::

    ┌──────────────┬──────────────┬─────────────────────┐
    │ length (u32) │ crc32 (u32)  │ payload (length B)  │
    └──────────────┴──────────────┴─────────────────────┘

little-endian, CRC over the payload bytes.  Unlike the WAL there is no
repair-by-truncation: a stream that fails its CRC (or announces a frame
longer than :data:`MAX_FRAME_BYTES`) has lost byte alignment for every
subsequent frame, so framing errors raise :class:`ProtocolError` and the
detecting peer closes the connection.

One frame carries one JSON *message*.  Requests::

    {"id": 7, "op": "query",   "source": "rollback(r, now)"}
    {"id": 8, "op": "execute", "source": "modify_state(r, ...)"}
    {"id": 9, "op": "ping"}          # also: metrics, explain

plus optional ``deadline_ms`` (admission-to-completion budget) and
``stall_ms`` (a debug-only simulated I/O stall, honoured only when the
server runs with ``debug_ops=True``; load tests use it to model slow
queries deterministically).  Responses echo the request ``id`` with a
``status``:

* ``ok`` — ``result`` (printed relation / explain text), ``txn``
  (execute/ping), or ``metrics``;
* ``error`` — the request executed and failed: ``error`` +
  ``error_type`` (the server-side exception class name);
* ``queue_full`` — shed by admission control; retry with backoff;
* ``deadline`` — the deadline expired in queue or mid-execution;
* ``shutting_down`` — the server is draining;
* ``degraded`` — a shard backing the write has no live primary, so the
  write was shed with a typed error instead of hanging; reads keep
  serving and a retry succeeds once the supervisor repairs the shard.

Execute requests may additionally carry a ``session`` token (an opaque
client-chosen string) and a ``seq`` number (monotonically increasing
per session, starting at 1).  Together they make retries *exactly
once*: the server remembers the reply it sent for each ``(session,
seq)`` in a bounded dedup window and replays the cached reply — marked
``"replayed": true`` — for a retransmission instead of applying the
sentence a second time.  A retransmitted seq whose cached reply has
already been evicted from the window is answered with ``error`` and is
**never** re-executed, so the window bound trades retry lifetime for
memory without ever risking a double-apply.

Responses are matched to requests by ``id``; the protocol permits
pipelining, but a worker pool may complete two in-flight requests from
one connection in either order, so clients that need ordered effects
wait for each response before sending the next request (both bundled
clients do).
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from typing import Any, Iterator, Optional

from repro.errors import ProtocolError

__all__ = [
    "MAX_FRAME_BYTES",
    "HEADER_BYTES",
    "encode_frame",
    "decode_frame",
    "FrameDecoder",
    "encode_message",
    "decode_message",
    "request",
    "response",
    "validate_request",
    "OPS",
    "OP_QUERY",
    "OP_EXECUTE",
    "OP_EXPLAIN",
    "OP_PING",
    "OP_METRICS",
    "STATUS_OK",
    "STATUS_ERROR",
    "STATUS_QUEUE_FULL",
    "STATUS_DEADLINE",
    "STATUS_SHUTDOWN",
    "STATUS_DEGRADED",
]

_HEADER = struct.Struct("<II")

#: Bytes of the frame header (length + crc32).
HEADER_BYTES = _HEADER.size

#: Default ceiling on one frame's payload.  Large enough for any printed
#: relation the test workloads produce, small enough that a corrupted
#: length field cannot make a peer buffer gigabytes.
MAX_FRAME_BYTES = 4 * 1024 * 1024

OP_QUERY = "query"
OP_EXECUTE = "execute"
OP_EXPLAIN = "explain"
OP_PING = "ping"
OP_METRICS = "metrics"

OPS = frozenset({OP_QUERY, OP_EXECUTE, OP_EXPLAIN, OP_PING, OP_METRICS})

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_QUEUE_FULL = "queue_full"
STATUS_DEADLINE = "deadline"
STATUS_SHUTDOWN = "shutting_down"
STATUS_DEGRADED = "degraded"


# -- framing ----------------------------------------------------------------


def encode_frame(
    payload: bytes, max_frame: int = MAX_FRAME_BYTES
) -> bytes:
    """One frame: header + payload."""
    if len(payload) > max_frame:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{max_frame}-byte frame limit"
        )
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_frame(
    data: bytes, max_frame: int = MAX_FRAME_BYTES
) -> bytes:
    """Decode exactly one complete frame (header + full payload)."""
    frames = list(FrameDecoder(max_frame).feed(data))
    if len(frames) != 1:
        raise ProtocolError(
            f"expected exactly one complete frame, got {len(frames)}"
        )
    return frames[0]


class FrameDecoder:
    """Incremental frame decoder: feed arbitrary byte chunks, get back
    complete payloads.  TCP gives no message boundaries, so the decoder
    buffers partial frames across :meth:`feed` calls."""

    __slots__ = ("_buffer", "_max_frame")

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._max_frame = max_frame

    def feed(self, data: bytes) -> Iterator[bytes]:
        """Consume ``data``; yield each payload completed by it.

        Raises :class:`ProtocolError` on an oversized announced length
        or a CRC mismatch — the stream is then unusable (alignment is
        lost) and the caller should close the connection.
        """
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < HEADER_BYTES:
                return
            length, crc = _HEADER.unpack_from(self._buffer)
            if length > self._max_frame:
                raise ProtocolError(
                    f"announced frame length {length} exceeds the "
                    f"{self._max_frame}-byte frame limit"
                )
            end = HEADER_BYTES + length
            if len(self._buffer) < end:
                return
            payload = bytes(self._buffer[HEADER_BYTES:end])
            if zlib.crc32(payload) != crc:
                raise ProtocolError(
                    f"frame CRC mismatch over {length} payload bytes"
                )
            del self._buffer[:end]
            yield payload

    @property
    def pending(self) -> int:
        """Bytes buffered towards an incomplete frame."""
        return len(self._buffer)


# -- messages ---------------------------------------------------------------


def encode_message(
    message: dict, max_frame: int = MAX_FRAME_BYTES
) -> bytes:
    """A message as one frame (compact, key-sorted JSON payload)."""
    payload = json.dumps(
        message, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    return encode_frame(payload, max_frame)


def decode_message(payload: bytes) -> dict:
    """The JSON object carried by one frame payload."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(f"malformed message payload: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError(
            f"message must be a JSON object, got "
            f"{type(message).__name__}"
        )
    return message


def request(
    request_id: int,
    op: str,
    source: Optional[str] = None,
    *,
    deadline_ms: Optional[float] = None,
    stall_ms: Optional[float] = None,
    session: Optional[str] = None,
    seq: Optional[int] = None,
) -> dict:
    """A well-formed request message."""
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {sorted(OPS)}")
    if (session is None) != (seq is None):
        raise ProtocolError(
            "session and seq travel together: both or neither"
        )
    message: dict[str, Any] = {"id": request_id, "op": op}
    if source is not None:
        message["source"] = source
    if deadline_ms is not None:
        message["deadline_ms"] = deadline_ms
    if stall_ms is not None:
        message["stall_ms"] = stall_ms
    if session is not None:
        message["session"] = session
        message["seq"] = seq
    return message


def response(request_id: Any, status: str, **fields: Any) -> dict:
    """A response message echoing the request id."""
    message: dict[str, Any] = {"id": request_id, "status": status}
    message.update(fields)
    return message


def validate_request(message: dict) -> dict:
    """Check an inbound request's shape; returns it for chaining."""
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {sorted(OPS)}"
        )
    if op in (OP_QUERY, OP_EXECUTE, OP_EXPLAIN):
        if not isinstance(message.get("source"), str):
            raise ProtocolError(f"op {op!r} requires a string 'source'")
    if "id" not in message:
        raise ProtocolError("request is missing its 'id'")
    session = message.get("session")
    seq = message.get("seq")
    if (session is None) != (seq is None):
        raise ProtocolError(
            "session and seq travel together: both or neither"
        )
    if session is not None:
        if not isinstance(session, str) or not session:
            raise ProtocolError("session must be a non-empty string")
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 1:
            raise ProtocolError("seq must be an integer >= 1")
    for field in ("deadline_ms", "stall_ms"):
        value = message.get(field)
        # type() rather than isinstance(): a bool is not a duration
        if value is not None and (
            type(value) not in (int, float) or not 0 <= value < math.inf
        ):
            raise ProtocolError(
                f"{field} must be a finite number >= 0, got {value!r}"
            )
    return message
