"""Framing and message properties of the wire protocol.

The codec inherits the WAL's physical discipline; these tests give it
the WAL suite's adversarial treatment: every frame must round-trip
through arbitrary segmentation, and every torn, corrupted or oversized
frame must be *rejected* (never silently mis-framed)."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.server import protocol
from repro.server.protocol import (
    HEADER_BYTES,
    FrameDecoder,
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
)


class TestFraming:
    @given(st.binary(max_size=4096))
    @settings(max_examples=100)
    def test_round_trip(self, payload):
        assert decode_frame(encode_frame(payload)) == payload

    @given(st.lists(st.binary(max_size=256), max_size=12))
    @settings(max_examples=60)
    def test_concatenated_frames_split_exactly(self, payloads):
        stream = b"".join(encode_frame(p) for p in payloads)
        assert list(FrameDecoder().feed(stream)) == payloads

    @given(
        st.lists(st.binary(max_size=256), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=60)
    def test_arbitrary_segmentation(self, payloads, chunk):
        """TCP may deliver any byte-split; the decoder must reassemble."""
        stream = b"".join(encode_frame(p) for p in payloads)
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(stream), chunk):
            out.extend(decoder.feed(stream[i : i + chunk]))
        assert out == payloads
        assert decoder.pending == 0

    @given(st.binary(min_size=1, max_size=512))
    @settings(max_examples=100)
    def test_truncated_frame_never_yields(self, payload):
        frame = encode_frame(payload)
        for cut in (HEADER_BYTES - 1, len(frame) - 1):
            assert list(FrameDecoder().feed(frame[:cut])) == []

    @given(
        st.binary(min_size=1, max_size=512),
        st.data(),
    )
    @settings(max_examples=100)
    def test_single_bit_flip_detected(self, payload, data):
        """Any bit flip in the payload trips the CRC."""
        frame = bytearray(encode_frame(payload))
        position = data.draw(
            st.integers(HEADER_BYTES, len(frame) - 1), label="position"
        )
        bit = data.draw(st.integers(0, 7), label="bit")
        frame[position] ^= 1 << bit
        with pytest.raises(ProtocolError, match="CRC"):
            list(FrameDecoder().feed(bytes(frame)))

    def test_oversized_announced_length_rejected_before_buffering(self):
        decoder = FrameDecoder(max_frame=1024)
        import struct

        header = struct.pack("<II", 10_000_000, 0)
        with pytest.raises(ProtocolError, match="exceeds"):
            list(decoder.feed(header))

    def test_oversized_payload_rejected_on_encode(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame(b"x" * 2048, max_frame=1024)

    def test_header_corruption_in_length_is_crc_or_size_error(self):
        frame = bytearray(encode_frame(b"hello world"))
        frame[0] ^= 0x01  # length now wrong
        decoder = FrameDecoder(max_frame=64)
        with pytest.raises(ProtocolError):
            # either the announced length overflows the cap, or the
            # mis-sliced payload fails its CRC once enough bytes arrive
            list(decoder.feed(bytes(frame) + b"\0" * 64))

    def test_decode_frame_requires_exactly_one(self):
        two = encode_frame(b"a") + encode_frame(b"b")
        with pytest.raises(ProtocolError, match="exactly one"):
            decode_frame(two)


class TestMessages:
    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(
                st.integers(),
                st.text(max_size=32),
                st.booleans(),
                st.none(),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=60)
    def test_message_round_trip(self, message):
        assert decode_message(decode_frame(encode_message(message))) == (
            message
        )

    def test_non_json_payload_rejected(self):
        with pytest.raises(ProtocolError, match="malformed"):
            decode_message(b"\xff\xfe not json")

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError, match="object"):
            decode_message(json.dumps([1, 2]).encode())

    def test_request_constructor_rejects_unknown_op(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            protocol.request(1, "drop_tables")

    def test_validate_request_requires_source_for_query(self):
        with pytest.raises(ProtocolError, match="source"):
            protocol.validate_request({"id": 1, "op": "query"})

    def test_validate_request_requires_id(self):
        with pytest.raises(ProtocolError, match="id"):
            protocol.validate_request({"op": "ping"})

    @pytest.mark.parametrize("field", ["deadline_ms", "stall_ms"])
    @pytest.mark.parametrize(
        "value", ["5", True, -1, float("nan"), float("inf"), [5]]
    )
    def test_validate_request_refuses_bad_durations(self, field, value):
        with pytest.raises(ProtocolError, match=field):
            protocol.validate_request(
                {"id": 1, "op": "ping", field: value}
            )

    @pytest.mark.parametrize("value", [None, 0, 5, 2.5])
    def test_validate_request_accepts_durations(self, value):
        message = {
            "id": 1, "op": "ping", "deadline_ms": value, "stall_ms": value
        }
        assert protocol.validate_request(message) is message

    def test_unicode_sources_survive(self):
        message = protocol.request(7, "query", "ρ(r, now) ∪ σ")
        assert decode_message(decode_frame(encode_message(message)))[
            "source"
        ] == "ρ(r, now) ∪ σ"
