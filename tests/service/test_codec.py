"""The wire codec: round trips and hostile-input robustness.

The codec faces untrusted bytes by definition (the paper's adversary
*is* the client), so every malformed shape must raise a clean
:class:`ProtocolError` -- truncated frames, oversized lengths, garbage
payloads, bad opcodes -- and never an IndexError, MemoryError or silent
misparse.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.exceptions import ProtocolError
from repro.service.codec import (
    FRAME_V2,
    MAX_FRAME,
    OP_INSERT,
    OP_INSERT_BATCH,
    OP_QUERY,
    OP_QUERY_BATCH,
    OP_STATS,
    ST_ERROR,
    ST_INVALID,
    ST_OK,
    ST_RATE_LIMITED,
    Request,
    Response,
    decode_request_envelope,
    decode_response_envelope,
    encode_answers,
    encode_error,
    encode_frame,
    encode_request,
    encode_stats,
    pack_bools,
    read_frame,
    unpack_bools,
)
from repro.service.telemetry import ShardTelemetry


def read_frames(data: bytes, count: int = 1) -> list[bytes | None]:
    """Feed ``data`` + EOF into a fresh StreamReader (inside the loop,
    so the reader binds to it) and read ``count`` frames."""

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return [await read_frame(reader) for _ in range(count)]

    return asyncio.run(scenario())


def read_one(data: bytes) -> bytes | None:
    return read_frames(data)[0]


def enveloped(body: bytes, rid: int = 7) -> bytes:
    """A payload body behind the envelope (marker + correlation id)."""
    return bytes([FRAME_V2]) + rid.to_bytes(4, "big") + body


def request_of(body: bytes) -> Request:
    """Decode a request body through the enveloped decoder."""
    rid, request = decode_request_envelope(enveloped(body))
    assert rid == 7
    return request


def response_of(body: bytes) -> Response:
    """Decode a reply body through the enveloped decoder."""
    rid, response = decode_response_envelope(enveloped(body))
    assert rid == 7
    return response


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------

@pytest.mark.parametrize("op", [OP_INSERT_BATCH, OP_QUERY_BATCH])
def test_batch_request_round_trip(op):
    items: list[str | bytes] = ["http://a.example", b"\x00raw\xff", "unicode-é中"]
    payload = encode_request(op, items, client="mallory")
    request = request_of(payload)
    assert request.op == op
    assert request.client == "mallory"
    assert request.items == items  # str stays str, bytes stays bytes


@pytest.mark.parametrize("op", [OP_INSERT, OP_QUERY])
def test_single_request_round_trip(op):
    request = request_of(encode_request(op, ["one"], client=""))
    assert request.items == ["one"]
    assert request.client == ""


def test_stats_request_round_trip():
    request = request_of(encode_request(OP_STATS))
    assert request.op == OP_STATS
    assert request.items == []


def test_empty_batch_round_trip():
    request = request_of(encode_request(OP_QUERY_BATCH, []))
    assert request.items == []


def test_answers_round_trip():
    answers = [True, False, True, True, False, False, True, False, True]
    response = response_of(encode_answers(answers))
    assert response.status == ST_OK
    assert response.answers == answers
    assert response_of(encode_answers([])).answers == []


@pytest.mark.parametrize("status", [ST_RATE_LIMITED, ST_INVALID, ST_ERROR])
def test_error_round_trip(status):
    response = response_of(encode_error(status, "client 'x' exceeded"))
    assert response.status == status
    assert response.message == "client 'x' exceeded"


def test_stats_round_trip():
    telemetry = ShardTelemetry(3)
    telemetry.inserts = 42
    telemetry.query_latency.record(0.001)
    snapshot = telemetry.snapshot(weight=17, fill_ratio=0.25)
    response = response_of(encode_stats([snapshot]))
    assert response.status == ST_OK
    assert response.stats == [
        {
            "shard_id": 3,
            "inserts": 42,
            "queries": 0,
            "positives": 0,
            "rotations": 0,
            "weight": 17,
            "fill_ratio": 0.25,
            "query_p50_us": snapshot.query_p50_us,
            "query_p99_us": snapshot.query_p99_us,
            "recent_positive_rate": 0.0,
            "rotations_suppressed": 0,
        }
    ]


def test_pack_bools_round_trip():
    for count in (0, 1, 7, 8, 9, 64, 100):
        values = [(i * 7) % 3 == 0 for i in range(count)]
        assert unpack_bools(pack_bools(values), count) == values
    with pytest.raises(ProtocolError):
        unpack_bools(b"\x01", 9)  # bitmap too short for the count


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------

def test_read_frame_round_trip_and_clean_eof():
    payload = encode_request(OP_QUERY_BATCH, ["x", "y"])
    frames = read_frames(encode_frame(payload) * 2, count=3)
    assert frames == [payload, payload, None]  # None = clean EOF at boundary


def test_truncated_header_raises():
    with pytest.raises(ProtocolError, match="mid-header"):
        read_one(b"\x00\x00")


def test_truncated_payload_raises():
    frame = encode_frame(b"payload-bytes")
    with pytest.raises(ProtocolError, match="truncated frame"):
        read_one(frame[:-4])


def test_zero_length_frame_raises():
    with pytest.raises(ProtocolError, match="zero-length"):
        read_one(b"\x00\x00\x00\x00")


def test_oversized_length_raises_before_allocating():
    # A hostile 4 GiB length must be rejected from the 4 header bytes
    # alone -- no attempt to read (or allocate) the body.
    with pytest.raises(ProtocolError, match="exceeds MAX_FRAME"):
        read_one(b"\xff\xff\xff\xff")


def test_encode_frame_bounds():
    with pytest.raises(ProtocolError):
        encode_frame(b"")
    with pytest.raises(ProtocolError):
        encode_frame(b"x" * (MAX_FRAME + 1))


# ----------------------------------------------------------------------
# Hostile payloads
# ----------------------------------------------------------------------

def test_garbage_payload_raises():
    with pytest.raises(ProtocolError):
        request_of(b"\xde\xad\xbe\xef" * 8)
    with pytest.raises(ProtocolError):
        response_of(b"\xde\xad\xbe\xef" * 8)


def test_unknown_opcode_and_status():
    with pytest.raises(ProtocolError, match="unknown opcode"):
        request_of(bytes([99]) + b"\x00\x00" + b"\x00\x00\x00\x00")
    with pytest.raises(ProtocolError, match="unknown status"):
        response_of(bytes([99]))


def test_item_count_larger_than_payload_rejected():
    # Claim 2^31 items in a tiny payload: must fail on the count check,
    # not loop allocating.
    payload = (
        bytes([OP_QUERY_BATCH]) + b"\x00\x00" + (0x80000000).to_bytes(4, "big")
    )
    with pytest.raises(ProtocolError, match="item count"):
        request_of(payload)


def test_payload_ending_inside_item_rejected():
    good = encode_request(OP_QUERY_BATCH, ["abcdefgh"])
    with pytest.raises(ProtocolError, match="ends inside"):
        request_of(good[:-3])


def test_trailing_bytes_rejected():
    good = encode_request(OP_QUERY_BATCH, ["abc"])
    with pytest.raises(ProtocolError, match="trailing"):
        request_of(good + b"\x00")
    with pytest.raises(ProtocolError, match="trailing"):
        response_of(encode_answers([True]) + b"junk")


def test_bad_item_flag_rejected():
    good = bytearray(encode_request(OP_QUERY_BATCH, ["abc"]))
    # The item flag byte sits after op + client length/bytes + count.
    flag_offset = 1 + 2 + len(b"anon") + 4
    good[flag_offset] = 7
    with pytest.raises(ProtocolError, match="item flag"):
        request_of(bytes(good))


def test_non_utf8_text_item_rejected():
    raw = bytearray(encode_request(OP_QUERY_BATCH, ["ab"]))
    raw[-1] = 0xFF  # corrupt the text item's bytes
    raw[-2] = 0xFE
    with pytest.raises(ProtocolError, match="not valid UTF-8"):
        request_of(bytes(raw))


def test_single_op_item_count_enforced():
    with pytest.raises(ProtocolError):
        encode_request(OP_INSERT, ["a", "b"])
    # Hand-build a single-op payload carrying two items.
    batch = encode_request(OP_INSERT_BATCH, ["a", "b"])
    forged = bytes([OP_INSERT]) + batch[1:]
    with pytest.raises(ProtocolError, match="exactly one item"):
        request_of(forged)


def test_stats_with_items_rejected():
    batch = encode_request(OP_QUERY_BATCH, ["a"])
    forged = bytes([OP_STATS]) + batch[1:]
    with pytest.raises(ProtocolError, match="no items"):
        request_of(forged)


def test_stats_response_garbage_json_rejected():
    forged = bytes([ST_OK, 0xFF]) + (4).to_bytes(4, "big") + b"nope"
    with pytest.raises(ProtocolError, match="JSON"):
        response_of(forged)
