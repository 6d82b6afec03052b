"""Zero-copy codec path: frame-encoder parity and hostile payloads.

The single-buffer ``*_frame`` encoders must emit byte-identical frames
to ``encode_frame(envelope + encode_*(...))``, decoding must accept zero-copy
memoryview input, and every malformed shape -- truncated length prefix,
oversized declared lengths, mid-frame EOF, trailing garbage -- must be
rejected with :class:`ProtocolError` before any allocation or partial
state.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.exceptions import ProtocolError
from repro.service.codec import (
    FRAME_V2,
    MAX_FRAME,
    OP_HANDOFF,
    OP_INSERT_BATCH,
    OP_QUERY,
    OP_QUERY_BATCH,
    OP_STATS,
    ST_ERROR,
    ST_NOT_OWNER,
    ST_OK,
    ST_PROTOCOL,
    ST_RATE_LIMITED,
    Redirect,
    Request,
    Response,
    decode_request_envelope,
    decode_response_envelope,
    encode_answers,
    encode_answers_frame,
    encode_error,
    encode_error_frame,
    encode_frame,
    encode_handoff_frame,
    encode_not_owner,
    encode_not_owner_frame,
    encode_request,
    encode_request_frame,
    encode_stats,
    encode_stats_frame,
    read_frame,
)
from repro.service.telemetry import ShardSnapshot


def enveloped(body: bytes, rid: int = 7) -> bytes:
    """A payload body behind the envelope (marker + correlation id)."""
    return bytes([FRAME_V2]) + rid.to_bytes(4, "big") + body


def request_of(body: bytes) -> Request:
    """Decode a request body through the enveloped decoder."""
    return decode_request_envelope(enveloped(body))[1]


def response_of(body: bytes) -> Response:
    """Decode a reply body through the enveloped decoder."""
    return decode_response_envelope(enveloped(body))[1]


def _snapshots() -> list[ShardSnapshot]:
    return [
        ShardSnapshot(
            shard_id=0,
            inserts=900,
            queries=40,
            positives=5,
            rotations=1,
            weight=800,
            fill_ratio=0.25,
            query_p50_us=12.5,
            query_p99_us=80.0,
        )
    ]


# ----------------------------------------------------------------------
# Frame-encoder parity with the two-step encode path
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "items,client",
    [
        (["a", b"b", "ünicode", b"\x00\xff" * 10], "client-1"),
        ([], "anon"),
        ([b"x" * 1000], ""),
    ],
)
def test_request_frame_parity(items, client):
    assert encode_request_frame(
        OP_INSERT_BATCH, items, client, request_id=7
    ) == encode_frame(enveloped(encode_request(OP_INSERT_BATCH, items, client)))


def test_single_op_frame_parity():
    assert encode_request_frame(OP_QUERY, ["only"], "c", request_id=7) == encode_frame(
        enveloped(encode_request(OP_QUERY, ["only"], "c"))
    )


@pytest.mark.parametrize("answers", [[True], [False] * 9, [True, False] * 50, []])
def test_answers_frame_parity(answers):
    # An empty answer list is a legal frame (count 0, no bitmap).
    assert encode_answers_frame(answers, request_id=7) == encode_frame(
        enveloped(encode_answers(answers))
    )


def test_error_frame_parity():
    message = "rate limited — back off"
    assert encode_error_frame(ST_RATE_LIMITED, message, request_id=7) == encode_frame(
        enveloped(encode_error(ST_RATE_LIMITED, message))
    )
    # The connection-level protocol error is the one id-less frame.
    assert encode_error_frame(ST_PROTOCOL, message) == encode_frame(
        encode_error(ST_PROTOCOL, message)
    )


def test_error_frame_truncates_long_messages_identically():
    message = "é" * 40_000  # 2 bytes each, over the u16 cap
    assert encode_error_frame(ST_ERROR, message, request_id=7) == encode_frame(
        enveloped(encode_error(ST_ERROR, message))
    )


def test_stats_frame_parity():
    assert encode_stats_frame(_snapshots(), request_id=7) == encode_frame(
        enveloped(encode_stats(_snapshots()))
    )


def test_frame_encoders_reject_bad_status_and_oversized():
    with pytest.raises(ProtocolError):
        encode_error_frame(ST_OK, "not an error status", request_id=1)
    with pytest.raises(ProtocolError):
        encode_request_frame(
            OP_INSERT_BATCH, [b"x" * (MAX_FRAME + 1)], "c", request_id=1
        )


def test_only_protocol_errors_travel_without_an_id():
    for status in (ST_RATE_LIMITED, ST_ERROR):
        with pytest.raises(ProtocolError, match="must answer a correlation id"):
            encode_error_frame(status, "needs an id")


# ----------------------------------------------------------------------
# Zero-copy decode: memoryview input end to end
# ----------------------------------------------------------------------

def test_decode_request_from_memoryview():
    frame = encode_request_frame(
        OP_INSERT_BATCH, ["t", b"\x01\x02"], "mv-client", request_id=3
    )
    rid, request = decode_request_envelope(memoryview(frame)[4:])
    assert rid == 3
    assert request.client == "mv-client"
    assert request.items == ["t", b"\x01\x02"]
    # Binary items must be real bytes (copied out of the view), so they
    # survive the frame buffer being released.
    assert all(type(i) in (str, bytes) for i in request.items)


def test_decode_response_from_memoryview():
    frame = encode_answers_frame([True, False, True], request_id=4)
    rid, response = decode_response_envelope(memoryview(frame)[4:])
    assert rid == 4 and response.status == ST_OK
    assert response.answers == [True, False, True]
    stats_frame = encode_stats_frame(_snapshots(), request_id=5)
    rid, response = decode_response_envelope(memoryview(stats_frame)[4:])
    assert rid == 5 and response.stats[0]["shard_id"] == 0


# ----------------------------------------------------------------------
# Hostile payloads
# ----------------------------------------------------------------------

def test_truncated_item_length_prefix_rejected():
    """Payload ends inside an item's 4-byte length prefix."""
    # A fat first item keeps the remaining payload large enough to pass
    # the up-front item-count plausibility guard; the cut then lands
    # inside the *second* item's length field.
    payload = encode_request(OP_INSERT_BATCH, [b"a" * 64, b"abcd"], "c")
    cut = payload[: -(4 + 2)]  # drop item bytes and half the u32 length
    with pytest.raises(ProtocolError, match="ends inside item length"):
        request_of(cut)


def test_oversized_declared_item_length_rejected():
    """An item declaring more bytes than the payload holds."""
    payload = bytearray(encode_request(OP_INSERT_BATCH, [b"abcd"], "c"))
    payload[-8:-4] = (2**31).to_bytes(4, "big")  # item length field
    with pytest.raises(ProtocolError, match="ends inside item bytes"):
        request_of(bytes(payload))


def test_oversized_declared_item_count_rejected_before_allocation():
    payload = bytearray(encode_request(OP_INSERT_BATCH, [b"abcd"], "c"))
    offset = 1 + 2 + 1  # opcode + client len + client "c"
    payload[offset : offset + 4] = (0xFFFFFFFF).to_bytes(4, "big")
    with pytest.raises(ProtocolError, match="item count"):
        request_of(bytes(payload))


def test_oversized_declared_client_length_rejected():
    payload = bytearray(encode_request(OP_STATS, [], "c"))
    payload[1:3] = (0xFFFF).to_bytes(2, "big")
    with pytest.raises(ProtocolError, match="ends inside client id"):
        request_of(bytes(payload))


def test_trailing_garbage_after_request_rejected():
    payload = encode_request(OP_INSERT_BATCH, [b"abcd"], "c") + b"\x00"
    with pytest.raises(ProtocolError, match="trailing"):
        request_of(payload)


def test_trailing_garbage_after_response_rejected():
    for payload in (
        encode_answers([True, False]) + b"junk",
        encode_error(ST_ERROR, "boom") + b"\x00",
        encode_stats(_snapshots()) + b" ",
    ):
        with pytest.raises(ProtocolError, match="trailing"):
            response_of(payload)


def test_answer_bitmap_short_read_rejected():
    payload = encode_answers([True] * 16)[:-1]
    with pytest.raises(ProtocolError, match="ends inside answer bitmap"):
        response_of(payload)


def test_stats_declared_length_overrun_rejected():
    payload = bytearray(encode_stats(_snapshots()))
    payload[2:6] = (len(payload) * 2).to_bytes(4, "big")
    with pytest.raises(ProtocolError, match="ends inside stats JSON"):
        response_of(bytes(payload))


# ----------------------------------------------------------------------
# Mid-frame EOF on the stream reader
# ----------------------------------------------------------------------

def _reader_with(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def test_eof_mid_length_prefix():
    async def run():
        with pytest.raises(ProtocolError, match="mid-header"):
            await read_frame(_reader_with(b"\x00\x00"))

    asyncio.run(run())


def test_eof_mid_payload():
    frame = encode_request_frame(OP_INSERT_BATCH, [b"abcdefgh"], "c", request_id=1)

    async def run():
        with pytest.raises(ProtocolError, match="truncated frame"):
            await read_frame(_reader_with(frame[: len(frame) - 3]))

    asyncio.run(run())


def test_declared_length_beyond_max_frame_rejected_before_read():
    async def run():
        huge = (MAX_FRAME + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="exceeds MAX_FRAME"):
            await read_frame(_reader_with(huge + b"x"))

    asyncio.run(run())


def test_clean_eof_between_frames_is_none():
    async def run():
        assert await read_frame(_reader_with(b"")) is None

    asyncio.run(run())


# ----------------------------------------------------------------------
# Envelopes: correlation ids on the wire
# ----------------------------------------------------------------------

def test_v2_request_round_trip_and_v1_parity():
    body = encode_request(OP_QUERY_BATCH, ["a", b"b"], "c")
    frame = encode_request_frame(OP_QUERY_BATCH, ["a", b"b"], "c", request_id=7)
    # The frame is the payload-form body behind a five-byte envelope.
    assert frame[9:] == body
    assert frame[4] == FRAME_V2
    rid, request = decode_request_envelope(memoryview(frame)[4:])
    assert rid == 7
    assert request.items == ["a", b"b"]


def test_v2_response_round_trip_all_shapes():
    for frame, check in [
        (encode_answers_frame([True, False], request_id=0xFFFFFFFF),
         lambda r: r.answers == [True, False]),
        (encode_error_frame(ST_RATE_LIMITED, "slow down", request_id=3),
         lambda r: r.message == "slow down"),
        (encode_stats_frame(_snapshots(), request_id=9),
         lambda r: r.stats[0]["shard_id"] == 0),
    ]:
        rid, response = decode_response_envelope(frame[4:])
        assert rid is not None and check(response)
    # The connection-level protocol error decodes with no id.
    rid, response = decode_response_envelope(
        encode_error_frame(ST_PROTOCOL, "bad frame")[4:]
    )
    assert rid is None and response.status == ST_PROTOCOL
    assert response.message == "bad frame"


def test_stats_frame_extra_entry_rides_without_shard_id():
    frame = encode_stats_frame(
        _snapshots(), extra={"server": {"connections": 2}}, request_id=1
    )
    _, response = decode_response_envelope(frame[4:])
    assert response.stats[-1] == {"server": {"connections": 2}}
    assert "shard_id" not in response.stats[-1]


def test_correlation_id_outside_u32_rejected():
    for bad in (-1, 1 << 32):
        with pytest.raises(ProtocolError, match="u32 range"):
            encode_request_frame(OP_QUERY, ["x"], "c", request_id=bad)


def test_truncated_v2_headers_rejected():
    full = encode_request_frame(OP_QUERY, ["x"], "c", request_id=42)[4:]
    # Cut inside the correlation id (marker + 0..3 id bytes).
    for keep in range(1, 5):
        with pytest.raises(ProtocolError, match="correlation id"):
            decode_request_envelope(full[:keep])
    reply = encode_answers_frame([True], request_id=42)[4:]
    for keep in range(1, 5):
        with pytest.raises(ProtocolError, match="correlation id"):
            decode_response_envelope(reply[:keep])


def test_envelope_with_empty_body_rejected():
    # A well-formed envelope whose body is missing entirely.
    with pytest.raises(ProtocolError, match="opcode"):
        decode_request_envelope(bytes([FRAME_V2]) + (5).to_bytes(4, "big"))
    with pytest.raises(ProtocolError, match="status"):
        decode_response_envelope(bytes([FRAME_V2]) + (5).to_bytes(4, "big"))


def test_id_less_payloads_rejected():
    # A request body without the envelope -- the shape an old client
    # would send -- is rejected, not served.
    with pytest.raises(ProtocolError, match="envelope marker"):
        decode_request_envelope(encode_request(OP_QUERY, ["x"], "c"))
    with pytest.raises(ProtocolError, match="envelope marker"):
        decode_request_envelope(b"")
    # Every id-less reply except the connection-level protocol error.
    for body in (
        encode_answers([True]),
        encode_error(ST_RATE_LIMITED, "slow down"),
        encode_stats(_snapshots()),
        encode_not_owner(3, 5, "beta"),
    ):
        with pytest.raises(ProtocolError, match="carries no correlation id"):
            decode_response_envelope(body)


def test_trailing_garbage_after_v2_payload_rejected():
    frame = encode_request_frame(OP_QUERY, ["x"], "c", request_id=5)
    with pytest.raises(ProtocolError, match="trailing"):
        decode_request_envelope(frame[4:] + b"\x00")


# ----------------------------------------------------------------------
# Cluster frames: handoff requests and not-owner redirects
# ----------------------------------------------------------------------

_BLOCK = b"RGSB-test-shard-block-bytes"
# v2 handoff payload layout with client "anon": envelope(5) + op(1) +
# client_len(2) + "anon"(4) + shard(4) = 16, then epoch(8), block_len(4).
_EPOCH_AT = 16
_BLOCK_LEN_AT = _EPOCH_AT + 8


def test_handoff_frame_round_trip_both_generations():
    frame = encode_handoff_frame(7, 3, _BLOCK, client="mover", request_id=11)
    rid, request = decode_request_envelope(frame[4:])
    assert rid == 11 and request.op == OP_HANDOFF
    assert (request.shard_id, request.epoch) == (7, 3)
    assert request.block == _BLOCK and request.items == []
    assert request.client == "mover"
    # Bytes-likes are accepted and normalised.
    assert encode_handoff_frame(7, 3, bytearray(_BLOCK), request_id=1) == (
        encode_handoff_frame(7, 3, _BLOCK, request_id=1)
    )


def test_handoff_frame_rejects_bad_fields_at_encode_time():
    with pytest.raises(ProtocolError, match="u32 range"):
        encode_handoff_frame(1 << 32, 1, _BLOCK, request_id=1)
    for epoch in (0, -1, 1 << 64):
        with pytest.raises(ProtocolError, match="positive u64"):
            encode_handoff_frame(0, epoch, _BLOCK, request_id=1)
    with pytest.raises(ProtocolError, match="empty shard block"):
        encode_handoff_frame(0, 1, b"", request_id=1)
    with pytest.raises(ProtocolError, match="must be bytes"):
        encode_handoff_frame(0, 1, "not-bytes", request_id=1)


def test_handoff_truncated_epoch_rejected():
    payload = encode_handoff_frame(2, 9, _BLOCK, request_id=1)[4:]
    for cut in range(_EPOCH_AT, _EPOCH_AT + 8):
        with pytest.raises(ProtocolError, match="handoff epoch"):
            decode_request_envelope(payload[:cut])


def test_handoff_zero_epoch_on_the_wire_rejected():
    # The encoder refuses epoch 0, so a replayed "no view" sentinel can
    # only arrive hand-crafted -- patch the epoch field to zeros.
    payload = bytearray(encode_handoff_frame(2, 9, _BLOCK, request_id=1)[4:])
    payload[_EPOCH_AT : _EPOCH_AT + 8] = bytes(8)
    with pytest.raises(ProtocolError, match="epoch must be positive"):
        decode_request_envelope(bytes(payload))


def test_handoff_block_length_overrun_rejected_before_allocation():
    payload = bytearray(encode_handoff_frame(2, 9, _BLOCK, request_id=1)[4:])
    payload[_BLOCK_LEN_AT : _BLOCK_LEN_AT + 4] = (0xFFFFFF).to_bytes(4, "big")
    with pytest.raises(ProtocolError, match="ends inside handoff shard block"):
        decode_request_envelope(bytes(payload))


def test_handoff_empty_block_on_the_wire_rejected():
    payload = bytearray(encode_handoff_frame(2, 9, _BLOCK, request_id=1)[4:])
    trimmed = payload[: _BLOCK_LEN_AT] + bytes(4)
    with pytest.raises(ProtocolError, match="empty shard block"):
        decode_request_envelope(bytes(trimmed))


def test_handoff_trailing_garbage_rejected():
    payload = encode_handoff_frame(2, 9, _BLOCK, request_id=1)[4:]
    with pytest.raises(ProtocolError, match="trailing"):
        decode_request_envelope(payload + b"\x00")


def test_not_owner_frame_round_trip_and_payload_parity():
    frame = encode_not_owner_frame(3, 5, "beta", request_id=2)
    rid, response = decode_response_envelope(frame[4:])
    assert rid == 2 and response.status == ST_NOT_OWNER
    assert response.redirect == Redirect(shard_id=3, epoch=5, owner="beta")
    assert response.answers is None and response.message is None
    # The frame's body matches the payload encoder byte for byte.
    assert frame == encode_frame(enveloped(encode_not_owner(3, 5, "beta"), 2))
    # Epoch 0 with no owner is the legal "no ownership view" sentinel.
    _, bare = decode_response_envelope(
        encode_not_owner_frame(3, 0, request_id=1)[4:]
    )
    assert bare.redirect == Redirect(shard_id=3, epoch=0, owner="")


def test_not_owner_truncated_owner_rejected():
    payload = encode_not_owner_frame(3, 5, "beta", request_id=2)[4:]
    with pytest.raises(ProtocolError, match="redirect owner"):
        decode_response_envelope(payload[:-2])
    # envelope(5) + status(1) + shard(4) puts the epoch at offset 10.
    with pytest.raises(ProtocolError, match="redirect epoch"):
        decode_response_envelope(payload[:14])


def test_error_encoders_reject_not_owner_status():
    # ST_NOT_OWNER carries a structured redirect, not a message: the
    # diagnostic encoders must refuse it rather than emit an ambiguous
    # body.
    with pytest.raises(ProtocolError, match="bad error status"):
        encode_error(ST_NOT_OWNER, "wrong shape")
    with pytest.raises(ProtocolError, match="bad error status"):
        encode_error_frame(ST_NOT_OWNER, "wrong shape", request_id=1)
