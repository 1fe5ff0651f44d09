"""Tests for the binary wire codec (repro.net.codec).

Four layers of coverage:

- example round-trips for every message type, with realistic payloads
  (batch item lists, diff-run tuples, descriptors, error codes), and
  ``size_bytes() == len(encode_frame(m))`` for each;
- the no-fallback contract: values outside the vocabulary raise
  :class:`Unencodable`, at send time on the simulator too;
- hypothesis property tests over the codec's whole value vocabulary,
  pinning decode(encode(m)) == m and len(encode(m)) == encoded_size(m),
  plus a decoder fuzz where only :class:`FrameError` may escape;
- an end-to-end test that taps a live simulated cluster and checks
  every message actually sent encodes, sizes, and round-trips.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.addressing import AddressRange
from repro.core.attributes import ConsistencyLevel, RegionAttributes
from repro.core.locks import LockMode
from repro.core.region import RegionDescriptor
from repro.net import frame
from repro.net.clock import EventScheduler
from repro.net.codec import (
    MAX_DEPTH,
    WIRE_IDS,
    FrameError,
    Unencodable,
    decode,
    encode,
    encoded_size,
)
from repro.net.message import Message, MessageType
from repro.net.sim import SimNetwork

PAGE = 4096

#: A real descriptor in its wire form, as location and lifecycle
#: messages carry it.
DESCRIPTOR = RegionDescriptor(
    range=AddressRange(1 << 100, 8 * PAGE),
    attrs=RegionAttributes(consistency_level=ConsistencyLevel.RELEASE),
    home_nodes=(0, 2),
).to_wire()

#: One realistic payload per registered hot type.  Addresses are
#: 128-bit-scale ints on purpose: the varint encoding must survive
#: values far beyond any fixed-width field.
EXAMPLE_PAYLOADS = {
    MessageType.PAGE_FETCH: {"rid": 1 << 100, "page": (1 << 100) + PAGE},
    MessageType.PAGE_DATA: {"data": b"\x00\xffpage" * 512, "version": 7},
    MessageType.LOCK_REQUEST: {
        "rid": 123, "page": 456, "mode": "write", "requester": 2,
    },
    MessageType.LOCK_REPLY: {
        "granted": True, "sharers": [1, 2, 3], "version": 9,
    },
    MessageType.UPDATE_PUSH: {
        "rid": 5, "page": PAGE,
        "diff": [(0, b"abc"), (4000, b"\x01" * 96)],
        "release_token": False,
    },
    MessageType.UPDATE_ACK: {"applied": True},
    MessageType.INVALIDATE: {"rid": 5, "page": 0, "epoch": 3},
    MessageType.INVALIDATE_ACK: {"page": 0},
    MessageType.SHARER_REGISTER: {"rid": 5, "page": 0, "node": 3},
    MessageType.SHARER_UNREGISTER: {"rid": 5, "page": 0, "node": 3},
    MessageType.PAGE_FETCH_BATCH: {"rid": 5, "pages": [0, PAGE, 2 * PAGE]},
    MessageType.PAGE_DATA_BATCH: {
        "pages": [
            {"page": 0, "data": b"x" * PAGE, "version": 1},
            {"page": PAGE, "data": b"y" * PAGE, "version": 2},
        ],
    },
    MessageType.TOKEN_ACQUIRE_BATCH: {
        "rid": 5, "pages": [0, PAGE], "mode": "write", "requester": 2,
    },
    MessageType.TOKEN_GRANT_BATCH: {
        "granted": [0, PAGE], "denied": [], "sharers": {"0": [1], "4096": []},
    },
    MessageType.UPDATE_PUSH_BATCH: {
        "rid": 5,
        "updates": [
            {"page": 0, "data": b"x" * PAGE, "release_token": True},
            {"page": PAGE, "diff": [(16, b"hole")], "release_token": True},
        ],
    },
    MessageType.UPDATE_ACK_BATCH: {"applied": 2},
    MessageType.ERROR: {"code": "lock_denied", "detail": "busy"},
    MessageType.REGION_LOOKUP: {"address": (1 << 100) + PAGE},
    MessageType.REGION_LOOKUP_REPLY: {"descriptor": DESCRIPTOR},
    MessageType.CM_HINT_QUERY: {"address": 1 << 100},
    MessageType.CM_HINT_REPLY: {
        "descriptor": DESCRIPTOR, "nodes": [0, 2], "via": "local",
    },
    MessageType.CM_HINT_UPDATE: {"rid": 1 << 100, "node": 3},
    MessageType.SPACE_REQUEST: {"size": 1 << 30, "node": 1},
    MessageType.SPACE_GRANT: {"start": 1 << 64, "length": 1 << 30},
    MessageType.FREE_SPACE_REPORT: {"node": 1, "free": 1 << 29},
    MessageType.DESCRIPTOR_FETCH: {"rid": 1 << 100},
    MessageType.DESCRIPTOR_REPLY: {"descriptor": DESCRIPTOR},
    MessageType.DESCRIPTOR_UPDATE: {"descriptor": DESCRIPTOR},
    MessageType.REGION_UNRESERVE: {"rid": 1 << 100},
    MessageType.ALLOC_REQUEST: {
        "rid": 1 << 100, "start": 1 << 100, "length": 8 * PAGE,
    },
    MessageType.ALLOC_REPLY: {},
    MessageType.FREE_REQUEST: {"rid": 1 << 100, "start": 1 << 100,
                               "length": PAGE},
    MessageType.FREE_REPLY: {},
    MessageType.REPLICA_CREATE: {
        "descriptor": DESCRIPTOR,
        "pages": [{"page": 0, "data": b"r" * PAGE, "version": 3}],
    },
    MessageType.REPLICA_ACK: {},
    MessageType.REGION_MIGRATE: {"rid": 1 << 100, "new_primary": 2},
    MessageType.PING: {"seq": 12},
    MessageType.PONG: {},
    MessageType.RING_QUERY: {"address": 1 << 100},
    MessageType.RING_REPLY: {"descriptor": DESCRIPTOR, "found": True},
    MessageType.RING_PUBLISH: {"descriptor": DESCRIPTOR, "cacher": 3},
    MessageType.MEMBER_JOIN: {"node": 5},
    MessageType.MEMBER_WELCOME: {"members": [0, 1, 2, 5]},
    MessageType.MEMBER_UPDATE: {"joined": [5], "left": []},
    MessageType.APP_REQUEST: {"control": "snapshot"},
    MessageType.APP_REPLY: {
        # The cluster tool's snapshot reply: its page maps are the
        # int-keyed dicts the codec's tag 10 exists for.
        "snapshot": {
            "node": 0,
            "storage": {"memory": {"used": PAGE, "capacity": 64 * PAGE,
                                   "pages": {1 << 100: b"m" * PAGE}}},
        },
    },
}


#: A well-formed APP_REPLY header; fuzz bodies append garbage payloads.
HEADER = encode(Message(MessageType.APP_REPLY, src=1, dst=2, msg_id=1))[:-1]


def roundtrip(msg: Message) -> Message:
    wire = encode(msg)
    assert len(wire) == encoded_size(msg)
    assert len(frame.encode_frame(msg)) == msg.size_bytes()
    return decode(wire)


def assert_messages_equal(a: Message, b: Message) -> None:
    assert a.msg_type is b.msg_type
    assert (a.src, a.dst, a.msg_id) == (b.src, b.dst, b.msg_id)
    assert a.request_id == b.request_id
    assert a.reply_to == b.reply_to
    assert a.payload == b.payload
    # Container *types* survive too: diff runs must come back as
    # tuples, batch item lists as lists.
    def types_of(value):
        if isinstance(value, (list, tuple)):
            return (type(value), [types_of(v) for v in value])
        if isinstance(value, dict):
            return {k: types_of(v) for k, v in value.items()}
        return type(value)

    assert types_of(a.payload) == types_of(b.payload)


class TestExampleRoundTrips:
    def test_every_message_type_has_a_wire_id(self):
        assert set(WIRE_IDS) == set(MessageType)
        assert sorted(WIRE_IDS.values()) == list(
            range(1, len(MessageType) + 1)
        )

    @pytest.mark.parametrize(
        "msg_type", sorted(WIRE_IDS, key=lambda t: WIRE_IDS[t])
    )
    def test_every_registered_type_round_trips(self, msg_type):
        assert msg_type in EXAMPLE_PAYLOADS, (
            f"add an example payload for {msg_type} to EXAMPLE_PAYLOADS"
        )
        msg = Message(msg_type, src=1, dst=2,
                      payload=EXAMPLE_PAYLOADS[msg_type], request_id=42)
        assert_messages_equal(msg, roundtrip(msg))

    def test_error_reply_round_trips(self):
        request = Message(MessageType.PAGE_FETCH, src=1, dst=2,
                          payload={"rid": 9, "page": 0}, request_id=5)
        nak = request.error_reply("region_not_found", "gone")
        revived = roundtrip(nak)
        assert revived.reply_to == 5
        assert revived.payload == {"code": "region_not_found",
                                   "detail": "gone"}

    def test_optional_header_fields_survive(self):
        bare = Message(MessageType.PAGE_FETCH, src=0, dst=3,
                       payload={"page": 0})
        revived = roundtrip(bare)
        assert revived.request_id is None and revived.reply_to is None

    def test_bytearray_and_memoryview_decode_as_bytes(self):
        backing = bytearray(b"q" * 64)
        msg = Message(MessageType.PAGE_DATA, src=1, dst=2, payload={
            "a": backing, "b": memoryview(backing)[16:32],
        })
        revived = roundtrip(msg)
        assert revived.payload == {"a": b"q" * 64, "b": b"q" * 16}
        # ...and all three spellings are charged the same wire size.
        as_bytes = Message(MessageType.PAGE_DATA, src=1, dst=2, payload={
            "a": b"q" * 64, "b": b"q" * 16,
        }, msg_id=msg.msg_id)
        assert encoded_size(msg) == encoded_size(as_bytes)


class TestNoFallback:
    def test_cold_type_encodes(self):
        msg = Message(MessageType.REGION_LOOKUP, src=1, dst=2,
                      payload={"rid": 5})
        assert_messages_equal(msg, roundtrip(msg))
        assert msg.size_bytes() == frame.LENGTH_PREFIX.size + len(encode(msg))

    def test_unencodable_payload_raises(self):
        for value, reason in ((object(), "object"), (1 << 500, "wider")):
            msg = Message(MessageType.PAGE_DATA, src=1, dst=2,
                          payload={"descriptor": value})
            for measure in (encode, encoded_size, frame.encode_frame):
                with pytest.raises(Unencodable, match=reason):
                    measure(msg)
            with pytest.raises(Unencodable):
                msg.size_bytes()

    def test_int_keys_encode_other_keys_raise(self):
        int_keyed = Message(MessageType.APP_REPLY, src=1, dst=2,
                            payload={"pages": {-1: b"x", 1 << 100: b"y"}})
        assert roundtrip(int_keyed).payload == int_keyed.payload
        for bad in ({1: b"x"},                       # payload key
                    {"map": {1: b"x", "2": b"y"}},   # mixed keys
                    {"map": {True: b"x"}},           # bool is not int
                    {"map": {1.5: b"x"}}):
            msg = Message(MessageType.APP_REPLY, src=1, dst=2, payload=bad)
            with pytest.raises(Unencodable):
                encode(msg)
            with pytest.raises(Unencodable):
                encoded_size(msg)

    def test_str_keyed_frames_are_unchanged(self):
        """Pinned bodies: data-path wire ids and the str-keyed dict
        encoding must not move when the vocabulary grows."""
        grant = Message(
            MessageType.TOKEN_GRANT_BATCH, src=1, dst=2, reply_to=42,
            msg_id=7, payload={"granted": [0, PAGE], "denied": [],
                               "sharers": {"0": [1], "4096": []}},
        )
        push = Message(
            MessageType.UPDATE_PUSH_BATCH, src=3, dst=0, request_id=9,
            msg_id=8, payload={"rid": 5, "updates": [
                {"page": 0, "diff": [(16, b"hole")],
                 "release_token": True}]},
        )
        assert encode(grant).hex() == (
            "c50e01000000020000000700000000000000ffffffffffffffff2a00000000"
            "00000003076772616e746564070203000380400664656e6965640700077368"
            "6172657273090201300701030204343039360700"
        )
        assert encode(push).hex() == (
            "c50f030000000000000008000000000000000900000000000000ffffffffff"
            "ffffff0203726964030a0775706461746573070109030470616765030004"
            "646966660701080203200504686f6c650d72656c656173655f746f6b656e02"
        )

    def test_nesting_bound(self):
        def nested(depth):
            value = b"leaf"
            for _ in range(depth):
                value = [value]
            return Message(MessageType.APP_REPLY, src=1, dst=2,
                           payload={"v": value})

        deepest = nested(MAX_DEPTH)
        assert_messages_equal(deepest, roundtrip(deepest))
        with pytest.raises(Unencodable, match="nesting"):
            encode(nested(MAX_DEPTH + 1))
        with pytest.raises(Unencodable, match="nesting"):
            encoded_size(nested(MAX_DEPTH + 1))

    def test_unencodable_payload_raises_at_send_on_the_sim(self):
        network = SimNetwork(EventScheduler())
        network.attach(2, lambda msg: None)
        with pytest.raises(Unencodable):
            network.send(Message(MessageType.APP_REQUEST, src=1, dst=2,
                                 payload={"handle": object()}))
        assert network.stats.messages_sent == 0


class TestMalformedInput:
    def test_bad_magic_rejected(self):
        wire = encode(Message(MessageType.PAGE_FETCH, src=1, dst=2,
                              payload={"page": 0}))
        with pytest.raises(FrameError, match="magic"):
            decode(b"\x00" + wire[1:])

    def test_unknown_wire_id_rejected(self):
        wire = encode(Message(MessageType.PAGE_FETCH, src=1, dst=2,
                              payload={"page": 0}))
        with pytest.raises(FrameError, match="wire type"):
            decode(wire[:1] + b"\xfe" + wire[2:])

    def test_trailing_bytes_rejected(self):
        wire = encode(Message(MessageType.PAGE_FETCH, src=1, dst=2,
                              payload={"page": 0}))
        with pytest.raises(FrameError, match="ends at byte"):
            decode(wire + b"\x00")

    def test_frame_error_is_a_value_error(self):
        assert issubclass(FrameError, ValueError)
        assert frame.FrameError is FrameError

    @pytest.mark.parametrize("body", [
        b"",
        b"\xc5\x01",                       # shorter than the header
        HEADER + b"\x01\x01v" + b"\x07\x01" * 5000 + b"\x00",  # deep
        HEADER + b"\x01\x01v\x03" + b"\xff" * 100_000,           # varint
        HEADER + b"\x01\x01v\x05\x40ab",   # bytes run past the end
        HEADER + b"\x01\x01v\x06\x02\xff\xfe",  # invalid UTF-8
        HEADER + b"\x01\x01v\x0b",          # unknown value tag
    ], ids=["empty", "short", "deep", "varint", "overrun", "utf8", "tag"])
    def test_malformed_bodies_raise_frame_error(self, body):
        with pytest.raises(FrameError):
            frame.decode_body(body)


# --- property tests --------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 140), max_value=1 << 140),
    st.floats(allow_nan=False, allow_infinity=False),
    st.binary(max_size=64),
    st.text(max_size=32),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
        st.dictionaries(st.integers(min_value=-(1 << 130),
                                    max_value=1 << 130),
                        children, max_size=4),
    ),
    max_leaves=12,
)

payloads = st.dictionaries(st.text(max_size=12), values, max_size=5)

msg_types = st.sampled_from(sorted(WIRE_IDS, key=lambda t: WIRE_IDS[t]))

headers = st.tuples(
    st.integers(min_value=0, max_value=2 ** 31 - 1),     # src
    st.integers(min_value=0, max_value=2 ** 31 - 1),     # dst
    st.none() | st.integers(min_value=0, max_value=2 ** 62),  # request_id
    st.none() | st.integers(min_value=0, max_value=2 ** 62),  # reply_to
)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(msg_type=msg_types, payload=payloads, header=headers)
    def test_roundtrip_and_size_agree(self, msg_type, payload, header):
        src, dst, request_id, reply_to = header
        msg = Message(msg_type, src=src, dst=dst, payload=payload,
                      request_id=request_id, reply_to=reply_to)
        assert_messages_equal(msg, roundtrip(msg))

    @settings(max_examples=200, deadline=None)
    @given(payload=payloads)
    def test_size_bytes_reports_exact_codec_length(self, payload):
        msg = Message(MessageType.UPDATE_PUSH_BATCH, src=1, dst=2,
                      payload=payload)
        # The codec body plus the frame's length prefix.
        assert msg.size_bytes() == frame.LENGTH_PREFIX.size + len(encode(msg))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), msg_type=msg_types, payload=payloads)
    def test_truncated_and_mutated_bodies_raise_only_frame_error(
            self, data, msg_type, payload):
        wire = encode(Message(msg_type, src=1, dst=2, payload=payload))
        cut = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
        flips = data.draw(st.lists(
            st.tuples(st.integers(min_value=0, max_value=len(wire) - 1),
                      st.integers(min_value=0, max_value=255)),
            max_size=4,
        ))
        mutated = bytearray(wire)
        for index, byte in flips:
            mutated[index] = byte
        for body in (wire[:cut], bytes(mutated)):
            try:
                frame.decode_body(body)
            except FrameError:
                pass

    @settings(max_examples=300, deadline=None)
    @given(body=st.binary(max_size=200))
    def test_garbage_bodies_raise_only_frame_error(self, body):
        for candidate in (body, HEADER + body):
            try:
                frame.decode_body(candidate)
            except FrameError:
                pass


# --- end to end ------------------------------------------------------------

class TestLiveTraffic:
    def test_every_message_on_the_wire_round_trips(self, quiet_cluster):
        """Tap a live cluster: every message actually sent, of every
        type, must encode, size exactly as its frame, and survive a
        decode round-trip."""
        cluster = quiet_cluster
        seen = []
        cluster.network.tap(seen.append)

        owner = cluster.client(node=1)
        attrs = RegionAttributes(
            consistency_level=ConsistencyLevel.RELEASE
        )
        desc = owner.reserve(4 * PAGE, attrs)
        owner.allocate(desc.rid)
        # Write from a non-home node so the unlock pushes its updates
        # over the wire as an UPDATE_PUSH_BATCH.
        writer = cluster.client(node=2)
        ctx = writer.lock(desc.rid, 4 * PAGE, LockMode.WRITE)
        writer.write(ctx, desc.rid, b"w" * (4 * PAGE))
        writer.unlock(ctx)
        reader = cluster.client(node=3)
        assert reader.read_at(desc.rid, 4 * PAGE) == b"w" * (4 * PAGE)
        owner.free(desc.rid, 0, 4 * PAGE)
        owner.unreserve(desc.rid)
        cluster.run(1.0)   # background storage reclaim

        kinds = {m.msg_type for m in seen}
        assert MessageType.PAGE_FETCH_BATCH in kinds
        assert MessageType.UPDATE_PUSH_BATCH in kinds
        # Control-plane traffic crosses the same codec.
        assert {MessageType.SPACE_REQUEST, MessageType.CM_HINT_QUERY,
                MessageType.DESCRIPTOR_FETCH} <= kinds
        for msg in seen:
            wire = frame.encode_frame(msg)
            assert len(wire) == msg.size_bytes()
            revived = frame.decode_body(wire[frame.LENGTH_PREFIX.size:])
            assert revived.msg_type is msg.msg_type
            assert (revived.src, revived.dst) == (msg.src, msg.dst)
            assert revived.request_id == msg.request_id
            assert revived.reply_to == msg.reply_to
            # Live page data travels as zero-copy memoryviews and
            # decodes as bytes; == compares the underlying buffers.
            assert revived.payload == msg.payload
