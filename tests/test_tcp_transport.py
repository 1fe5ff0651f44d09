"""Tests for the real-socket transport (repro.net.tcp / repro.net.frame).

Everything here runs over genuine localhost sockets: two transports
share one loop and one address book, so frames between them cross the
kernel.  Covered contracts:

- exact size accounting — ``Message.size_bytes()`` equals the bytes
  that actually hit the socket, for every message type, and does not
  depend on whether a transport is alive;
- malformed frames — a peer sending garbage loses its own connection
  and nothing else;
- RPC timeout/retry — a request into a dead port retransmits per its
  :class:`~repro.net.rpc.RetryPolicy` and then fails with
  :class:`~repro.net.rpc.RpcTimeout`, exactly as over the simulator;
- detach semantics — sends to a dead peer drop silently (counted,
  never raised), and ``RpcEndpoint.shutdown`` fails every in-flight
  request cleanly.
"""

from __future__ import annotations

import pytest

import asyncio

from repro.net import frame
from repro.net.aio import AsyncioRuntime
from repro.net.message import Message, MessageType
from repro.net.rpc import RetryPolicy, RpcEndpoint, RpcTimeout
from repro.net.tasks import Future
from repro.net.tcp import TcpTransport


@pytest.fixture()
def loopback():
    """Two transports (nodes 1 and 2) on one loop and shared book."""
    runtime = AsyncioRuntime()
    book = {}
    t1 = TcpTransport(book, runtime.loop)
    t2 = TcpTransport(book, runtime.loop)
    runtime.loop.run_until_complete(t1.listen(1))
    runtime.loop.run_until_complete(t2.listen(2))
    try:
        yield runtime, book, t1, t2
    finally:
        runtime.loop.run_until_complete(t1.aclose())
        runtime.loop.run_until_complete(t2.aclose())
        runtime.close()


def _drain_until(runtime: AsyncioRuntime, predicate, timeout: float = 5.0):
    """Run the loop until ``predicate()`` is true (or fail the test)."""
    fence = Future(label="fence")

    def poll() -> None:
        if predicate():
            fence.set_result(None)
        else:
            runtime.call_later(0.005, poll, label="poll")

    poll()
    runtime.run_future(fence, timeout=timeout)


class TestFrameRoundtrip:
    def test_hot_and_cold_types_cross_the_socket(self, loopback):
        runtime, _book, t1, t2 = loopback
        received = []
        t2.attach(2, received.append)

        hot = Message(MessageType.PAGE_DATA, src=1, dst=2,
                      payload={"address": 0x1000, "data": b"p" * 256})
        cold = Message(MessageType.APP_REPLY, src=1, dst=2,
                       payload={"snapshot": {"nested": [1, 2, 3]}},
                       reply_to=7)
        t1.send(hot)
        t1.send(cold)
        _drain_until(runtime, lambda: len(received) == 2)

        got_hot, got_cold = received
        assert got_hot.msg_type is MessageType.PAGE_DATA
        assert bytes(got_hot.payload["data"]) == b"p" * 256
        assert got_cold.msg_type is MessageType.APP_REPLY
        assert got_cold.payload == {"snapshot": {"nested": [1, 2, 3]}}
        assert got_cold.reply_to == 7

    def test_memoryview_payloads_survive_pickling(self, loopback):
        runtime, _book, t1, t2 = loopback
        received = []
        t2.attach(2, received.append)
        # Zero-copy reads hand out memoryviews; a control-plane frame
        # carries them as bytes, exactly as a data-path frame does.
        msg = Message(MessageType.APP_REPLY, src=1, dst=2,
                      payload={"data": memoryview(b"z" * 64)})
        t1.send(msg)
        _drain_until(runtime, lambda: received)
        assert bytes(received[0].payload["data"]) == b"z" * 64


class TestExactSizes:
    def test_reported_size_equals_bytes_on_the_wire(self, loopback):
        runtime, _book, t1, t2 = loopback
        received = []
        t2.attach(2, received.append)

        messages = [
            Message(MessageType.PAGE_DATA, src=1, dst=2,
                    payload={"address": 0x2000, "data": b"q" * 512}),
            Message(MessageType.APP_REPLY, src=1, dst=2,
                    payload={"snapshot": {"k": list(range(40))}},
                    reply_to=3),
        ]
        before = t1.stats.bytes_sent
        for msg in messages:
            assert msg.size_bytes() == len(frame.encode_frame(msg))
            t1.send(msg)
        _drain_until(runtime, lambda: len(received) == 2)

        tap_measured = t1.stats.bytes_sent - before
        reported = sum(msg.size_bytes() for msg in messages)
        assert tap_measured == reported

    def test_size_is_the_same_before_during_and_after_a_transport(self):
        msg = Message(MessageType.APP_REPLY, src=1, dst=2,
                      payload={"snapshot": {"k": list(range(200))}})
        before = msg.size_bytes()
        runtime = AsyncioRuntime()
        transport = TcpTransport({}, runtime.loop)
        try:
            runtime.loop.run_until_complete(transport.listen(1))
            during = msg.size_bytes()
        finally:
            runtime.loop.run_until_complete(transport.aclose())
            runtime.close()
        after = msg.size_bytes()
        assert before == during == after == len(frame.encode_frame(msg))


#: Bodies a hostile or broken peer might send, each one a different way
#: for decoding to fail (see test_net_codec.py for the full fuzz).
_HEADER = frame.encode_frame(
    Message(MessageType.APP_REQUEST, src=9, dst=2, msg_id=1)
)[frame.LENGTH_PREFIX.size:-1]
MALFORMED_BODIES = {
    "garbage": b"\x00not a khazana frame",
    "short": b"\xc5\x01\x02",
    "deep": _HEADER + b"\x01\x01v" + b"\x07\x01" * 3000 + b"\x00",
}


class TestMalformedFrames:
    @pytest.mark.parametrize("kind", sorted(MALFORMED_BODIES))
    def test_bad_frame_closes_only_its_connection(self, loopback, kind):
        runtime, book, t1, t2 = loopback
        received = []
        t2.attach(2, received.append)
        body = MALFORMED_BODIES[kind]

        async def send_raw() -> bytes:
            reader, writer = await asyncio.open_connection(*book[2])
            writer.write(frame.LENGTH_PREFIX.pack(len(body)) + body)
            await writer.drain()
            # The server drops this connection: EOF, not a reply.
            leftover = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            return leftover

        assert runtime.loop.run_until_complete(send_raw()) == b""
        # A well-formed peer on its own connection is unaffected.
        t1.send(Message(MessageType.APP_REQUEST, src=1, dst=2,
                        payload={"n": 1}))
        _drain_until(runtime, lambda: received)
        assert received[0].payload == {"n": 1}
        assert t2.stats.messages_delivered == 1

    def test_oversized_length_prefix_closes_the_connection(self, loopback):
        runtime, book, _t1, _t2 = loopback

        async def send_prefix() -> bytes:
            reader, writer = await asyncio.open_connection(*book[2])
            writer.write(frame.LENGTH_PREFIX.pack(frame.MAX_FRAME_BYTES + 1))
            await writer.drain()
            leftover = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            return leftover

        assert runtime.loop.run_until_complete(send_prefix()) == b""


class TestRpcOverTcp:
    def test_request_reply_roundtrip(self, loopback):
        runtime, _book, t1, t2 = loopback
        a = RpcEndpoint(1, t1, runtime)
        b = RpcEndpoint(2, t2, runtime)
        b.on(MessageType.APP_REQUEST,
             lambda msg: b.reply(msg, MessageType.APP_REPLY,
                                 {"echo": msg.payload["n"]}))
        reply = runtime.run_future(
            a.request(2, MessageType.APP_REQUEST, {"n": 17}),
            timeout=5.0,
        )
        assert reply.payload["echo"] == 17

    def test_timeout_and_retry_against_a_dead_port(self, loopback):
        runtime, book, t1, _t2 = loopback
        # Node 9 has a book entry but nothing listening there.
        book[9] = ("127.0.0.1", 1)
        a = RpcEndpoint(1, t1, runtime)
        policy = RetryPolicy(timeout=0.05, retries=1)
        with pytest.raises(RpcTimeout) as exc:
            runtime.run_future(
                a.request(9, MessageType.APP_REQUEST, {}, policy=policy),
                timeout=10.0,
            )
        # First send plus one retransmission, then the failure.
        assert exc.value.attempts == 2

    def test_send_to_dead_peer_drops_silently(self, loopback):
        runtime, book, t1, _t2 = loopback
        book[9] = ("127.0.0.1", 1)
        before = t1.stats.messages_dropped
        t1.send(Message(MessageType.APP_REQUEST, src=1, dst=9))
        _drain_until(runtime,
                     lambda: t1.stats.messages_dropped == before + 1)

    def test_send_to_unknown_node_drops_immediately(self, loopback):
        _runtime, _book, t1, _t2 = loopback
        before = t1.stats.messages_dropped
        t1.send(Message(MessageType.APP_REQUEST, src=1, dst=99))
        assert t1.stats.messages_dropped == before + 1

    def test_shutdown_fails_in_flight_requests(self, loopback):
        runtime, _book, t1, t2 = loopback
        a = RpcEndpoint(1, t1, runtime)
        b = RpcEndpoint(2, t2, runtime)
        b.on(MessageType.APP_REQUEST, lambda msg: None)   # never replies
        future = a.request(2, MessageType.APP_REQUEST, {},
                           policy=RetryPolicy(timeout=10.0, retries=0))
        runtime.call_later(0.05, a.shutdown, label="detach")
        with pytest.raises(RpcTimeout):
            runtime.run_future(future, timeout=5.0)

    def test_detached_node_stops_receiving(self, loopback):
        runtime, _book, t1, t2 = loopback
        received = []
        t2.attach(2, received.append)
        t2.detach(2)
        before_delivered = t2.stats.messages_delivered
        t1.send(Message(MessageType.APP_REQUEST, src=1, dst=2))
        # The frame either fails to connect (server closed) or arrives
        # with no handler attached; both count as a drop, not a crash.
        _drain_until(
            runtime,
            lambda: (t1.stats.messages_dropped
                     + t2.stats.messages_dropped) >= 1,
        )
        assert t2.stats.messages_delivered == before_delivered
        assert received == []
