"""Unit tests for the message envelope and the error taxonomy."""

import pytest

from repro.core import errors
from repro.net import frame
from repro.net.message import Message, MessageType, REPLY_TYPES


class TestMessage:
    def test_unique_ids(self):
        a = Message(MessageType.PING, src=1, dst=2)
        b = Message(MessageType.PING, src=1, dst=2)
        assert a.msg_id != b.msg_id

    def test_reply_addresses_sender(self):
        request = Message(MessageType.LOCK_REQUEST, src=1, dst=2,
                          request_id=77)
        reply = request.reply(MessageType.LOCK_REPLY, {"x": 1})
        assert reply.src == 2 and reply.dst == 1
        assert reply.reply_to == 77
        assert reply.is_reply

    def test_error_reply_carries_code(self):
        request = Message(MessageType.PAGE_FETCH, src=1, dst=2,
                          request_id=5)
        nak = request.error_reply("lock_denied", "busy")
        assert nak.msg_type is MessageType.ERROR
        assert nak.payload == {"code": "lock_denied", "detail": "busy"}

    def test_size_accounts_for_bulk_data(self):
        small = Message(MessageType.PAGE_DATA, src=1, dst=2,
                        payload={"data": b""})
        big = Message(MessageType.PAGE_DATA, src=1, dst=2,
                      payload={"data": b"x" * 4096})
        # The 4 KiB of page data shows up byte-for-byte, plus at most
        # a few bytes of varint length growth.
        grown = big.size_bytes() - small.size_bytes()
        assert 4096 <= grown <= 4096 + 8
        assert small.size_bytes() > 0

    def test_size_handles_varied_payloads(self):
        msg = Message(
            MessageType.CM_HINT_REPLY, src=1, dst=2,
            payload={
                "nodes": [1, 2, 3],
                "descriptor": {"a": 1, "b": 2},
                "via": "local",
                "flag": True,
            },
        )
        assert msg.size_bytes() == len(frame.encode_frame(msg))

    def test_request_types_are_not_reply_types(self):
        assert MessageType.LOCK_REQUEST not in REPLY_TYPES
        assert MessageType.LOCK_REPLY in REPLY_TYPES
        assert MessageType.ERROR in REPLY_TYPES

    def test_repr_mentions_route(self):
        msg = Message(MessageType.PING, src=3, dst=9, request_id=4)
        assert "3->9" in repr(msg)


class TestErrorTaxonomy:
    def test_every_error_has_unique_code(self):
        codes = [cls.code for cls in errors.ERROR_CODES.values()]
        assert len(codes) == len(set(codes))

    def test_roundtrip_through_wire_code(self):
        original = errors.LockDenied("contention")
        revived = errors.error_from_code(original.code, "contention")
        assert isinstance(revived, errors.LockDenied)
        assert "contention" in str(revived)

    def test_unknown_code_degrades_to_base(self):
        revived = errors.error_from_code("martian", "detail")
        assert type(revived) is errors.KhazanaError

    def test_all_registered_are_khazana_errors(self):
        for cls in errors.ERROR_CODES.values():
            assert issubclass(cls, errors.KhazanaError)

    @pytest.mark.parametrize("cls", [
        errors.RegionNotFound,
        errors.NotAllocated,
        errors.AccessDenied,
        errors.KhazanaTimeout,
        errors.StorageExhausted,
    ])
    def test_detail_preserved(self, cls):
        err = cls("specific detail")
        assert err.detail == "specific detail"
        assert "specific detail" in str(err)
