"""Struct-packed binary wire codec: the one encoding of every message.

Every :class:`~repro.net.message.MessageType` travels as a fixed
little-endian header plus a tagged, varint-delimited payload.  The
length-prefixed stream frame (:mod:`repro.net.frame`) wraps exactly
this body, and ``Message.size_bytes`` is that frame's length, on the
simulator and over TCP alike.

Wire layout (documented for docs/performance.md):

``header``
    ``<BBiiqqq``: magic ``0xC5``, type id, src, dst, msg_id,
    request_id, reply_to (``-1`` encodes ``None``).

``payload``
    varint field count, then per field: varint-length key (UTF-8) and
    a tagged value.  Tags: ``0`` None, ``1`` False, ``2`` True,
    ``3`` int (zigzag varint, arbitrary precision up to
    :data:`MAX_INT_BITS` — global addresses are 128-bit), ``4`` float
    (8-byte IEEE double), ``5`` bytes (varint length + raw;
    ``bytearray``/``memoryview`` payloads encode identically and
    decode as ``bytes``), ``6`` str (varint length + UTF-8), ``7``
    list and ``8`` tuple (varint count + items — the distinction
    matters: diff runs are tuples, batch items are lists), ``9`` dict
    with str keys (varint count + varint-length UTF-8 key/value
    pairs), ``10`` dict with int keys (varint count + zigzag-varint
    key/value pairs).  An empty dict is tag ``9``.

There is no fallback: a payload value outside that vocabulary (an
arbitrary object, a dict mixing key types, nesting deeper than
:data:`MAX_DEPTH`) raises :class:`Unencodable` when the message is
sized or encoded — that is, at send time on either backend.  Malformed
input raises :class:`FrameError` and nothing else.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple

from repro.net.message import Message, MessageType

_MAGIC = 0xC5

_HEADER = struct.Struct("<BBiiqqq")
_DOUBLE = struct.Struct("<d")

#: Deepest container nesting below the payload dict that encodes.
#: Bounds the decoder's recursion on hostile input.
MAX_DEPTH = 32

#: Widest zigzagged int that encodes.  Bounds varint decoding work.
MAX_INT_BITS = 448

#: The data-path types keep the wire ids 1-17 they were first given,
#: so their frames stay byte-identical; the rest follow in enum order.
_DATA_PATH_TYPES = (
    MessageType.PAGE_FETCH,
    MessageType.PAGE_DATA,
    MessageType.LOCK_REQUEST,
    MessageType.LOCK_REPLY,
    MessageType.UPDATE_PUSH,
    MessageType.UPDATE_ACK,
    MessageType.INVALIDATE,
    MessageType.INVALIDATE_ACK,
    MessageType.SHARER_REGISTER,
    MessageType.SHARER_UNREGISTER,
    MessageType.PAGE_FETCH_BATCH,
    MessageType.PAGE_DATA_BATCH,
    MessageType.TOKEN_ACQUIRE_BATCH,
    MessageType.TOKEN_GRANT_BATCH,
    MessageType.UPDATE_PUSH_BATCH,
    MessageType.UPDATE_ACK_BATCH,
    MessageType.ERROR,
)

#: Wire id of every message type, derived from the enum so none is
#: missing.  Both ends of a connection must run the same vocabulary.
WIRE_IDS: Dict[MessageType, int] = {
    msg_type: wire_id for wire_id, msg_type in enumerate(
        _DATA_PATH_TYPES
        + tuple(t for t in MessageType if t not in _DATA_PATH_TYPES),
        start=1,
    )
}

_TYPE_BY_ID: Dict[int, MessageType] = {
    wire_id: msg_type for msg_type, wire_id in WIRE_IDS.items()
}

# Value tags.
_T_NONE = 0
_T_FALSE = 1
_T_TRUE = 2
_T_INT = 3
_T_FLOAT = 4
_T_BYTES = 5
_T_STR = 6
_T_LIST = 7
_T_TUPLE = 8
_T_DICT = 9
_T_INT_DICT = 10


class Unencodable(TypeError):
    """A payload value lies outside the wire vocabulary."""


class FrameError(ValueError):
    """A frame body is malformed: truncated, garbage or too deep."""


# --- varints ---------------------------------------------------------------

def _write_varint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _varint_size(value: int) -> int:
    size = 1
    value >>= 7
    while value:
        size += 1
        value >>= 7
    return size


def _read_varint(data: memoryview, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift >= MAX_INT_BITS:
            # Bounded so a garbage run of continuation bytes costs
            # linear time, not a quadratic bignum build.
            raise FrameError("varint longer than the int bound")


def _zigzag(value: int) -> int:
    raw = (value << 1) ^ (value >> (value.bit_length() + 1)) if value < 0 \
        else value << 1
    if raw >> MAX_INT_BITS:
        raise Unencodable(f"int wider than {MAX_INT_BITS} bits")
    return raw


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


# --- value encoding --------------------------------------------------------

def _key_type(mapping: Dict[Any, Any]) -> type:
    """The key type a dict encodes with: its first key's (str for the
    empty dict).  Every other key must match it."""
    for key in mapping:
        key_type = type(key)
        if key_type is not str and key_type is not int:
            raise Unencodable(f"dict key of type {key_type.__name__}")
        return key_type
    return str


def _mixed_key(key: Any) -> Unencodable:
    return Unencodable(f"dict mixes key types at {key!r}")


def _encode_value(out: bytearray, value: Any, depth: int = 0) -> None:
    if value is None:
        out.append(_T_NONE)
    elif value is False:
        out.append(_T_FALSE)
    elif value is True:
        out.append(_T_TRUE)
    elif type(value) is int:
        out.append(_T_INT)
        _write_varint(out, _zigzag(value))
    elif type(value) is float:
        out.append(_T_FLOAT)
        out += _DOUBLE.pack(value)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        out.append(_T_BYTES)
        _write_varint(out, len(value))
        out += value
    elif type(value) is str:
        raw = value.encode("utf-8")
        out.append(_T_STR)
        _write_varint(out, len(raw))
        out += raw
    elif depth >= MAX_DEPTH:
        raise Unencodable(f"nesting deeper than {MAX_DEPTH}")
    elif type(value) is list or type(value) is tuple:
        out.append(_T_LIST if type(value) is list else _T_TUPLE)
        _write_varint(out, len(value))
        for item in value:
            _encode_value(out, item, depth + 1)
    elif type(value) is dict:
        key_type = _key_type(value)
        out.append(_T_DICT if key_type is str else _T_INT_DICT)
        _write_varint(out, len(value))
        for key, item in value.items():
            if type(key) is not key_type:
                raise _mixed_key(key)
            if key_type is str:
                raw = key.encode("utf-8")
                _write_varint(out, len(raw))
                out += raw
            else:
                _write_varint(out, _zigzag(key))
            _encode_value(out, item, depth + 1)
    else:
        raise Unencodable(f"value of type {type(value).__name__}")


def _value_size(value: Any, depth: int = 0) -> int:
    """Exact encoded size of one value, without building the bytes.

    Mirrors :func:`_encode_value` case by case; the codec property
    tests pin ``len(encode(msg)) == encoded_size(msg)``.
    """
    if value is None or value is False or value is True:
        return 1
    if type(value) is int:
        return 1 + _varint_size(_zigzag(value))
    if type(value) is float:
        return 9
    if isinstance(value, (bytes, bytearray, memoryview)):
        n = len(value)
        return 1 + _varint_size(n) + n
    if type(value) is str:
        n = len(value.encode("utf-8"))
        return 1 + _varint_size(n) + n
    if depth >= MAX_DEPTH:
        raise Unencodable(f"nesting deeper than {MAX_DEPTH}")
    if type(value) is list or type(value) is tuple:
        size = 1 + _varint_size(len(value))
        for item in value:
            size += _value_size(item, depth + 1)
        return size
    if type(value) is dict:
        key_type = _key_type(value)
        size = 1 + _varint_size(len(value))
        for key, item in value.items():
            if type(key) is not key_type:
                raise _mixed_key(key)
            if key_type is str:
                n = len(key.encode("utf-8"))
                size += _varint_size(n) + n
            else:
                size += _varint_size(_zigzag(key))
            size += _value_size(item, depth + 1)
        return size
    raise Unencodable(f"value of type {type(value).__name__}")


def _decode_value(data: memoryview, pos: int,
                  depth: int = 0) -> Tuple[Any, int]:
    tag = data[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_INT:
        raw, pos = _read_varint(data, pos)
        return _unzigzag(raw), pos
    if tag == _T_FLOAT:
        return _DOUBLE.unpack_from(data, pos)[0], pos + 8
    if tag == _T_BYTES:
        n, pos = _read_varint(data, pos)
        return bytes(data[pos : pos + n]), pos + n
    if tag == _T_STR:
        n, pos = _read_varint(data, pos)
        return str(data[pos : pos + n], "utf-8"), pos + n
    if tag > _T_INT_DICT:
        raise FrameError(f"unknown value tag {tag}")
    if depth >= MAX_DEPTH:
        raise FrameError(f"nesting deeper than {MAX_DEPTH}")
    count, pos = _read_varint(data, pos)
    if tag == _T_LIST or tag == _T_TUPLE:
        items: List[Any] = []
        for _ in range(count):
            item, pos = _decode_value(data, pos, depth + 1)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), pos
    mapping: Dict[Any, Any] = {}
    for _ in range(count):
        if tag == _T_DICT:
            n, pos = _read_varint(data, pos)
            key: Any = str(data[pos : pos + n], "utf-8")
            pos += n
        else:
            raw, pos = _read_varint(data, pos)
            key = _unzigzag(raw)
        mapping[key], pos = _decode_value(data, pos, depth + 1)
    return mapping, pos


# --- message encoding ------------------------------------------------------

def encode(message: Message) -> bytes:
    """Binary encoding of ``message``; raises :class:`Unencodable` if
    its payload holds a value outside the wire vocabulary."""
    out = bytearray(
        _HEADER.pack(
            _MAGIC,
            WIRE_IDS[message.msg_type],
            message.src,
            message.dst,
            message.msg_id,
            -1 if message.request_id is None else message.request_id,
            -1 if message.reply_to is None else message.reply_to,
        )
    )
    payload = message.payload
    _write_varint(out, len(payload))
    for key, value in payload.items():
        if type(key) is not str:
            raise Unencodable(f"payload key {key!r} is not a str")
        raw = key.encode("utf-8")
        _write_varint(out, len(raw))
        out += raw
        _encode_value(out, value)
    return bytes(out)


def decode(data: bytes) -> Message:
    """Inverse of :func:`encode`; raises :class:`FrameError`, and only
    that, on malformed input."""
    try:
        return _decode(memoryview(data))
    except FrameError:
        raise
    except (IndexError, struct.error, UnicodeDecodeError) as exc:
        # Reads past the end surface as IndexError/struct.error.
        raise FrameError(f"truncated or garbled body: {exc}") from exc


def _decode(view: memoryview) -> Message:
    magic, wire_id, src, dst, msg_id, request_id, reply_to = (
        _HEADER.unpack_from(view, 0)
    )
    if magic != _MAGIC:
        raise FrameError(f"bad magic byte {magic:#x}")
    msg_type = _TYPE_BY_ID.get(wire_id)
    if msg_type is None:
        raise FrameError(f"unknown wire type id {wire_id}")
    pos = _HEADER.size
    count, pos = _read_varint(view, pos)
    payload: Dict[str, Any] = {}
    for _ in range(count):
        n, pos = _read_varint(view, pos)
        key = str(view[pos : pos + n], "utf-8")
        pos += n
        payload[key], pos = _decode_value(view, pos)
    if pos != len(view):
        # Slices past the end come back short, so an overrun shows
        # here as pos > len rather than as an IndexError.
        raise FrameError(
            f"payload ends at byte {pos} of a {len(view)}-byte body"
        )
    return Message(
        msg_type=msg_type,
        src=src,
        dst=dst,
        payload=payload,
        request_id=None if request_id == -1 else request_id,
        reply_to=None if reply_to == -1 else reply_to,
        msg_id=msg_id,
    )


def encoded_size(message: Message) -> int:
    """Exact body size of ``message`` without encoding it.

    The simulated network sizes *every* send, so this is arithmetic
    over the payload rather than a throwaway encode; the property
    tests hold it bit-for-bit equal to ``len(encode(msg))``.  Raises
    :class:`Unencodable` exactly when ``encode`` would.
    """
    payload = message.payload
    size = _HEADER.size + _varint_size(len(payload))
    for key, value in payload.items():
        if type(key) is not str:
            raise Unencodable(f"payload key {key!r} is not a str")
        n = len(key.encode("utf-8"))
        size += _varint_size(n) + n + _value_size(value)
    return size
