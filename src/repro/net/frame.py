"""Length-prefixed message framing for stream transports.

One frame on the wire is::

    <u32 little-endian body length> <body>

where the body is the :mod:`repro.net.codec` encoding of the message.
:func:`frame_size` is the exact number of bytes that frame occupies,
and it is what ``Message.size_bytes`` reports on every backend, so
simulated traffic accounting equals bytes on a socket.
"""

from __future__ import annotations

import struct

from repro.net.codec import FrameError, decode, encode, encoded_size
from repro.net.message import Message

__all__ = [
    "FrameError",
    "LENGTH_PREFIX",
    "MAX_FRAME_BYTES",
    "decode_body",
    "encode_frame",
    "frame_size",
]

#: Frame length prefix: one unsigned 32-bit little-endian integer.
LENGTH_PREFIX = struct.Struct("<I")

#: Upper bound on one frame body; a prefix above this is treated as a
#: corrupt stream rather than an allocation request.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def encode_frame(message: Message) -> bytes:
    """One message as a complete frame (length prefix + body)."""
    body = encode(message)
    return LENGTH_PREFIX.pack(len(body)) + body


def decode_body(body: bytes) -> Message:
    """Inverse of the body part of :func:`encode_frame`; raises
    :class:`FrameError`, and only that, on a malformed body."""
    return decode(body)


def frame_size(message: Message) -> int:
    """Exact on-the-wire size of ``message`` as one stream frame."""
    return LENGTH_PREFIX.size + encoded_size(message)
