"""Message vocabulary for inter-daemon protocols.

All Khazana inter-node traffic — location lookups, address-space
grants, lock credential requests, page fetches, invalidations, update
propagation, and failure-detection pings — is carried by
:class:`Message` envelopes.  The vocabulary below covers every protocol
described in Section 3 of the paper.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

_message_counter = itertools.count(1)


class MessageType(str, enum.Enum):
    """Every inter-daemon message kind used by Khazana protocols."""

    # --- Location management (paper Section 3.2) ---
    REGION_LOOKUP = "region_lookup"          # ask a node for a region descriptor
    REGION_LOOKUP_REPLY = "region_lookup_reply"
    CM_HINT_QUERY = "cm_hint_query"          # ask cluster manager: cached nearby?
    CM_HINT_REPLY = "cm_hint_reply"
    CM_HINT_UPDATE = "cm_hint_update"        # node -> cluster manager hint refresh

    # --- Address space management (paper Section 3.1) ---
    SPACE_REQUEST = "space_request"          # daemon -> cluster manager: chunk grant
    SPACE_GRANT = "space_grant"
    FREE_SPACE_REPORT = "free_space_report"  # daemon -> cluster manager hints

    # --- Region lifecycle ---
    DESCRIPTOR_FETCH = "descriptor_fetch"    # fetch region descriptor from home
    DESCRIPTOR_REPLY = "descriptor_reply"
    DESCRIPTOR_UPDATE = "descriptor_update"  # set-attributes propagation
    REGION_UNRESERVE = "region_unreserve"    # tell home a region is going away
    ALLOC_REQUEST = "alloc_request"          # allocate backing store at a node
    ALLOC_REPLY = "alloc_reply"
    FREE_REQUEST = "free_request"            # release backing store
    FREE_REPLY = "free_reply"

    # --- Consistency protocols (paper Section 3.3, Figure 2) ---
    LOCK_REQUEST = "lock_request"            # CM -> peer CM: credentials to grant
    LOCK_REPLY = "lock_reply"
    PAGE_FETCH = "page_fetch"                # fetch a copy of a page
    PAGE_DATA = "page_data"
    INVALIDATE = "invalidate"                # CREW: revoke cached copies
    INVALIDATE_ACK = "invalidate_ack"
    UPDATE_PUSH = "update_push"              # release/eventual: propagate writes
    UPDATE_ACK = "update_ack"
    SHARER_REGISTER = "sharer_register"      # tell home node we cache a page
    SHARER_UNREGISTER = "sharer_unregister"  # eviction notice (may retry in bg)

    # --- Batched multi-page protocol operations.  One envelope carries
    # a list of pages bound for the same home node, collapsing the
    # per-page round-trips of a multi-page lock/unlock cycle into one
    # RPC per (home node, message kind).
    PAGE_FETCH_BATCH = "page_fetch_batch"    # fetch many read copies at once
    PAGE_DATA_BATCH = "page_data_batch"
    TOKEN_ACQUIRE_BATCH = "token_acquire_batch"  # many write grants at once
    TOKEN_GRANT_BATCH = "token_grant_batch"
    UPDATE_PUSH_BATCH = "update_push_batch"  # coalesced write-back at unlock
    UPDATE_ACK_BATCH = "update_ack_batch"

    # --- Replication & failure handling (paper Section 3.5) ---
    REPLICA_CREATE = "replica_create"        # push a replica for min-copies
    REPLICA_ACK = "replica_ack"
    REGION_MIGRATE = "region_migrate"        # move a region's primary home
    PING = "ping"
    PONG = "pong"

    # --- Hash-ring placement & membership (repro/core/placement) ---
    RING_QUERY = "ring_query"                # ask a bucket director for a descriptor
    RING_REPLY = "ring_reply"
    RING_PUBLISH = "ring_publish"            # home/cacher -> director record
    MEMBER_JOIN = "member_join"              # newcomer -> any member
    MEMBER_WELCOME = "member_welcome"        # member list back to the newcomer
    MEMBER_UPDATE = "member_update"          # gossip a join/leave delta

    # --- Application-level veneer traffic (e.g. the Section 4.2
    # object runtime's remote method invocations) ---
    APP_REQUEST = "app_request"
    APP_REPLY = "app_reply"

    # --- Generic ---
    ERROR = "error"                          # NAK carrying an error code


# Messages that answer a prior request; used by the RPC layer to match
# responses, and by the stats layer to classify traffic.
REPLY_TYPES = frozenset(
    {
        MessageType.REGION_LOOKUP_REPLY,
        MessageType.CM_HINT_REPLY,
        MessageType.SPACE_GRANT,
        MessageType.DESCRIPTOR_REPLY,
        MessageType.ALLOC_REPLY,
        MessageType.FREE_REPLY,
        MessageType.LOCK_REPLY,
        MessageType.PAGE_DATA,
        MessageType.INVALIDATE_ACK,
        MessageType.UPDATE_ACK,
        MessageType.PAGE_DATA_BATCH,
        MessageType.TOKEN_GRANT_BATCH,
        MessageType.UPDATE_ACK_BATCH,
        MessageType.REPLICA_ACK,
        MessageType.PONG,
        MessageType.RING_REPLY,
        MessageType.MEMBER_WELCOME,
        MessageType.APP_REPLY,
        MessageType.ERROR,
    }
)


@dataclass
class Message:
    """An envelope exchanged between Khazana daemons.

    ``payload`` holds protocol-specific fields, in the value vocabulary
    of :mod:`repro.net.codec`; bulk page data travels under the
    ``"data"`` key as ``bytes`` and dominates the size accounting.
    """

    msg_type: MessageType
    src: int
    dst: int
    payload: Dict[str, Any] = field(default_factory=dict)
    request_id: Optional[int] = None   # set by the RPC layer on requests
    reply_to: Optional[int] = None     # set on responses
    msg_id: int = field(default_factory=lambda: next(_message_counter))

    @property
    def is_reply(self) -> bool:
        return self.msg_type in REPLY_TYPES

    def size_bytes(self) -> int:
        """Exact wire size: the length-prefixed frame that carries this
        message (:func:`repro.net.frame.frame_size`), on every backend.

        Raises :class:`~repro.net.codec.Unencodable` if the payload
        holds a value outside the wire vocabulary.
        """
        # frame -> codec -> message: a module-level import would cycle.
        from repro.net.frame import frame_size

        return frame_size(self)

    def reply(
        self, msg_type: MessageType, payload: Optional[Dict[str, Any]] = None
    ) -> "Message":
        """Build a response envelope addressed back to the sender."""
        return Message(
            msg_type=msg_type,
            src=self.dst,
            dst=self.src,
            payload=payload or {},
            reply_to=self.request_id,
        )

    def error_reply(self, code: str, detail: str = "") -> "Message":
        """Build a NAK response carrying an error code."""
        return self.reply(
            MessageType.ERROR, {"code": code, "detail": detail}
        )

    def __repr__(self) -> str:
        rid = f" req={self.request_id}" if self.request_id is not None else ""
        rto = f" re={self.reply_to}" if self.reply_to is not None else ""
        return (
            f"<Message {self.msg_type.value} {self.src}->{self.dst}{rid}{rto}>"
        )


def wire_label(message: "Message") -> str:
    """Human-readable label for a message: the type, annotated with a
    page count for batch envelopes so a trace (or a dispatch log line)
    shows how much work one RPC carries."""
    base = message.msg_type.value
    payload = message.payload
    if not isinstance(payload, dict):
        return base
    for key in ("pages", "updates"):
        batch = payload.get(key)
        if isinstance(batch, list):
            return f"{base}[{len(batch)} page(s)]"
    applied = payload.get("applied")
    if isinstance(applied, int):
        return f"{base}[{applied} page(s)]"
    return base
