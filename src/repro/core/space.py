"""SpaceService: address-space and region lifecycle (Sections 2, 3.1).

Owns the client-visible region lifecycle — reserve / unreserve /
allocate / free / resize / migrate — plus the supporting machinery:
the local space-pool refill protocol ("nodes request chunks of
address space from their cluster manager"), home-node selection, and
the home-side wire handlers for descriptor fetch/update, allocation,
free, unreserve, migration, and replica creation.
"""

from __future__ import annotations

import logging

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional

from repro.core.addressing import AddressRange
from repro.core.allocator import DEFAULT_CHUNK_SIZE
from repro.core.attributes import RegionAttributes
from repro.core.errors import (
    AccessDenied,
    InvalidRange,
    KhazanaError,
    KhazanaTimeout,
    NodeUnavailable,
    RegionInUse,
    error_from_code,
)
from repro.core.placement.base import LOOKUP_POLICY
from repro.core.region import RegionDescriptor
from repro.core.security import Right, SYSTEM_PRINCIPAL
from repro.net.message import Message, MessageType
from repro.net.rpc import RemoteError, RetryPolicy, RpcTimeout
from repro.net.tasks import Future

if TYPE_CHECKING:
    from repro.core.kernel import NodeKernel

ProtocolGen = Generator[Future, Any, Any]

logger = logging.getLogger(__name__)


class SpaceService:
    """Region lifecycle operations and their home-side handlers."""

    def __init__(self, kernel: "NodeKernel") -> None:
        self.kernel = kernel

    # ------------------------------------------------------------------
    # Client operations (paper Section 2's API)
    # ------------------------------------------------------------------

    def op_reserve(
        self,
        size: int,
        attrs: RegionAttributes,
        principal: str = SYSTEM_PRINCIPAL,
    ) -> ProtocolGen:
        """Reserve a contiguous range of global address space."""
        kernel = self.kernel
        kernel.stats.bump("reserve")
        if size <= 0:
            raise InvalidRange(f"reserve size must be positive, got {size}")
        page_size = attrs.page_size
        size = -(-size // page_size) * page_size

        carved = kernel.space_pool.carve(size, alignment=page_size)
        if carved is None:
            yield from self._refill_pool(max(size, DEFAULT_CHUNK_SIZE))
            carved = kernel.space_pool.carve(size, alignment=page_size)
            if carved is None:
                raise KhazanaError(
                    "space pool empty immediately after a chunk grant"
                )

        homes = kernel.placement.choose_homes(carved, attrs.min_replicas)
        desc = RegionDescriptor(
            range=carved, attrs=attrs, home_nodes=homes, allocated=False
        )
        yield from kernel.address_map.reserve(carved, homes)
        kernel.adopt_descriptor(desc)
        for home in homes:
            if home == kernel.node_id:
                continue
            kernel.rpc.send(
                Message(
                    msg_type=MessageType.DESCRIPTOR_UPDATE,
                    src=kernel.node_id,
                    dst=home,
                    payload={"descriptor": desc.to_wire()},
                )
            )
        kernel.location.advertise_caching(desc)
        return desc

    def _refill_pool(self, size: int) -> ProtocolGen:
        """Obtain a chunk of unreserved space (Section 3.1)."""
        kernel = self.kernel
        manager = kernel.cluster_manager_node
        if kernel.cluster_role is not None:
            chunk = yield from kernel.cluster_role.delegate_chunk(
                kernel.node_id, max(size, DEFAULT_CHUNK_SIZE)
            )
            kernel.space_pool.add(chunk)
            return
        try:
            reply = yield kernel.rpc.request(
                manager, MessageType.SPACE_REQUEST, {"size": size},
                # Generous retransmission: losing address space grants
                # to a lossy link would fail reserves spuriously (3.5:
                # "tried ... until they succeed or timeout").
                policy=RetryPolicy(timeout=2.0, retries=6, backoff=1.5),
            )
        except RpcTimeout as error:
            raise KhazanaTimeout(
                f"cluster manager {manager} unreachable for a space "
                f"grant: {error}"
            ) from error
        except RemoteError as error:
            raise error_from_code(error.code, error.detail) from error
        chunk = AddressRange(
            int(reply.payload["start"]), int(reply.payload["length"])
        )
        kernel.space_pool.add(chunk)

    def op_unreserve(self, rid: int) -> ProtocolGen:
        """Release a region and reclaim its storage (release-type)."""
        kernel = self.kernel
        kernel.stats.bump("unreserve")
        desc = yield from kernel.location.locate_region(rid)
        if desc.rid != rid:
            raise InvalidRange(
                f"{rid:#x} is inside region {desc.rid:#x}, not its start"
            )
        live_ctx = kernel.data.region_in_use(rid)
        if live_ctx is not None:
            raise RegionInUse(
                f"region {rid:#x} has live lock context {live_ctx}"
            )
        # Address-map release and per-home teardown are release-type:
        # failures retry in the background, never surface (3.5).  The
        # release rides on this node's next write of its map leaf; one
        # housekeeping period on, it is written on its own.
        release = kernel.address_map.queue_release(desc.range)
        item_id = kernel.retry_queue.enqueue(
            lambda: kernel.address_map.flush_release(release),
            label=f"unreserve-map:{rid:#x}",
            delay=kernel.config.housekeeping_period,
        )
        release.on_landed = lambda: kernel.retry_queue.finish(item_id)
        for home in desc.home_nodes:
            if home == kernel.node_id:
                self.teardown_region(rid)
                continue
            payload = {"rid": rid}
            kernel.retry_queue.enqueue(
                lambda home=home, payload=payload: self._request_once(
                    home, MessageType.REGION_UNRESERVE, payload
                ),
                label=f"unreserve:{rid:#x}@{home}",
            )
        kernel.region_directory.invalidate(rid)
        kernel.homed_regions.pop(rid, None)
        kernel.placement.note_unreserved(desc)
        return None

    def _request_once(self, dst: int, msg_type: MessageType,
                      payload: Dict[str, Any]) -> ProtocolGen:
        yield self.kernel.rpc.request(dst, msg_type, payload,
                                      policy=LOOKUP_POLICY)

    def op_allocate(self, rid: int,
                    subrange: Optional[AddressRange] = None) -> ProtocolGen:
        """Allocate physical storage for a region (or part of one)."""
        kernel = self.kernel
        kernel.stats.bump("allocate")
        desc = yield from kernel.location.locate_region(rid)
        target = subrange if subrange is not None else desc.range
        if not desc.range.contains_range(target):
            raise InvalidRange(f"{target} not inside region {desc.range}")
        pages = desc.pages_covering(target)
        for home in desc.home_nodes:
            if home == kernel.node_id:
                self._allocate_local(desc, pages)
                continue
            try:
                yield kernel.rpc.request(
                    home, MessageType.ALLOC_REQUEST,
                    {"rid": desc.rid, "start": target.start,
                     "length": target.length,
                     # The descriptor rides along: a newly chosen home
                     # may not have processed its DESCRIPTOR_UPDATE yet.
                     "descriptor": desc.to_wire()},
                    policy=RetryPolicy(timeout=2.0, retries=2, backoff=2.0),
                )
            except RpcTimeout as error:
                raise error_from_code(
                    "allocation_failed",
                    f"home {home} unreachable: {error}",
                ) from error
            except RemoteError as error:
                raise error_from_code(error.code, error.detail) from error
        if not desc.allocated:
            new_desc = desc.with_allocated(True)
            kernel.adopt_descriptor(new_desc)
            for home in desc.home_nodes:
                if home == kernel.node_id:
                    continue
                kernel.rpc.send(
                    Message(
                        msg_type=MessageType.DESCRIPTOR_UPDATE,
                        src=kernel.node_id,
                        dst=home,
                        payload={"descriptor": new_desc.to_wire()},
                    )
                )
            # Refresh the cluster manager's hint so later lookups from
            # other nodes see the allocated descriptor.
            kernel.location.readvertise(new_desc)
        return None

    def _allocate_local(self, desc: RegionDescriptor,
                        pages: List[int]) -> None:
        kernel = self.kernel
        primary = desc.primary_home
        for page_addr in pages:
            entry = kernel.page_directory.ensure(page_addr, desc.rid,
                                                 homed=True)
            entry.allocated = True
            if entry.owner is None and kernel.node_id == primary:
                entry.owner = primary
                entry.record_sharer(primary)

    def op_free(self, rid: int, subrange: AddressRange) -> ProtocolGen:
        """Release physical storage for part of a region (release-type)."""
        kernel = self.kernel
        kernel.stats.bump("free")
        desc = yield from kernel.location.locate_region(rid)
        if not desc.range.contains_range(subrange):
            raise InvalidRange(f"{subrange} not inside region {desc.range}")
        payload = {"rid": rid, "start": subrange.start,
                   "length": subrange.length}
        for home in desc.home_nodes:
            if home == kernel.node_id:
                self._free_local(desc, subrange)
                continue
            kernel.retry_queue.enqueue(
                lambda home=home: self._request_once(
                    home, MessageType.FREE_REQUEST, payload
                ),
                label=f"free:{rid:#x}@{home}",
            )
        return None

    def _free_local(self, desc: RegionDescriptor,
                    subrange: AddressRange) -> None:
        kernel = self.kernel
        for page_addr in desc.pages_covering(subrange):
            kernel.storage.drop(page_addr)
            kernel.page_directory.drop(page_addr)
        if not kernel.page_directory.entries_for_region(desc.rid):
            # Freed the region's last local page: stop advertising it.
            kernel.placement.retract(desc)

    def op_resize_region(self, rid: int, new_size: int) -> ProtocolGen:
        """Grow or shrink a region in place.

        Implements Section 4.1's alternative layout need ("resize the
        region whenever the file size changes").  Growth claims the
        free address space directly after the region (raising
        ``AddressSpaceExhausted`` when it is taken); shrinking frees
        the tail pages.  Returns the new descriptor.
        """
        kernel = self.kernel
        kernel.stats.bump("resize")
        desc = yield from kernel.location.locate_region(rid)
        if desc.rid != rid:
            raise InvalidRange(
                f"{rid:#x} is inside region {desc.rid:#x}, not its start"
            )
        page_size = desc.attrs.page_size
        if new_size <= 0:
            raise InvalidRange(f"size must be positive, got {new_size}")
        new_size = -(-new_size // page_size) * page_size
        if new_size == desc.range.length:
            return desc
        live_ctx = kernel.data.region_in_use(rid)
        if live_ctx is not None:
            raise RegionInUse(
                f"region {rid:#x} has live lock context {live_ctx}"
            )

        old_range = desc.range
        new_range = AddressRange(old_range.start, new_size)
        if new_size > old_range.length:
            yield from kernel.address_map.extend(
                old_range, new_size, requester=kernel.node_id
            )
            # The growth may have consumed part of this node's own
            # delegated pool; stop offering those addresses.
            kernel.space_pool.remove_overlap(
                AddressRange.from_bounds(old_range.end, new_range.end)
            )
        else:
            tail = AddressRange.from_bounds(new_range.end, old_range.end)
            yield from kernel.address_map.release(tail)

        new_desc = desc.with_range(new_range)
        kernel.adopt_descriptor(new_desc)

        if new_size > old_range.length:
            grown = AddressRange.from_bounds(old_range.end, new_range.end)
            yield from self.op_allocate(rid, grown)
        else:
            tail = AddressRange.from_bounds(new_range.end, old_range.end)
            for home in desc.home_nodes:
                if home == kernel.node_id:
                    self._free_local(desc, tail)
                    continue
                payload = {"rid": rid, "start": tail.start,
                           "length": tail.length}
                kernel.retry_queue.enqueue(
                    lambda home=home, payload=payload: self._request_once(
                        home, MessageType.FREE_REQUEST, payload
                    ),
                    label=f"shrink:{rid:#x}@{home}",
                )
        for home in new_desc.home_nodes:
            if home == kernel.node_id:
                continue
            kernel.rpc.send(
                Message(
                    msg_type=MessageType.DESCRIPTOR_UPDATE,
                    src=kernel.node_id,
                    dst=home,
                    payload={"descriptor": new_desc.to_wire()},
                )
            )
        kernel.location.readvertise(new_desc)
        final = kernel.homed_regions.get(rid, new_desc)
        return final

    def op_migrate_region(self, rid: int, new_primary: int) -> ProtocolGen:
        """Move a region's primary home to ``new_primary``.

        The actual transfer runs at the current primary (it holds the
        authoritative pages and directory); other nodes forward the
        request there.  Returns the new descriptor.
        """
        kernel = self.kernel
        kernel.stats.bump("migrate")
        desc = yield from kernel.location.locate_region(rid)
        if desc.rid != rid:
            raise InvalidRange(
                f"{rid:#x} is inside region {desc.rid:#x}, not its start"
            )
        if desc.primary_home == new_primary:
            return desc
        if desc.primary_home == kernel.node_id:
            new_desc = yield from self.migrate_region_local(desc, new_primary)
            return new_desc
        try:
            reply = yield kernel.rpc.request(
                desc.primary_home, MessageType.REGION_MIGRATE,
                {"rid": rid, "new_primary": new_primary},
                policy=RetryPolicy(timeout=5.0, retries=1, backoff=2.0),
            )
        except RpcTimeout as error:
            raise NodeUnavailable(
                f"primary home {desc.primary_home} unreachable: {error}"
            ) from error
        except RemoteError as error:
            raise error_from_code(error.code, error.detail) from error
        new_desc = RegionDescriptor.from_wire(reply.payload["descriptor"])
        kernel.adopt_descriptor(new_desc)
        return new_desc

    def migrate_region_local(self, desc: RegionDescriptor,
                             new_primary: int) -> ProtocolGen:
        """Primary-side migration: push pages, republish the descriptor."""
        kernel = self.kernel
        new_homes = (new_primary,) + tuple(
            h for h in desc.home_nodes if h != new_primary
        )
        # Keep the home count stable: with min_replicas satisfied, the
        # old primary drops off the end; otherwise it stays as a
        # secondary replica.
        keep = max(desc.attrs.min_replicas, 1)
        new_homes = new_homes[:max(keep, 1)]
        new_desc = desc.with_homes(new_homes)
        if new_primary not in desc.home_nodes:
            # The pushes carry the *new* descriptor, so the receiver
            # has adopted its home role by the time they are acked.
            yield from self.push_region_to(new_desc, new_primary)
        kernel.adopt_descriptor(new_desc)
        for node in set(new_homes) | set(desc.home_nodes):
            if node == kernel.node_id:
                continue
            kernel.rpc.send(
                Message(
                    msg_type=MessageType.DESCRIPTOR_UPDATE,
                    src=kernel.node_id,
                    dst=node,
                    payload={"descriptor": new_desc.to_wire()},
                )
            )
        kernel.placement.note_migrated(new_desc)
        kernel.retry_queue.enqueue(
            lambda: kernel.address_map.update_homes(new_desc.range,
                                                    new_homes),
            label=f"map-migrate:{desc.rid:#x}",
        )
        kernel.migration_advisor.forget_region(desc.rid)
        return new_desc

    def push_region_to(self, desc: RegionDescriptor,
                       target: int) -> ProtocolGen:
        """Copy every allocated page of a homed region to ``target``."""
        from repro.net.tasks import gather_settled

        kernel = self.kernel
        pushes = []
        for entry in kernel.page_directory.entries_for_region(desc.rid):
            if not entry.allocated:
                continue
            data = yield from kernel.data.local_page_bytes(desc,
                                                           entry.address)
            if data is None:
                # Allocated but never written: the page is still
                # logically all-zeroes; hand the target a real page so
                # its 'allocated' marker transfers.
                data = b"\x00" * desc.page_size
            pushes.append(
                kernel.rpc.request(
                    target,
                    MessageType.REPLICA_CREATE,
                    {"rid": desc.rid, "page": entry.address, "data": data,
                     "descriptor": desc.to_wire(),
                     # Hand over the coherence directory too, so the
                     # receiving home knows the true owner and copyset.
                     "owner": entry.owner,
                     "sharers": sorted(entry.sharers)},
                    policy=RetryPolicy(timeout=2.0, retries=1, backoff=2.0),
                )
            )
        if pushes:
            outcomes = yield gather_settled(pushes, label="migrate-push")
            failures = [exc for ok, exc in outcomes if not ok]
            if failures:
                raise NodeUnavailable(
                    f"could not push region {desc.rid:#x} to node "
                    f"{target}: {failures[0]}"
                )

    def op_get_attributes(self, rid: int) -> ProtocolGen:
        """Fetch a region's current attributes (get-attributes op)."""
        kernel = self.kernel
        kernel.stats.bump("get_attrs")
        desc = yield from kernel.location.locate_region(
            rid, skip_directory=True
        )
        return desc.attrs

    def op_set_attributes(self, rid: int, attrs: RegionAttributes,
                          principal: str = SYSTEM_PRINCIPAL) -> ProtocolGen:
        """Update a region's attributes (set-attributes op)."""
        kernel = self.kernel
        kernel.stats.bump("set_attrs")
        desc = yield from kernel.location.locate_region(rid)
        if not desc.attrs.acl.allows(principal, Right.ADMIN):
            raise AccessDenied(
                f"principal {principal!r} lacks admin rights on region "
                f"{rid:#x}"
            )
        if attrs.page_size != desc.attrs.page_size:
            raise InvalidRange(
                "page size is fixed at reserve time and cannot change"
            )
        new_desc = desc.with_attrs(attrs)
        kernel.adopt_descriptor(new_desc)
        for home in new_desc.home_nodes:
            if home == kernel.node_id:
                continue
            kernel.rpc.send(
                Message(
                    msg_type=MessageType.DESCRIPTOR_UPDATE,
                    src=kernel.node_id,
                    dst=home,
                    payload={"descriptor": new_desc.to_wire()},
                )
            )
        return new_desc

    # ------------------------------------------------------------------
    # Home-side wire handlers
    # ------------------------------------------------------------------

    def handle_descriptor_fetch(self, msg: Message) -> None:
        kernel = self.kernel
        rid = int(msg.payload["rid"])
        desc = kernel.homed_regions.get(rid)
        if desc is None:
            kernel.reply_error(msg, "not_responsible",
                               f"node {kernel.node_id} is not a home of "
                               f"region {rid:#x}")
            return
        kernel.reply_request(
            msg, MessageType.DESCRIPTOR_REPLY, {"descriptor": desc.to_wire()}
        )

    def handle_descriptor_update(self, msg: Message) -> None:
        desc = RegionDescriptor.from_wire(msg.payload["descriptor"])
        self.kernel.adopt_descriptor(desc)

    def handle_region_unreserve(self, msg: Message) -> None:
        rid = int(msg.payload["rid"])
        self.teardown_region(rid)
        self.kernel.reply_request(msg, MessageType.FREE_REPLY, {})

    def teardown_region(self, rid: int) -> None:
        kernel = self.kernel
        for entry in kernel.page_directory.entries_for_region(rid):
            kernel.storage.drop(entry.address)
        kernel.page_directory.drop_region(rid)
        kernel.homed_regions.pop(rid, None)
        kernel.region_directory.invalidate(rid)

    def handle_alloc_request(self, msg: Message) -> None:
        kernel = self.kernel
        rid = int(msg.payload["rid"])
        desc = kernel.homed_regions.get(rid)
        if desc is None and "descriptor" in msg.payload:
            kernel.adopt_descriptor(
                RegionDescriptor.from_wire(msg.payload["descriptor"])
            )
            desc = kernel.homed_regions.get(rid)
        if desc is None:
            kernel.reply_error(msg, "not_responsible",
                               f"node {kernel.node_id} is not a home of "
                               f"region {rid:#x}")
            return
        target = AddressRange(int(msg.payload["start"]),
                              int(msg.payload["length"]))
        self._allocate_local(desc, desc.pages_covering(target))
        if not desc.allocated:
            kernel.adopt_descriptor(desc.with_allocated(True))
        kernel.reply_request(msg, MessageType.ALLOC_REPLY, {})

    def handle_free_request(self, msg: Message) -> None:
        kernel = self.kernel
        rid = int(msg.payload["rid"])
        desc = kernel.homed_regions.get(rid)
        if desc is not None:
            target = AddressRange(int(msg.payload["start"]),
                                  int(msg.payload["length"]))
            self._free_local(desc, target)
        kernel.reply_request(msg, MessageType.FREE_REPLY, {})

    def handle_region_migrate(self, msg: Message) -> None:
        kernel = self.kernel
        rid = int(msg.payload["rid"])
        new_primary = int(msg.payload["new_primary"])
        desc = kernel.homed_regions.get(rid)
        if desc is None or desc.primary_home != kernel.node_id:
            kernel.reply_error(msg, "not_responsible",
                               f"node {kernel.node_id} is not the primary "
                               f"home of region {rid:#x}")
            return

        def serve() -> ProtocolGen:
            new_desc = yield from self.migrate_region_local(desc, new_primary)
            kernel.reply_request(
                msg, MessageType.DESCRIPTOR_REPLY,
                {"descriptor": new_desc.to_wire()},
            )

        kernel.spawn_handler(msg, serve(), label="migrate")

    def handle_replica_create(self, msg: Message) -> None:
        kernel = self.kernel
        desc = RegionDescriptor.from_wire(msg.payload["descriptor"])
        kernel.adopt_descriptor(desc)
        page_addr = int(msg.payload["page"])
        data = msg.payload["data"]

        def store() -> ProtocolGen:
            yield from kernel.data.store_local_page(desc, page_addr, data,
                                                    dirty=False)
            entry = kernel.page_directory.ensure(page_addr, desc.rid,
                                                 homed=True)
            entry.allocated = True
            if msg.payload.get("owner") is not None:
                entry.owner = int(msg.payload["owner"])
            for sharer in msg.payload.get("sharers", ()):
                entry.record_sharer(int(sharer))
            kernel.reply_request(msg, MessageType.REPLICA_ACK, {})

        kernel.spawn_handler(msg, store(), label="replica-create")
