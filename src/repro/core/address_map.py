"""The distributed address map tree.

Paper Section 3.1: "Khazana maintains a globally distributed data
structure called the address map ... used to keep track of reserved
and free regions within the global address space [and] to locate the
home nodes of regions ... The address map is implemented as a
distributed tree where each subtree describes a range of global
address space in finer detail.  Each tree node is of fixed size and
contains a set of entries describing disjoint global memory regions,
each of which contains either a non-exhaustive list of home nodes for
a reserved region or points to the root node of a subtree describing
the region in finer detail.  The address map itself resides in
Khazana.  A well-known region beginning at address 0 stores the root
node of the address map tree."

This module is faithful to that design: tree nodes are fixed-size
pages inside the *system region* at address 0, read and written
through the ordinary Khazana lock/read/write path (so the map is
replicated and kept release-consistent like any other region).  The
tree logic is written as generators over the narrow :class:`MapIO`
protocol; the daemon supplies the I/O.
"""

from __future__ import annotations

import abc
import enum
import json
from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.core.addressing import (
    DEFAULT_PAGE_SIZE,
    MAX_ADDRESS,
    AddressRange,
)
from repro.core.errors import (
    AddressSpaceExhausted,
    AlreadyReserved,
    InvalidRange,
    KhazanaError,
    NotReserved,
)
from repro.core.locks import LockMode
from repro.net.tasks import Future

#: The well-known system region holding the address-map tree: the
#: first 16 MiB of the global address space (4096 tree pages).
SYSTEM_REGION_START = 0
SYSTEM_REGION_SIZE = 16 * 1024 * 1024
SYSTEM_REGION = AddressRange(SYSTEM_REGION_START, SYSTEM_REGION_SIZE)

#: The region id of the well-known address-map region.
SYSTEM_RID = SYSTEM_REGION.start

#: The root tree node lives in the very first page.
ROOT_PAGE = 0

#: Fixed tree-node fanout.  With JSON encoding, 32 entries fit a
#: 4 KiB page with room to spare.
MAX_ENTRIES = 32

#: Descent bound: far deeper than a B-tree over the whole address
#: space gets at this fanout; guards against cycles in a corrupt tree.
MAX_DEPTH = 64

ProtocolGen = Generator[Any, Any, Any]


class EntryState(str, enum.Enum):
    """What an address-map entry says about its range."""

    FREE = "free"              # unreserved global address space
    RESERVED = "reserved"      # a live region; data = home node list
    DELEGATED = "delegated"    # chunk handed to a node to manage locally
    SUBTREE = "subtree"        # described in finer detail by a child page


@dataclass(frozen=True)
class MapEntry:
    """One entry of a tree node, covering a disjoint address range.

    ``data`` is state-dependent: the (non-exhaustive) home-node list
    for RESERVED, the managing node id for DELEGATED, the child page
    address for SUBTREE, and empty for FREE.
    """

    range: AddressRange
    state: EntryState
    data: Tuple[int, ...] = ()

    @property
    def home_nodes(self) -> Tuple[int, ...]:
        if self.state is not EntryState.RESERVED:
            raise ValueError(f"{self.state.value} entry has no home nodes")
        return self.data

    @property
    def manager_node(self) -> int:
        if self.state is not EntryState.DELEGATED:
            raise ValueError(f"{self.state.value} entry has no manager")
        return self.data[0]

    @property
    def child_page(self) -> int:
        if self.state is not EntryState.SUBTREE:
            raise ValueError(f"{self.state.value} entry has no child page")
        return self.data[0]

    def to_wire(self) -> List[Any]:
        return [self.range.start, self.range.length, self.state.value,
                list(self.data)]

    @classmethod
    def from_wire(cls, raw: List[Any]) -> "MapEntry":
        return cls(
            range=AddressRange(int(raw[0]), int(raw[1])),
            state=EntryState(raw[2]),
            data=tuple(int(x) for x in raw[3]),
        )


class MapNode:
    """In-memory form of one fixed-size tree page."""

    def __init__(self, entries: List[MapEntry],
                 next_free_page: Optional[int] = None) -> None:
        #: Entries sorted by range start, jointly partitioning the
        #: node's covered range.
        self.entries = sorted(entries, key=lambda e: e.range.start)
        #: Only meaningful on the root node: bump allocator for new
        #: tree pages within the system region.
        self.next_free_page = next_free_page

    def encode(self, page_size: int) -> bytes:
        doc = {"entries": [e.to_wire() for e in self.entries]}
        if self.next_free_page is not None:
            doc["next_free_page"] = self.next_free_page
        blob = json.dumps(doc, separators=(",", ":")).encode("ascii")
        if len(blob) > page_size:
            raise KhazanaError(
                f"address-map node overflow: {len(blob)} > {page_size} bytes"
            )
        return blob + b"\x00" * (page_size - len(blob))

    @classmethod
    def decode(cls, data: bytes) -> "MapNode":
        blob = data.rstrip(b"\x00")
        if not blob:
            return cls(entries=[])
        doc = json.loads(blob.decode("ascii"))
        return cls(
            entries=[MapEntry.from_wire(raw) for raw in doc.get("entries", [])],
            next_free_page=doc.get("next_free_page"),
        )

    def span(self) -> AddressRange:
        """The range the node's (contiguous) entries jointly cover."""
        return AddressRange.from_bounds(self.entries[0].range.start,
                                        self.entries[-1].range.end)

    def entry_covering(self, address: int) -> Optional[MapEntry]:
        for entry in self.entries:
            if entry.range.contains(address):
                return entry
        return None

    def replace_entry(self, old: MapEntry, new: List[MapEntry]) -> None:
        self.entries.remove(old)
        self.entries.extend(new)
        self.entries.sort(key=lambda e: e.range.start)

    def coalesce_free(self) -> None:
        """Merge adjacent FREE entries (within this node only; the
        paper explicitly skips cross-node defragmentation)."""
        merged: List[MapEntry] = []
        for entry in self.entries:
            if (
                merged
                and merged[-1].state is EntryState.FREE
                and entry.state is EntryState.FREE
                and merged[-1].range.end == entry.range.start
            ):
                merged[-1] = MapEntry(
                    range=merged[-1].range.union(entry.range),
                    state=EntryState.FREE,
                )
            else:
                merged.append(entry)
        self.entries = merged


class MapIO(abc.ABC):
    """Page access the address map needs from its host daemon.

    All methods are protocol generators (they may yield Futures); the
    address map composes them with ``yield from``.
    """

    page_size: int = DEFAULT_PAGE_SIZE

    @abc.abstractmethod
    def lock_page(self, page_addr: int, mode: LockMode) -> ProtocolGen:
        """Acquire a lock context on one system-region page."""

    @abc.abstractmethod
    def read_page(self, ctx: Any, page_addr: int) -> ProtocolGen:
        """Read the page's bytes under ``ctx``."""

    @abc.abstractmethod
    def write_page(self, ctx: Any, page_addr: int, data: bytes) -> ProtocolGen:
        """Write the page's bytes under ``ctx``."""

    @abc.abstractmethod
    def unlock_page(self, ctx: Any) -> ProtocolGen:
        """Release a context (release-type: must not raise to caller)."""


def initial_root_node() -> MapNode:
    """Tree contents at cluster bootstrap.

    The system region itself is the first reservation (homed at the
    bootstrap node, node 0); everything else is one huge FREE entry.
    """
    free_start = SYSTEM_REGION.end
    return MapNode(
        entries=[
            MapEntry(SYSTEM_REGION, EntryState.RESERVED, (0,)),
            MapEntry(
                AddressRange.from_bounds(free_start, MAX_ADDRESS + 1),
                EntryState.FREE,
            ),
        ],
        next_free_page=ROOT_PAGE + DEFAULT_PAGE_SIZE,
    )


class _HeldPage:
    """A page WRITE-locked by a mutation, with a snapshot of its
    contents so that only pages that changed are written back."""

    def __init__(self, page_addr: int, ctx: Any, node: MapNode) -> None:
        self.page_addr = page_addr
        self.ctx = ctx
        self.node = node
        self._before = (list(node.entries), node.next_free_page)

    @property
    def changed(self) -> bool:
        return (self.node.entries, self.node.next_free_page) != self._before


#: A leaf mutation: rewrites entries of ``node`` around ``entry`` (the
#: non-SUBTREE entry covering the target address), adding at most two,
#: or raises.
LeafEdit = Callable[[MapNode, MapEntry], None]


def _carver(target: AddressRange, acceptable: Tuple[EntryState, ...],
            new_state: EntryState, new_data: Tuple[int, ...]) -> LeafEdit:
    """The edit rewriting the entry containing ``target`` as
    ``new_state``: at most three pieces, the unchanged head and tail
    around ``target``.  It raises before touching the node."""

    def carve(node: MapNode, entry: MapEntry) -> None:
        if not entry.range.contains_range(target):
            raise InvalidRange(
                f"range {target} straddles address-map entries "
                f"(entry is {entry.range})"
            )
        if entry.state not in acceptable:
            if new_state is EntryState.RESERVED:
                raise AlreadyReserved(
                    f"range {target} is {entry.state.value}, not free"
                )
            raise NotReserved(
                f"range {target} is {entry.state.value}; expected one "
                f"of {[s.value for s in acceptable]}"
            )
        pieces: List[MapEntry] = []
        if entry.range.start < target.start:
            pieces.append(MapEntry(
                AddressRange.from_bounds(entry.range.start, target.start),
                entry.state, entry.data,
            ))
        pieces.append(MapEntry(target, new_state, new_data))
        if target.end < entry.range.end:
            pieces.append(MapEntry(
                AddressRange.from_bounds(target.end, entry.range.end),
                entry.state, entry.data,
            ))
        node.replace_entry(entry, pieces)
        node.coalesce_free()

    return carve


def _releaser(target: AddressRange) -> LeafEdit:
    return _carver(target, (EntryState.RESERVED,), EntryState.FREE, ())


class QueuedRelease:
    """An unreserve's map release waiting for a write of its leaf."""

    def __init__(self, target: AddressRange) -> None:
        self.target = target
        #: Set while a write carrying the release is in flight; resolves
        #: when that write's outcome is settled.
        self.claim: Optional[Future] = None
        #: Called once the release is on its page.
        self.on_landed: Callable[[], None] = lambda: None


class _Fold:
    """The queued releases one leaf write carries.

    Each is claimed while the write is in flight.  On leaving the
    ``with`` block after ``written`` was set (so the write and the
    unlock succeeded) they are dropped from the queue; otherwise their
    claims are cleared and they stay queued.
    """

    def __init__(self, queue: List[QueuedRelease]) -> None:
        self.queue = queue
        self.releases: List[QueuedRelease] = []
        self.written = False

    def apply(self, node: MapNode) -> None:
        """Release, in ``node``, every unclaimed queued range it holds.
        A release whose edit fails is left for its own flush, which
        reports the error."""
        for release in self.queue:
            if release.claim is not None:
                continue
            entry = node.entry_covering(release.target.start)
            if entry is None or entry.state is EntryState.SUBTREE:
                continue
            try:
                _releaser(release.target)(node, entry)
            except (InvalidRange, NotReserved):
                continue
            release.claim = Future(f"map-release:{release.target.start:#x}")
            self.releases.append(release)

    def __enter__(self) -> "_Fold":
        return self

    def __exit__(self, exc_type: Any, _exc: Any, _tb: Any) -> None:
        landed = exc_type is None and self.written
        claims = [release.claim for release in self.releases]
        for release in self.releases:
            release.claim = None
            if landed:
                self.queue.remove(release)
                release.on_landed()
        # A waiting flush may resume inside these callbacks, so they
        # run once the queue is consistent.
        for claim in claims:
            claim.set_result(landed)


class AddressMap:
    """Generator-based operations on the distributed B-tree.

    Interior nodes hold SUBTREE entries whose ranges are their
    children's exact spans, and every leaf sits at the same depth.
    A mutation rewrites entries inside one leaf: it descends under READ
    locks, WRITE-locks only that leaf and validates the fresh copy the
    write token brings.  When validation fails or the leaf would
    overflow, it retries from the root under WRITE locks taken
    top-down and splits, promoting separators into the parents.
    Lookups run against (possibly stale) local replicas under READ
    locks — the relaxed-consistency posture of Section 3.1.

    Unreserve's release is queued (:meth:`queue_release`) rather than
    written at once.  Every mutation first applies, to the leaf it
    WRITE-locks, the queued releases that leaf holds, so they share its
    token, push and write-through; :meth:`flush_release` writes a
    release no mutation carried.  The queue is volatile, like the
    retry queue that drives the flushes (Section 3.5).
    """

    def __init__(self, io: MapIO) -> None:
        self.io = io
        self._queued: List[QueuedRelease] = []

    @property
    def queued_releases(self) -> Tuple[QueuedRelease, ...]:
        """Releases not yet on their page, oldest first."""
        return tuple(self._queued)

    # --- Read path --------------------------------------------------------

    def lookup(self, address: int) -> ProtocolGen:
        """Find the entry covering ``address``.

        Returns the :class:`MapEntry` (never a SUBTREE entry; descends
        through them).  The result may be stale; callers fall back to
        the cluster walk when acting on it fails (Section 3.1).
        """
        _page_addr, _node, entry = yield from self._descend(address)
        if entry is None:
            raise NotReserved(
                f"address {address:#x} not described by the address map"
            )
        return entry

    def _descend(self, address: int) -> ProtocolGen:
        """READ-locked descent towards ``address``.

        Returns ``(page_addr, node, entry)`` for the first node whose
        entry covering ``address`` is not SUBTREE.  ``entry`` is None
        when the node does not cover the address, which only a child
        page reached through a stale replica of its parent can do.
        """
        page_addr = ROOT_PAGE
        for _depth in range(MAX_DEPTH):
            node = yield from self._read_node(page_addr, LockMode.READ)
            entry = node.entry_covering(address)
            if entry is None or entry.state is not EntryState.SUBTREE:
                return page_addr, node, entry
            page_addr = entry.child_page
        raise KhazanaError("address-map descent exceeded depth bound")

    def enumerate_reserved(self) -> ProtocolGen:
        """All RESERVED entries (for diagnostics and fsck-style tools)."""
        found: List[MapEntry] = []
        yield from self._collect(ROOT_PAGE, EntryState.RESERVED, found)
        return found

    def _collect(self, page_addr: int, state: EntryState,
                 out: List[MapEntry]) -> ProtocolGen:
        node = yield from self._read_node(page_addr, LockMode.READ)
        for entry in node.entries:
            if entry.state is EntryState.SUBTREE:
                yield from self._collect(entry.child_page, state, out)
            elif entry.state is state:
                out.append(entry)

    # --- Mutations -----------------------------------------------------------

    def find_free(self, size: int, alignment: int) -> ProtocolGen:
        """First-fit search for a FREE range of at least ``size`` bytes
        aligned to ``alignment``.  Read-only; the caller then calls a
        mutation with the returned range."""
        result = yield from self._find_free_in(ROOT_PAGE, size, alignment)
        if result is None:
            raise AddressSpaceExhausted(
                f"no free extent of {size} bytes found"
            )
        return result

    def _find_free_in(self, page_addr: int, size: int,
                      alignment: int) -> ProtocolGen:
        node = yield from self._read_node(page_addr, LockMode.READ)
        for entry in node.entries:
            if entry.state is EntryState.SUBTREE:
                found = yield from self._find_free_in(
                    entry.child_page, size, alignment
                )
                if found is not None:
                    return found
            elif entry.state is EntryState.FREE:
                start = -(-entry.range.start // alignment) * alignment
                if start + size <= entry.range.end:
                    return AddressRange(start, size)
        return None

    def reserve(self, target: AddressRange,
                home_nodes: Tuple[int, ...]) -> ProtocolGen:
        """Mark ``target`` RESERVED with the given home nodes.

        The range must lie entirely within a single FREE or DELEGATED
        entry (reservations are carved from free space or from a chunk
        delegated to the reserving node)."""
        yield from self._mutate(target.start, _carver(
            target,
            acceptable=(EntryState.FREE, EntryState.DELEGATED),
            new_state=EntryState.RESERVED,
            new_data=tuple(home_nodes),
        ))

    def delegate(self, target: AddressRange, node_id: int) -> ProtocolGen:
        """Hand a chunk of FREE space to ``node_id`` to manage locally
        (the cluster manager calls this to satisfy SPACE_REQUESTs)."""
        yield from self._mutate(target.start, _carver(
            target,
            acceptable=(EntryState.FREE,),
            new_state=EntryState.DELEGATED,
            new_data=(node_id,),
        ))

    def release(self, target: AddressRange) -> ProtocolGen:
        """Return a RESERVED range to FREE now (resize's tail)."""
        yield from self._mutate(target.start, _releaser(target))

    def queue_release(self, target: AddressRange) -> QueuedRelease:
        """Return a RESERVED range to FREE with this node's next write
        of its leaf (unreserve); :meth:`flush_release` writes it if no
        mutation does."""
        release = QueuedRelease(target)
        self._queued.append(release)
        return release

    def flush_release(self, release: QueuedRelease) -> ProtocolGen:
        """Write ``release`` unless another write already carried it.

        The write also carries every other queued release in the same
        leaf.  While a write carrying ``release`` is in flight this
        waits for its outcome, so the release is never applied twice.
        """
        def carry(node: MapNode, entry: MapEntry) -> None:
            # Folded into this write (claimed), or carried by another:
            # nothing to add.  Still queued and unclaimed means its
            # edit failed in the fold; running it here raises that.
            if release.claim is None and release in self._queued:
                _releaser(release.target)(node, entry)

        while release in self._queued:
            if release.claim is not None:
                yield release.claim
            else:
                yield from self._mutate(release.target.start, carry)

    def extend(self, target: AddressRange, new_length: int,
               requester: Optional[int] = None) -> ProtocolGen:
        """Grow a RESERVED range in place to ``new_length`` bytes.

        Supports Section 4.1's alternative file layout ("resize the
        region whenever the file size changes").  The extension space
        immediately following the region must be FREE or DELEGATED and
        described by the same tree node — growing across map-node
        boundaries raises ``AddressSpaceExhausted`` and the caller
        falls back to copying into a fresh reservation.
        """
        if new_length <= target.length:
            raise InvalidRange(
                f"extend needs a larger size, got {new_length} <= "
                f"{target.length}"
            )
        grown = AddressRange(target.start, new_length)

        def grow(node: MapNode, entry: MapEntry) -> None:
            if (entry.state is not EntryState.RESERVED
                    or entry.range != target):
                raise NotReserved(
                    f"extend target {target} does not match map entry "
                    f"{entry.range} ({entry.state.value})"
                )
            # Collect the run of FREE/DELEGATED entries after the
            # region until the grown range is covered.
            consumed: List[MapEntry] = []
            position = target.end
            while position < grown.end:
                tail = node.entry_covering(position)
                if tail is None or tail.state not in (
                    EntryState.FREE, EntryState.DELEGATED
                ):
                    raise AddressSpaceExhausted(
                        f"space after {target} is not free at "
                        f"{position:#x} (found "
                        f"{tail.state.value if tail else 'a map-node boundary'})"
                    )
                if (
                    tail.state is EntryState.DELEGATED
                    and requester is not None
                    and tail.manager_node != requester
                ):
                    # Never steal space from another node's local
                    # pool — its daemon would later hand out the same
                    # addresses.
                    raise AddressSpaceExhausted(
                        f"space after {target} is delegated to node "
                        f"{tail.manager_node}, not the requester"
                    )
                consumed.append(tail)
                position = tail.range.end

            node.replace_entry(
                entry, [MapEntry(grown, EntryState.RESERVED, entry.data)]
            )
            for tail in consumed:
                remainder = tail.range.subtract(
                    AddressRange.from_bounds(target.end, grown.end)
                )
                node.replace_entry(
                    tail,
                    [MapEntry(r, tail.state, tail.data) for r in remainder],
                )
            node.coalesce_free()

        yield from self._mutate(target.start, grow)

    def update_homes(self, target: AddressRange,
                     home_nodes: Tuple[int, ...]) -> ProtocolGen:
        """Refresh the home-node list of an existing reservation."""
        yield from self._mutate(target.start, _carver(
            target,
            acceptable=(EntryState.RESERVED,),
            new_state=EntryState.RESERVED,
            new_data=tuple(home_nodes),
        ))

    # --- Internals ------------------------------------------------------------

    def _read_node(self, page_addr: int, mode: LockMode) -> ProtocolGen:
        ctx = yield from self.io.lock_page(page_addr, mode)
        try:
            raw = yield from self.io.read_page(ctx, page_addr)
        finally:
            yield from self.io.unlock_page(ctx)
        return MapNode.decode(raw)

    def _mutate(self, address: int, edit: LeafEdit) -> ProtocolGen:
        """Apply ``edit`` to the leaf entry covering ``address``.

        The optimistic leaf-only write first; the pessimistic
        root-down path when it cannot proceed.  Each attempt carries
        the queued releases of the leaf it writes; both unlock before
        their fold settles.
        """
        with _Fold(self._queued) as fold:
            done = yield from self._mutate_leaf(address, edit, fold)
        if not done:
            with _Fold(self._queued) as fold:
                yield from self._mutate_from_root(address, edit, fold)

    def _mutate_leaf(self, address: int, edit: LeafEdit,
                     fold: _Fold) -> ProtocolGen:
        """Optimistic path: READ-locked descent, then WRITE-lock, edit
        and write the leaf alone.  Returns False to request a retry.

        The leaf is re-read under its write token, its queued releases
        are applied, and it must then (1) not be the root, (2) have a
        non-SUBTREE entry covering ``address`` and (3) have room for two
        more entries.  A non-root page never changes level and is never
        freed, so a stale interior replica can only lead here to a leaf
        that fails this validation, never to a wrong edit.
        """
        def editable(node: MapNode) -> Optional[MapEntry]:
            entry = node.entry_covering(address)
            if (entry is None or entry.state is EntryState.SUBTREE
                    or len(node.entries) + 2 > MAX_ENTRIES):
                return None
            return entry

        page_addr, node, _entry = yield from self._descend(address)
        # A replica that already fails the check skips the token.
        if page_addr == ROOT_PAGE or editable(node) is None:
            return False
        ctx = yield from self.io.lock_page(page_addr, LockMode.WRITE)
        try:
            raw = yield from self.io.read_page(ctx, page_addr)
            leaf = _HeldPage(page_addr, ctx, MapNode.decode(raw))
            fold.apply(leaf.node)
            entry = editable(leaf.node)
            if entry is None:
                return False
            edit(leaf.node, entry)
            yield from self._write_changed([leaf])
            fold.written = True
        finally:
            yield from self.io.unlock_page(ctx)
        return True

    def _mutate_from_root(self, address: int, edit: LeafEdit,
                          fold: _Fold) -> ProtocolGen:
        """Pessimistic path: WRITE-lock root to leaf, apply the leaf's
        queued releases and then the edit, split any overflow upwards,
        and write back only the pages whose entries changed (the root
        also when its allocator moved)."""
        ctxs: List[Any] = []
        held: List[_HeldPage] = []
        try:
            page_addr = ROOT_PAGE
            while True:
                if len(ctxs) == MAX_DEPTH:
                    raise KhazanaError(
                        "address-map descent exceeded depth bound"
                    )
                ctx = yield from self.io.lock_page(page_addr, LockMode.WRITE)
                ctxs.append(ctx)
                raw = yield from self.io.read_page(ctx, page_addr)
                page = _HeldPage(page_addr, ctx, MapNode.decode(raw))
                held.append(page)
                entry = page.node.entry_covering(address)
                if entry is None:
                    raise NotReserved(
                        f"address {address:#x} not described by the "
                        f"address map"
                    )
                if entry.state is not EntryState.SUBTREE:
                    break
                page_addr = entry.child_page
            fold.apply(page.node)
            edit(page.node, page.node.entry_covering(address))
            yield from self._split_upwards(held)
            yield from self._write_changed(held)
            fold.written = True
        finally:
            # Root first: a parent naming a new sibling is pushed
            # before the child that lost those entries to it.
            for ctx in ctxs:
                yield from self.io.unlock_page(ctx)

    def _write_changed(self, held: List[_HeldPage]) -> ProtocolGen:
        """Write back the held pages whose contents changed."""
        for page in held:
            if page.changed:
                yield from self.io.write_page(
                    page.ctx, page.page_addr,
                    page.node.encode(self.io.page_size),
                )

    def _split_upwards(self, held: List[_HeldPage]) -> ProtocolGen:
        """Split the overflowing nodes on the locked path, bottom-up.

        A non-root node keeps its left half in place and moves its
        right half to a new page; the parent's SUBTREE entry for it
        becomes two, one per half's exact span, which may overflow the
        parent in turn.  The root moves both halves to new pages and
        becomes their two SUBTREE entries, so every leaf stays at the
        same depth.
        """
        root = held[0].node
        for level in range(len(held) - 1, -1, -1):
            page = held[level]
            node = page.node
            if len(node.entries) <= MAX_ENTRIES:
                return
            mid = len(node.entries) // 2
            left, right = node.entries[:mid], node.entries[mid:]
            if level == 0:
                left_entry = yield from self._new_page(root, left)
                right_entry = yield from self._new_page(root, right)
                node.entries = [left_entry, right_entry]
                return
            parent = held[level - 1].node
            old_entry = parent.entry_covering(left[0].range.start)
            node.entries = left
            right_entry = yield from self._new_page(root, right)
            parent.replace_entry(old_entry, [
                MapEntry(node.span(), EntryState.SUBTREE, (page.page_addr,)),
                right_entry,
            ])

    def _new_page(self, root: MapNode,
                  entries: List[MapEntry]) -> ProtocolGen:
        """Write ``entries`` to a freshly allocated tree page; returns
        the parent's SUBTREE entry for it.  The page is unreachable
        until that parent is written, so its lock contends with none."""
        node = MapNode(entries)
        page_addr = self._alloc_tree_page(root)
        ctx = yield from self.io.lock_page(page_addr, LockMode.WRITE)
        try:
            yield from self.io.write_page(
                ctx, page_addr, node.encode(self.io.page_size)
            )
        finally:
            yield from self.io.unlock_page(ctx)
        return MapEntry(node.span(), EntryState.SUBTREE, (page_addr,))

    def _alloc_tree_page(self, root: MapNode) -> int:
        if root.next_free_page is None:
            raise KhazanaError("root node lost its tree-page allocator")
        page_addr = root.next_free_page
        if page_addr + self.io.page_size > SYSTEM_REGION.end:
            raise AddressSpaceExhausted(
                "system region out of address-map tree pages"
            )
        root.next_free_page = page_addr + self.io.page_size
        return page_addr
