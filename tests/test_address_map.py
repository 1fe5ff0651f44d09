"""Unit tests for the address-map tree over an in-memory page store.

These exercise the tree logic (carving, splitting, coalescing,
lookups, the B-tree shape and its locking, queued releases) without a
cluster;
integration through real daemons is covered by tests/test_core_api.py,
tests/test_location.py and the sim-cluster test at the end.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import create_cluster
from repro.core.address_map import (
    MAX_ENTRIES,
    ROOT_PAGE,
    SYSTEM_REGION,
    AddressMap,
    EntryState,
    MapEntry,
    MapIO,
    MapNode,
    initial_root_node,
)
from repro.core.addressing import AddressRange, DEFAULT_PAGE_SIZE, MAX_ADDRESS
from repro.core.daemon import DaemonConfig
from repro.core.errors import (
    AddressSpaceExhausted,
    AlreadyReserved,
    InvalidRange,
    KhazanaError,
    NotReserved,
)
from repro.core.locks import LockMode
from repro.failure.retry import RetryQueue
from repro.net.clock import EventScheduler
from repro.net.tasks import Future, TaskRunner
from repro.tools import fsck


class FakePageStore(MapIO):
    """MapIO over a plain dict; generators never actually block."""

    def __init__(self):
        self.page_size = DEFAULT_PAGE_SIZE
        self.pages = {ROOT_PAGE: initial_root_node().encode(self.page_size)}
        self.locks_taken = []
        self.writes = []

    def lock_page(self, page_addr, mode):
        self.locks_taken.append((page_addr, mode))
        return page_addr
        yield  # pragma: no cover

    def read_page(self, ctx, page_addr):
        return self.pages.get(page_addr, b"")
        yield  # pragma: no cover

    def write_page(self, ctx, page_addr, data):
        self.writes.append(page_addr)
        self.pages[page_addr] = data
        return None
        yield  # pragma: no cover

    def unlock_page(self, ctx):
        return None
        yield  # pragma: no cover


class LockOrderStore(FakePageStore):
    """Records every WRITE lock taken while another is held whose page
    is not an ancestor of the new one in the stored tree."""

    def __init__(self):
        super().__init__()
        self.held = []
        self.violations = []
        self.parent = {}   # child page -> page whose entry names it

    def lock_page(self, page_addr, mode):
        if mode is LockMode.WRITE:
            if page_addr in self.pages:
                ancestors = set()
                page = page_addr
                while page in self.parent:
                    page = self.parent[page]
                    ancestors.add(page)
                self.violations.extend(
                    (held, page_addr) for held in self.held
                    if held not in ancestors
                )
            self.held.append(page_addr)
        return (page_addr, mode)
        yield  # pragma: no cover

    def write_page(self, ctx, page_addr, data):
        for entry in MapNode.decode(data).entries:
            if entry.state is EntryState.SUBTREE:
                self.parent[entry.child_page] = page_addr
        return (yield from super().write_page(ctx, page_addr, data))

    def unlock_page(self, ctx):
        page_addr, mode = ctx
        if mode is LockMode.WRITE:
            self.held.remove(page_addr)
        return None
        yield  # pragma: no cover


class StaleReadStore(FakePageStore):
    """READ locks see a frozen snapshot (a replica nobody refreshed);
    WRITE locks see the live pages, as a write token's grant does."""

    def __init__(self):
        super().__init__()
        self.snapshot = {}

    def lock_page(self, page_addr, mode):
        self.locks_taken.append((page_addr, mode))
        return (page_addr, mode)
        yield  # pragma: no cover

    def read_page(self, ctx, page_addr):
        _page, mode = ctx
        if mode is LockMode.READ and page_addr in self.snapshot:
            return self.snapshot[page_addr]
        return self.pages.get(page_addr, b"")
        yield  # pragma: no cover


def run(gen):
    outcome = TaskRunner().spawn(gen)
    return outcome.result()


def leaf_depths(pages, page_addr=ROOT_PAGE, depth=1):
    """Set of depths (root = 1) at which non-SUBTREE entries sit."""
    node = MapNode.decode(pages[page_addr])
    depths = set()
    for entry in node.entries:
        if entry.state is EntryState.SUBTREE:
            depths |= leaf_depths(pages, entry.child_page, depth + 1)
        else:
            depths.add(depth)
    return depths


@pytest.fixture
def amap():
    return AddressMap(FakePageStore())


FREE_BASE = SYSTEM_REGION.end


class TestMapNode:
    def test_encode_decode_roundtrip(self):
        node = initial_root_node()
        clone = MapNode.decode(node.encode(DEFAULT_PAGE_SIZE))
        assert [e.to_wire() for e in clone.entries] == [
            e.to_wire() for e in node.entries
        ]
        assert clone.next_free_page == node.next_free_page

    def test_decode_empty_page(self):
        assert MapNode.decode(b"\x00" * 128).entries == []

    def test_entry_covering(self):
        node = initial_root_node()
        assert node.entry_covering(0).state is EntryState.RESERVED
        assert node.entry_covering(FREE_BASE).state is EntryState.FREE
        assert node.entry_covering(MAX_ADDRESS).state is EntryState.FREE

    def test_coalesce_free(self):
        node = MapNode(
            entries=[
                MapEntry(AddressRange(0, 100), EntryState.FREE),
                MapEntry(AddressRange(100, 100), EntryState.FREE),
                MapEntry(AddressRange(200, 100), EntryState.RESERVED, (1,)),
                MapEntry(AddressRange(300, 100), EntryState.FREE),
            ]
        )
        node.coalesce_free()
        assert len(node.entries) == 3
        assert node.entries[0].range == AddressRange(0, 200)


class TestLookupAndReserve:
    def test_initial_lookup(self, amap):
        entry = run(amap.lookup(0))
        assert entry.state is EntryState.RESERVED
        assert entry.home_nodes == (0,)
        assert run(amap.lookup(FREE_BASE)).state is EntryState.FREE

    def test_reserve_then_lookup(self, amap):
        target = AddressRange(FREE_BASE, 0x10000)
        run(amap.reserve(target, (3, 4)))
        entry = run(amap.lookup(FREE_BASE))
        assert entry.state is EntryState.RESERVED
        assert entry.range == target
        assert entry.home_nodes == (3, 4)

    def test_reserve_in_middle_splits_free(self, amap):
        target = AddressRange(FREE_BASE + 0x100000, 0x1000)
        run(amap.reserve(target, (1,)))
        assert run(amap.lookup(FREE_BASE)).state is EntryState.FREE
        assert run(amap.lookup(target.start)).state is EntryState.RESERVED
        assert run(amap.lookup(target.end)).state is EntryState.FREE

    def test_double_reserve_rejected(self, amap):
        target = AddressRange(FREE_BASE, 0x1000)
        run(amap.reserve(target, (1,)))
        with pytest.raises(AlreadyReserved):
            run(amap.reserve(target, (2,)))

    def test_straddling_reserve_rejected(self, amap):
        run(amap.reserve(AddressRange(FREE_BASE, 0x1000), (1,)))
        with pytest.raises((AlreadyReserved, InvalidRange)):
            run(amap.reserve(
                AddressRange(FREE_BASE + 0x800, 0x1000), (2,)
            ))

    def test_release_returns_to_free_and_coalesces(self, amap):
        target = AddressRange(FREE_BASE, 0x1000)
        run(amap.reserve(target, (1,)))
        run(amap.release(target))
        entry = run(amap.lookup(FREE_BASE))
        assert entry.state is EntryState.FREE
        # Coalesced back into the single huge free entry.
        assert entry.range.end == MAX_ADDRESS + 1

    def test_release_unreserved_rejected(self, amap):
        with pytest.raises(NotReserved):
            run(amap.release(AddressRange(FREE_BASE, 0x1000)))

    def test_update_homes(self, amap):
        target = AddressRange(FREE_BASE, 0x1000)
        run(amap.reserve(target, (1,)))
        run(amap.update_homes(target, (2, 5)))
        assert run(amap.lookup(FREE_BASE)).home_nodes == (2, 5)


class TestDelegation:
    def test_delegate_then_reserve_inside(self, amap):
        chunk = AddressRange(FREE_BASE, 1 << 30)
        run(amap.delegate(chunk, 7))
        entry = run(amap.lookup(FREE_BASE))
        assert entry.state is EntryState.DELEGATED
        assert entry.manager_node == 7
        inner = AddressRange(FREE_BASE + 0x4000, 0x1000)
        run(amap.reserve(inner, (7,)))
        assert run(amap.lookup(inner.start)).state is EntryState.RESERVED
        assert run(amap.lookup(FREE_BASE)).state is EntryState.DELEGATED

    def test_delegate_requires_free(self, amap):
        run(amap.reserve(AddressRange(FREE_BASE, 0x1000), (1,)))
        with pytest.raises(NotReserved):
            run(amap.delegate(AddressRange(FREE_BASE, 0x1000), 3))


class TestFindFree:
    def test_finds_aligned_extent(self, amap):
        found = run(amap.find_free(0x10000, alignment=0x10000))
        assert found.start % 0x10000 == 0
        assert found.length == 0x10000
        assert run(amap.lookup(found.start)).state is EntryState.FREE

    def test_skips_reserved(self, amap):
        run(amap.reserve(AddressRange(FREE_BASE, 0x1000), (1,)))
        found = run(amap.find_free(0x1000, alignment=0x1000))
        assert found.start >= FREE_BASE + 0x1000

    def test_exhaustion_raises(self, amap):
        # Ask for more than the entire address space.
        with pytest.raises((AddressSpaceExhausted, ValueError)):
            run(amap.find_free(MAX_ADDRESS + 1, alignment=1))


class TestSplitting:
    def test_node_splits_after_many_reserves(self, amap):
        for i in range(MAX_ENTRIES + 4):
            # Leave gaps so FREE fragments can't coalesce away.
            start = FREE_BASE + i * 0x10000
            run(amap.reserve(AddressRange(start, 0x4000), (i,)))
        root = MapNode.decode(amap.io.pages[ROOT_PAGE])
        assert any(e.state is EntryState.SUBTREE for e in root.entries)
        # Every reservation still resolves correctly through subtrees.
        for i in range(MAX_ENTRIES + 4):
            start = FREE_BASE + i * 0x10000
            entry = run(amap.lookup(start))
            assert entry.state is EntryState.RESERVED
            assert entry.home_nodes == (i,)

    def test_enumerate_reserved_spans_subtrees(self, amap):
        count = MAX_ENTRIES + 4
        for i in range(count):
            start = FREE_BASE + i * 0x10000
            run(amap.reserve(AddressRange(start, 0x4000), (i,)))
        reserved = run(amap.enumerate_reserved())
        # +1 for the system region itself.
        assert len(reserved) == count + 1


def gapped(i):
    """The i-th of a run of reservations with FREE gaps between them,
    so each adds two entries that cannot coalesce away."""
    return AddressRange(FREE_BASE + i * 0x10000, 0x4000)


def root_entries(store):
    return MapNode.decode(store.pages[ROOT_PAGE]).entries


def root_has_split(store):
    return root_entries(store)[0].state is EntryState.SUBTREE


def reserve_until(amap, first, done):
    """Reserve ``gapped(first)``, ``gapped(first + 1)``, ... until
    ``done()`` holds (within a few node-fills); returns the next
    unused index."""
    for i in range(first, first + 4 * MAX_ENTRIES):
        if done():
            return i
        run(amap.reserve(gapped(i), (1,)))
    pytest.fail("the tree never reached the expected shape")


class TestBalancedTree:
    def test_contiguous_reserves_stay_shallow(self):
        """5,000 reserves carved back to back from one delegated chunk
        (how a node's space pool hands them out) keep every leaf at
        one depth of at most 3, and every reservation resolves."""
        store = FakePageStore()
        amap = AddressMap(store)
        run(amap.delegate(AddressRange(FREE_BASE, 1 << 40), 1))
        count = 5000
        for i in range(count):
            start = FREE_BASE + i * DEFAULT_PAGE_SIZE
            run(amap.reserve(AddressRange(start, DEFAULT_PAGE_SIZE),
                             (i % 7,)))
        depths = leaf_depths(store.pages)
        assert len(depths) == 1 and max(depths) <= 3, depths
        for i in range(count):
            start = FREE_BASE + i * DEFAULT_PAGE_SIZE
            entry = run(amap.lookup(start))
            assert entry.state is EntryState.RESERVED
            assert entry.range == AddressRange(start, DEFAULT_PAGE_SIZE)
            assert entry.home_nodes == (i % 7,)

    def test_root_split_promotes_both_halves(self, amap):
        store = amap.io
        reserve_until(amap, 0, lambda: root_has_split(store))
        pages = store.pages
        entries = root_entries(store)
        assert [e.state for e in entries] == [EntryState.SUBTREE] * 2
        for entry in entries:
            assert MapNode.decode(pages[entry.child_page]).span() == \
                entry.range
        assert leaf_depths(pages) == {2}

    def test_reserve_without_split_writes_only_its_leaf(self):
        store = FakePageStore()
        amap = AddressMap(store)
        for i in range(MAX_ENTRIES + 4):
            run(amap.reserve(gapped(i), (1,)))
        before = dict(store.pages)
        store.locks_taken.clear()
        target = AddressRange(gapped(0).end + 0x1000, 0x1000)
        run(amap.reserve(target, (2,)))
        writes = [page for page, mode in store.locks_taken
                  if mode is LockMode.WRITE]
        assert len(writes) == 1 and writes[0] != ROOT_PAGE
        changed = {p for p, data in store.pages.items()
                   if before.get(p) != data}
        assert changed == set(writes)

    def test_write_locks_go_parent_before_child(self):
        """600 gapped reserves split leaves, interior nodes and the
        root twice; no WRITE lock is ever taken on a page while a
        lock on something other than its ancestor is held."""
        store = LockOrderStore()
        amap = AddressMap(store)
        for i in range(600):
            run(amap.reserve(gapped(i), (1,)))
            if i % 5 == 4:
                run(amap.release(gapped(i - 2)))
        assert leaf_depths(store.pages) == {3}
        assert store.violations == []
        assert store.held == []

    def test_failed_edit_releases_its_locks(self):
        store = LockOrderStore()
        amap = AddressMap(store)
        for i in range(MAX_ENTRIES + 4):
            run(amap.reserve(gapped(i), (1,)))
        with pytest.raises(AlreadyReserved):
            run(amap.reserve(gapped(3), (2,)))
        with pytest.raises(InvalidRange):
            run(amap.release(AddressRange(gapped(3).start, 0x10000)))
        assert store.held == []

    def test_stale_interior_replica_retries_from_the_root(self):
        store = StaleReadStore()
        amap = AddressMap(store)
        i = reserve_until(amap, 0, lambda: root_has_split(store))
        store.snapshot = dict(store.pages)   # replicas stop refreshing
        i = reserve_until(amap, i, lambda: len(root_entries(store)) == 3)
        # The right leaf split: the upper half of its range moved to a
        # page that the stale root replica does not point to.
        store.locks_taken.clear()
        target = gapped(i + 10)
        run(amap.reserve(target, (5,)))
        assert (ROOT_PAGE, LockMode.WRITE) in store.locks_taken
        store.snapshot = {}
        entry = run(amap.lookup(target.start))
        assert entry.range == target and entry.home_nodes == (5,)
        assert leaf_depths(store.pages) == {2}


class GatedWriteStore(FakePageStore):
    """Page writes raise ``fail`` once when it is set, and block on the
    ``gate`` future while that is set."""

    def __init__(self):
        super().__init__()
        self.gate = None
        self.fail = None

    def write_page(self, ctx, page_addr, data):
        if self.fail is not None:
            error, self.fail = self.fail, None
            raise error
        if self.gate is not None:
            yield self.gate
        return (yield from super().write_page(ctx, page_addr, data))


def split_tree(store):
    """A map over ``store`` filled until its root has split; returns
    it and the next unused ``gapped`` index."""
    amap = AddressMap(store)
    return amap, reserve_until(amap, 0, lambda: root_has_split(store))


def leaf_of(store, address):
    """The stored page whose non-SUBTREE entry covers ``address``."""
    page_addr = ROOT_PAGE
    while True:
        entry = MapNode.decode(store.pages[page_addr]).entry_covering(address)
        if entry.state is not EntryState.SUBTREE:
            return page_addr
        page_addr = entry.child_page


def state_at(amap, address):
    return run(amap.lookup(address)).state


#: A FREE gap inside the left leaf of a just-split tree.
LEFT_GAP = AddressRange(gapped(3).end + 0x1000, 0x1000)


class TestQueuedReleases:
    def test_releases_ride_on_one_reserve_write(self):
        store = FakePageStore()
        amap, _ = split_tree(store)
        leaf = leaf_of(store, LEFT_GAP.start)
        assert leaf != ROOT_PAGE
        for i in range(3):
            assert leaf_of(store, gapped(i).start) == leaf
            amap.queue_release(gapped(i))
        store.locks_taken.clear()
        store.writes.clear()
        run(amap.reserve(LEFT_GAP, (2,)))
        writes = [page for page, mode in store.locks_taken
                  if mode is LockMode.WRITE]
        assert writes == [leaf]
        assert store.writes == [leaf]
        assert amap.queued_releases == ()
        for i in range(3):
            assert state_at(amap, gapped(i).start) is EntryState.FREE
        assert run(amap.lookup(LEFT_GAP.start)).home_nodes == (2,)

    def test_queued_release_applies_before_the_edit(self):
        """The reserve covers the released range and the gap after it,
        which is one FREE entry only once the release has coalesced."""
        amap, _ = split_tree(FakePageStore())
        amap.queue_release(gapped(1))
        target = AddressRange(gapped(1).start, 0x8000)
        run(amap.reserve(target, (2,)))
        entry = run(amap.lookup(target.start))
        assert entry.range == target and entry.home_nodes == (2,)
        assert amap.queued_releases == ()

    def test_failed_edit_keeps_the_queue(self):
        store = FakePageStore()
        amap, _ = split_tree(store)
        releases = [amap.queue_release(gapped(i)) for i in (0, 1)]
        before = dict(store.pages)
        store.writes.clear()
        with pytest.raises(AlreadyReserved):
            run(amap.reserve(gapped(2), (2,)))
        assert store.writes == [] and store.pages == before
        assert amap.queued_releases == tuple(releases)
        assert all(release.claim is None for release in releases)
        run(amap.flush_release(releases[0]))
        assert amap.queued_releases == ()
        for i in (0, 1):
            assert state_at(amap, gapped(i).start) is EntryState.FREE

    def test_failed_page_write_clears_the_claims(self):
        store = GatedWriteStore()
        amap, _ = split_tree(store)
        releases = [amap.queue_release(gapped(i)) for i in (0, 1)]
        store.fail = KhazanaError("write-through failed")
        with pytest.raises(KhazanaError, match="write-through"):
            run(amap.reserve(LEFT_GAP, (2,)))
        assert amap.queued_releases == tuple(releases)
        assert all(release.claim is None for release in releases)
        assert state_at(amap, gapped(0).start) is EntryState.RESERVED
        run(amap.reserve(LEFT_GAP, (2,)))
        assert amap.queued_releases == ()
        assert state_at(amap, gapped(0).start) is EntryState.FREE

    def test_release_on_another_leaf_flushes_alone(self):
        store = FakePageStore()
        amap, next_index = split_tree(store)
        release = amap.queue_release(gapped(0))
        left = leaf_of(store, gapped(0).start)
        target = AddressRange(gapped(next_index - 1).end + 0x1000, 0x1000)
        right = leaf_of(store, target.start)
        assert right != left
        store.writes.clear()
        run(amap.reserve(target, (2,)))
        assert store.writes == [right]
        assert amap.queued_releases == (release,)
        assert state_at(amap, gapped(0).start) is EntryState.RESERVED
        run(amap.flush_release(release))
        assert store.writes == [right, left]
        assert state_at(amap, gapped(0).start) is EntryState.FREE

    def test_burst_of_releases_flushes_as_one_write(self):
        store = FakePageStore()
        amap, _ = split_tree(store)
        leaf = leaf_of(store, gapped(0).start)
        landed = []
        releases = []
        for i in range(6):
            assert leaf_of(store, gapped(i).start) == leaf
            release = amap.queue_release(gapped(i))
            release.on_landed = lambda i=i: landed.append(i)
            releases.append(release)
        store.locks_taken.clear()
        store.writes.clear()
        run(amap.flush_release(releases[2]))
        assert store.writes == [leaf]
        assert sorted(landed) == list(range(6))
        for release in releases:   # each one's own flush: a no-op now
            run(amap.flush_release(release))
        assert store.writes == [leaf]
        assert [page for page, mode in store.locks_taken
                if mode is LockMode.WRITE] == [leaf]

    def _flush_behind_a_gated_reserve(self):
        """A queued release with its retry item, a reserve carrying it
        blocked in its page write, and the flush fired meanwhile."""
        store = GatedWriteStore()
        amap, _ = split_tree(store)
        scheduler = EventScheduler()
        runner = TaskRunner()
        retry = RetryQueue(scheduler, runner.spawn)
        release = amap.queue_release(gapped(0))
        item_id = retry.enqueue(lambda: amap.flush_release(release),
                                label="flush", delay=1.0)
        release.on_landed = lambda: retry.finish(item_id)
        gate = store.gate = Future("write-through")
        store.writes.clear()
        reserve = runner.spawn(amap.reserve(LEFT_GAP, (2,)))
        assert not reserve.done and release.claim is not None
        scheduler.run_until(2.0)   # the flush fires and waits
        assert retry.pending == 1 and release.claim is not None
        store.gate = None
        return store, amap, scheduler, retry, gate, reserve

    def test_flush_during_a_carrying_write_applies_it_once(self):
        store, amap, scheduler, retry, gate, reserve = \
            self._flush_behind_a_gated_reserve()
        gate.set_result(None)
        assert reserve.done and reserve.exception() is None
        scheduler.run_until_idle()
        assert retry.pending == 0
        assert retry.stats.failed_attempts == 0
        assert retry.stats.succeeded == 1
        assert store.writes == [leaf_of(store, LEFT_GAP.start)]
        assert amap.queued_releases == ()
        assert state_at(amap, gapped(0).start) is EntryState.FREE

    def test_flush_applies_the_release_when_the_carrying_write_fails(self):
        store, amap, scheduler, retry, gate, reserve = \
            self._flush_behind_a_gated_reserve()
        gate.set_exception(KhazanaError("write-through failed"))
        assert isinstance(reserve.exception(), KhazanaError)
        scheduler.run_until_idle()
        assert retry.pending == 0
        assert retry.stats.failed_attempts == 0
        assert store.writes == [leaf_of(store, gapped(0).start)]
        assert state_at(amap, gapped(0).start) is EntryState.FREE
        assert state_at(amap, LEFT_GAP.start) is EntryState.FREE


def flat_entries(pages):
    """Leaf entries in address order, adjacent FREE ones merged: the
    map's contents regardless of where node boundaries fall."""
    leaves = []

    def walk(page_addr):
        for entry in MapNode.decode(pages[page_addr]).entries:
            if entry.state is EntryState.SUBTREE:
                walk(entry.child_page)
            else:
                leaves.append(entry)

    walk(ROOT_PAGE)
    merged = []
    for entry in leaves:
        if (merged and entry.state is EntryState.FREE
                and merged[-1].state is EntryState.FREE):
            merged[-1] = MapEntry(merged[-1].range.union(entry.range),
                                  EntryState.FREE)
        else:
            merged.append(entry)
    return merged


class TestMapProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=200),
                st.integers(min_value=1, max_value=8),
                st.sampled_from(["reserve", "release", "queue", "flush"]),
            ),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_partition_invariant(self, ops):
        """After arbitrary reserve/release sequences, some releases
        queued and flushed later, the tree still partitions the whole
        address space into disjoint entries with every leaf at the same
        depth; once the queue is flushed it holds what a serial model,
        releasing every range at once, holds."""
        amap = AddressMap(FakePageStore())
        serial = AddressMap(FakePageStore())
        live = {}
        for slot, pages, action in ops:
            start = FREE_BASE + slot * 0x10000
            rng = AddressRange(start, pages * DEFAULT_PAGE_SIZE)
            if action == "flush":
                if amap.queued_releases:
                    run(amap.flush_release(amap.queued_releases[0]))
            elif action != "reserve" and start in live:
                target = live.pop(start)
                run(serial.release(target))
                if action == "queue":
                    amap.queue_release(target)
                else:
                    run(amap.release(target))
            elif start not in live:
                overlapping = any(
                    rng.overlaps(other) for other in live.values()
                )
                if not overlapping:
                    run(amap.reserve(rng, (1,)))
                    run(serial.reserve(rng, (1,)))
                    live[start] = rng
        for release in amap.queued_releases:
            run(amap.flush_release(release))
        assert amap.queued_releases == ()
        assert flat_entries(amap.io.pages) == flat_entries(serial.io.pages)
        # Every live reservation resolves; released space is free.
        for start, rng in live.items():
            entry = run(amap.lookup(start))
            assert entry.state is EntryState.RESERVED
            assert entry.range == rng
        entries = run(amap.enumerate_reserved())
        assert len(entries) == len(live) + 1   # + system region
        assert len(leaf_depths(amap.io.pages)) == 1


class TestOnSimCluster:
    def test_newest_of_1200_regions_resolves_through_the_map(self):
        cluster = create_cluster(
            num_nodes=3, config=DaemonConfig(use_cluster_hints=False)
        )
        owner = cluster.client(node=1)
        for _ in range(1200):
            newest = owner.reserve(4096)
        reader = cluster.client(node=2)
        daemon = cluster.daemon(2)
        desc = reader.driver.wait(reader.submit(
            daemon.location.locate_region(newest.rid, skip_directory=True),
            "locate",
        ))
        assert desc.rid == newest.rid
        # Tier 3 answered: the map walk did not hit its depth bound
        # and fall through to the cluster walk.
        assert daemon.stats.lookup_tiers.get("map") == 1
        assert "walk" not in daemon.stats.lookup_tiers
        entry = reader.driver.wait(reader.submit(
            daemon.address_map.lookup(newest.rid), "lookup"
        ))
        assert entry.range == newest.range

    def test_unreserved_ranges_are_free_after_one_housekeeping_period(self):
        config = DaemonConfig()
        cluster = create_cluster(num_nodes=3, config=config)
        owner = cluster.client(node=1)
        regions = [owner.reserve(4096) for _ in range(6)]
        for desc in regions:
            owner.allocate(desc.rid)
        gone = regions[::2]
        for desc in gone:
            owner.unreserve(desc.rid)
        # Until the queued releases land the map still names them.
        lagging = [w for w in fsck.check_cluster(cluster).warnings
                   if "no live node homes it" in w]
        assert len(lagging) == len(gone)
        cluster.run(config.housekeeping_period + 1)
        for node in cluster.node_ids():
            assert cluster.daemon(node).retry_queue.pending == 0
        daemon = cluster.daemon(1)
        assert daemon.address_map.queued_releases == ()
        for desc in gone:
            entry = owner.driver.wait(owner.submit(
                daemon.address_map.lookup(desc.rid), "lookup"
            ))
            assert entry.state is EntryState.FREE
        report = fsck.check_cluster(cluster)
        assert report.ok, report.render()
        assert not [w for w in report.warnings
                    if "no live node homes it" in w], report.render()

    def test_reserve_carrying_a_release_costs_a_lone_reserve(self):
        cluster = create_cluster(
            num_nodes=3,
            config=DaemonConfig(enable_failure_handling=False,
                                use_cluster_hints=False),
        )
        owner = cluster.client(node=1)
        daemon = cluster.daemon(1)
        regions = [owner.reserve(4096) for _ in range(3)]

        def sent_by(action):
            before = cluster.stats.snapshot()
            action()
            return cluster.stats.delta_since(before)

        lone = sent_by(lambda: owner.reserve(4096))
        owner.unreserve(regions[0].rid)
        assert len(daemon.address_map.queued_releases) == 1
        carrying = sent_by(lambda: owner.reserve(4096))
        assert daemon.address_map.queued_releases == ()
        assert daemon.retry_queue.pending == 0
        assert carrying.messages_sent == lone.messages_sent
        assert carrying.by_type == lone.by_type
