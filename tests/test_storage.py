"""Tests for the local storage hierarchy (paper Section 3.4)."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.errors import StorageExhausted
from repro.storage.disk import DiskStore, FileBackedDiskStore, access_cost
from repro.storage.hierarchy import CLUSTER_PAGES, StorageHierarchy
from repro.storage.memory import MemoryStore
from repro.storage.store import StoredPage

PAGE = 4096


def page(addr, fill=b"x", dirty=False):
    return StoredPage(addr, fill * PAGE if len(fill) == 1 else fill,
                      dirty=dirty)


class TestMemoryStore:
    def test_put_get_remove(self):
        store = MemoryStore(4 * PAGE)
        store.put(page(0))
        assert store.get(0).data[:1] == b"x"
        assert store.contains(0)
        assert store.remove(0).address == 0
        assert not store.contains(0)

    def test_capacity_enforced(self):
        store = MemoryStore(2 * PAGE)
        store.put(page(0))
        store.put(page(PAGE))
        with pytest.raises(StorageExhausted):
            store.put(page(2 * PAGE))

    def test_replace_same_page_no_double_count(self):
        store = MemoryStore(2 * PAGE)
        store.put(page(0))
        store.put(page(0, b"y"))
        assert store.used_bytes() == PAGE
        assert store.get(0).data[:1] == b"y"

    def test_lru_order_updates_on_get(self):
        store = MemoryStore(4 * PAGE)
        for i in range(3):
            store.put(page(i * PAGE))
        store.get(0)   # 0 becomes most recent
        assert store.lru_candidates() == [PAGE, 2 * PAGE, 0]

    def test_peek_does_not_touch_lru(self):
        store = MemoryStore(4 * PAGE)
        store.put(page(0))
        store.put(page(PAGE))
        store.peek(0)
        assert store.lru_candidates()[0] == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            MemoryStore(0)


class TestMemoryStoreCachedViews:
    """addresses()/lru_candidates() return cached snapshots; every
    mutation (and, for LRU, every reordering get) must invalidate."""

    def make(self):
        store = MemoryStore(8 * PAGE)
        for i in range(3):
            store.put(page(i * PAGE))
        return store

    def test_views_are_stable_across_reads(self):
        store = self.make()
        assert store.addresses() is store.addresses()
        assert store.lru_candidates() is store.lru_candidates()
        store.peek(0)   # peek neither reorders nor invalidates
        assert store.lru_candidates() is store.lru_candidates()

    def test_put_invalidates_both_views(self):
        store = self.make()
        addrs, lru = store.addresses(), store.lru_candidates()
        store.put(page(3 * PAGE))
        assert store.addresses() == [0, PAGE, 2 * PAGE, 3 * PAGE]
        assert store.lru_candidates()[-1] == 3 * PAGE
        assert addrs == [0, PAGE, 2 * PAGE]   # old snapshot untouched
        assert lru == [0, PAGE, 2 * PAGE]

    def test_replacing_put_keeps_address_view_but_reorders_lru(self):
        store = self.make()
        addrs = store.addresses()
        store.lru_candidates()
        store.put(page(0, b"y"))   # same address: membership unchanged
        assert store.addresses() is addrs
        assert store.lru_candidates() == [PAGE, 2 * PAGE, 0]

    def test_remove_invalidates_both_views(self):
        store = self.make()
        store.addresses(), store.lru_candidates()
        store.remove(PAGE)
        assert store.addresses() == [0, 2 * PAGE]
        assert store.lru_candidates() == [0, 2 * PAGE]

    def test_get_invalidates_lru_view_only(self):
        store = self.make()
        addrs = store.addresses()
        store.lru_candidates()
        store.get(0)
        assert store.lru_candidates() == [PAGE, 2 * PAGE, 0]
        assert store.addresses() is addrs


class TestDiskStore:
    def test_basic_ops(self):
        store = DiskStore(4 * PAGE)
        store.put(page(0, b"d"))
        assert store.get(0).data[:1] == b"d"
        assert store.used_bytes() == PAGE
        store.remove(0)
        assert store.used_bytes() == 0

    def test_access_cost_scales_with_size(self):
        assert access_cost(2 * PAGE) > access_cost(PAGE) > 0


class TestFileBackedDiskStore:
    def test_persistence_across_instances(self, tmp_path):
        d = str(tmp_path / "spill")
        store = FileBackedDiskStore(d, 16 * PAGE)
        store.put(page(0x1000, b"p", dirty=True))
        store.put(page(0x2000, b"q"))
        # A "restarted daemon" re-scans the same directory.
        revived = FileBackedDiskStore(d, 16 * PAGE)
        assert sorted(revived.addresses()) == [0x1000, 0x2000]
        got = revived.get(0x1000)
        assert got.data[:1] == b"p"
        assert got.dirty is True
        assert revived.get(0x2000).dirty is False

    def test_dirty_transition_renames(self, tmp_path):
        d = str(tmp_path / "spill")
        store = FileBackedDiskStore(d, 16 * PAGE)
        store.put(page(0x1000, b"a", dirty=True))
        store.put(page(0x1000, b"b", dirty=False))
        revived = FileBackedDiskStore(d, 16 * PAGE)
        assert revived.get(0x1000).dirty is False
        assert revived.used_bytes() == PAGE

    def test_remove_deletes_file(self, tmp_path):
        d = str(tmp_path / "spill")
        store = FileBackedDiskStore(d, 16 * PAGE)
        store.put(page(0x1000))
        store.remove(0x1000)
        assert FileBackedDiskStore(d, 16 * PAGE).addresses() == []


def hierarchy(mem_pages=2, disk_pages=4, pins=(), on_evict=None, disk=None):
    """``pins`` is consulted live, so a test may pin and unpin pages."""
    return StorageHierarchy(
        memory=MemoryStore(mem_pages * PAGE),
        disk=disk if disk is not None else DiskStore(disk_pages * PAGE),
        is_pinned=lambda a: a in pins,
        on_disk_evict=on_evict or (lambda p: True),
    )


class TestHierarchy:
    def make(self, mem_pages=2, disk_pages=4, pinned=(), on_evict=None):
        return hierarchy(mem_pages, disk_pages, set(pinned), on_evict)

    def test_ram_hit_is_free(self):
        h = self.make()
        h.store(page(0))
        got, cost = h.load(0)
        assert got is not None and cost == 0.0
        assert h.stats.ram_hits == 1

    def test_victimization_to_disk(self):
        h = self.make(mem_pages=2)
        for i in range(3):
            h.store(page(i * PAGE))
        assert h.stats.victimized_to_disk == 1
        assert h.disk.contains(0)          # LRU victim was page 0
        assert h.memory.contains(2 * PAGE)

    def test_disk_hit_promotes_and_charges(self):
        h = self.make(mem_pages=2)
        for i in range(3):
            h.store(page(i * PAGE))
        got, cost = h.load(0)
        assert got is not None
        assert cost > 0
        assert h.stats.disk_hits == 1
        assert h.memory.contains(0)

    def test_miss_counted(self):
        h = self.make()
        got, _ = h.load(0xDEAD000)
        assert got is None
        assert h.stats.misses == 1

    def test_pinned_pages_never_victimized(self):
        h = self.make(mem_pages=2, pinned=(0,))
        h.store(page(0))
        h.store(page(PAGE))
        h.store(page(2 * PAGE))
        assert h.memory.contains(0)
        assert h.disk.contains(PAGE)

    def test_all_pinned_raises(self):
        h = self.make(mem_pages=2, pinned=(0, PAGE, 2 * PAGE))
        h.store(page(0))
        h.store(page(PAGE))
        with pytest.raises(StorageExhausted):
            h.store(page(2 * PAGE))

    def test_disk_eviction_invokes_consistency_hook(self):
        evicted = []
        h = self.make(mem_pages=1, disk_pages=1,
                      on_evict=lambda p: (evicted.append(p.address), True)[1])
        h.store(page(0))
        h.store(page(PAGE))       # 0 victimized to disk
        h.store(page(2 * PAGE))   # PAGE victimized; disk full: 0 evicted
        assert evicted == [0]
        assert h.stats.evicted_from_disk == 1

    def test_eviction_veto_raises(self):
        h = self.make(mem_pages=1, disk_pages=1, on_evict=lambda p: False)
        h.store(page(0))
        h.store(page(PAGE))
        with pytest.raises(StorageExhausted):
            h.store(page(2 * PAGE))

    def test_drop_removes_from_both_levels(self):
        h = self.make(mem_pages=1)
        h.store(page(0))
        h.store(page(PAGE))   # 0 now on disk
        assert h.drop(0).address == 0
        assert h.drop(PAGE).address == PAGE
        assert h.resident_addresses() == []

    def test_store_supersedes_stale_disk_copy(self):
        h = self.make(mem_pages=1)
        h.store(page(0, b"a"))
        h.store(page(PAGE))          # page 0 victimized to disk
        h.store(page(0, b"b"))       # fresh copy arrives
        got, _ = h.load(0)
        assert got.data[:1] == b"b"

    def test_mark_clean(self):
        h = self.make()
        h.store(page(0, b"a", dirty=True))
        assert h.dirty_addresses() == [0]
        h.mark_clean(0)
        assert h.dirty_addresses() == []

    def test_write_through_persists(self):
        h = self.make()
        h.write_through(page(0, b"m"))
        assert h.memory.contains(0)
        assert h.disk.contains(0)

    def test_hit_rate_stats(self):
        h = self.make()
        h.store(page(0))
        h.load(0)
        h.load(0xBAD000)
        assert h.stats.hit_rate() == 0.5
        assert h.stats.ram_hit_rate() == 0.5


class TestInclusiveDisk:
    """The disk level keeps current copies of RAM pages: victimizing a
    page whose copy is current is free, and a page without one is
    written back in one access with the next LRU pages lacking a copy."""

    def test_victimizing_a_page_with_a_current_disk_copy_is_free(self):
        h = hierarchy(mem_pages=2, disk_pages=8)
        h.store(page(0, b"a"))
        h.store(page(PAGE, b"b"))
        # Victim 0 goes down with PAGE in one access; PAGE stays in RAM.
        assert h.store(page(2 * PAGE)) == access_cost(2 * PAGE)
        assert h.memory.contains(PAGE) and h.disk.contains(PAGE)
        assert h.store(page(3 * PAGE)) == 0.0   # victim PAGE: copy current
        assert not h.memory.contains(PAGE)
        assert h.disk.get(PAGE).data == b"b" * PAGE
        # A promoted page keeps its disk copy, so it leaves RAM free too.
        h.load(0)                 # victim 2*PAGE, written with 3*PAGE
        assert h.store(page(4 * PAGE)) == 0.0   # victim 3*PAGE
        assert h.store(page(5 * PAGE)) == 0.0   # victim 0
        assert h.stats.victimized_to_disk == 5
        assert h.stats.disk_writes == 2

    def test_one_cluster_write_costs_one_access(self):
        k = CLUSTER_PAGES
        h = hierarchy(mem_pages=k + 1, disk_pages=4 * k)
        for i in range(k + 1):
            h.store(page(i * PAGE))
        assert h.store(page((k + 1) * PAGE)) == access_cost(k * PAGE)
        assert h.stats.disk_writes == 1
        assert h.stats.victimized_to_disk == 1
        assert sorted(h.disk.addresses()) == [i * PAGE for i in range(k)]
        assert not h.memory.contains(0)
        assert all(h.memory.contains(i * PAGE) for i in range(1, k + 2))

    def test_cluster_skips_pinned_and_excluded_pages(self):
        h = hierarchy(mem_pages=4, disk_pages=8, pins={PAGE})
        for i in range(4):
            h.store(page(i * PAGE))
        # Re-storing 2*PAGE excludes it; PAGE is pinned.
        assert h.store(page(2 * PAGE, b"n")) == access_cost(2 * PAGE)
        assert sorted(h.disk.addresses()) == [0, 3 * PAGE]

    def test_store_after_a_preclean_replaces_the_stale_copy(self):
        h = hierarchy(mem_pages=2, disk_pages=8)
        h.store(page(0))
        h.store(page(PAGE, b"a"))
        h.store(page(2 * PAGE))          # PAGE pre-cleaned with 0
        assert h.disk.get(PAGE).data == b"a" * PAGE
        h.store(page(PAGE, b"b", dirty=True))
        assert not h.disk.contains(PAGE)
        assert h.store_resident(page(2 * PAGE, b"c")) is True
        assert not h.disk.contains(2 * PAGE)
        h.store(page(3 * PAGE))
        h.store(page(4 * PAGE))          # PAGE written back afresh
        got, _ = h.load(PAGE)
        assert got.data == b"b" * PAGE and got.dirty

    def test_cache_copies_are_dropped_before_any_true_eviction(self):
        evicted, pins = [], set()
        h = hierarchy(mem_pages=2, disk_pages=2, pins=pins,
                      on_evict=lambda p: (evicted.append(p.address), True)[1])
        h.store(page(0))
        h.store(page(PAGE))
        h.store(page(2 * PAGE))   # disk: 0 and a cache copy of PAGE
        pins.add(PAGE)
        h.store(page(3 * PAGE))   # victim 2*PAGE; PAGE's copy makes room
        assert evicted == []
        assert h.stats.evicted_from_disk == 0
        assert sorted(h.disk.addresses()) == [0, 2 * PAGE]
        assert h.memory.contains(PAGE)
        pins.clear()
        h.store(page(4 * PAGE))   # victim PAGE: no copy left, evict 0
        assert evicted == [0]

    def test_write_through_copies_are_never_dropped(self):
        evicted = []
        h = hierarchy(mem_pages=2, disk_pages=2, pins={0},
                      on_evict=lambda p: (evicted.append(p.address), True)[1])
        h.write_through(page(0, b"m"))
        h.store(page(PAGE))
        h.store(page(2 * PAGE))   # victim PAGE
        h.store(page(3 * PAGE))   # victim 2*PAGE: disk full
        assert h.disk.get(0).data == b"m" * PAGE
        assert evicted == [PAGE]

    def test_eviction_tries_the_next_candidate_after_a_veto(self):
        evicted = []

        def hook(p):
            if p.address == 0:
                return False
            evicted.append(p.address)
            return True

        h = hierarchy(mem_pages=1, disk_pages=2, on_evict=hook)
        h.store(page(0))
        h.store(page(PAGE))
        h.store(page(2 * PAGE))   # disk: 0 and PAGE
        h.store(page(3 * PAGE))   # 0 vetoes; PAGE may go
        assert evicted == [PAGE]
        assert sorted(h.disk.addresses()) == [0, 2 * PAGE]

    def test_victimizing_a_write_through_page_charges_no_rewrite(self):
        h = hierarchy(mem_pages=1, disk_pages=4)
        h.write_through(page(0, b"w"))
        assert h.store(page(PAGE)) == 0.0
        assert h.stats.disk_writes == 1   # the write-through itself

    def test_write_through_survives_victimize_reload_and_reopen(self, tmp_path):
        d = str(tmp_path / "spill")
        h = hierarchy(mem_pages=1, disk_pages=0,
                      disk=FileBackedDiskStore(d, 8 * PAGE))
        h.write_through(page(0, b"w"))
        h.store(page(PAGE))       # forces page 0 out of RAM
        got, _ = h.load(0)        # and back in
        assert got.data == b"w" * PAGE
        revived = FileBackedDiskStore(d, 8 * PAGE)
        assert revived.get(0).data == b"w" * PAGE


SMALL = 64   # page bytes in the model test: only sizes matter


class HierarchyModel(RuleBasedStateMachine):
    """StorageHierarchy against a dict of address -> (bytes, dirty).

    Three RAM pages, six disk pages, ten addresses, at most one pinned
    page and one page (0) whose eviction is always vetoed: room can
    always be made, so no operation may raise.
    """

    def __init__(self):
        super().__init__()
        self.model = {}
        self.persistent = set()
        self.pins = set()
        self.bad_evictions = []
        self.h = StorageHierarchy(
            memory=MemoryStore(3 * SMALL),
            disk=DiskStore(6 * SMALL),
            is_pinned=lambda a: a in self.pins,
            on_disk_evict=self.evict,
        )

    def evict(self, p):
        if self.h.memory.contains(p.address):
            self.bad_evictions.append(p.address)
        if (bytes(p.data), p.dirty) != self.model.get(p.address):
            self.bad_evictions.append(p.address)
        if p.address == 0:
            return False
        del self.model[p.address]
        self.persistent.discard(p.address)
        return True

    addresses = st.integers(0, 9).map(lambda i: i * SMALL)
    fills = st.sampled_from(b"abc")

    @rule(address=addresses, fill=fills, dirty=st.booleans(),
          how=st.sampled_from(["store", "resident", "through"]))
    def write(self, address, fill, dirty, how):
        p = StoredPage(address, bytes([fill]) * SMALL, dirty=dirty)
        if how == "resident":
            if not self.h.store_resident(p):
                return
        elif how == "through":
            self.h.write_through(p)
        else:
            self.h.store(p)
        self.model[address] = (bytes(p.data), dirty)
        if how == "through":
            self.persistent.add(address)
        else:
            self.persistent.discard(address)

    @rule(address=addresses)
    def load(self, address):
        got, _cost = self.h.load(address)
        if address not in self.model:
            assert got is None
        else:
            assert (bytes(got.data), got.dirty) == self.model[address]

    @rule(address=addresses)
    def drop(self, address):
        self.h.drop(address)
        self.model.pop(address, None)
        self.persistent.discard(address)

    @rule(address=addresses)
    def mark_clean(self, address):
        self.h.mark_clean(address)
        if address in self.model:
            self.model[address] = (self.model[address][0], False)

    @rule(address=st.one_of(st.none(), addresses))
    def pin(self, address):
        self.pins = set() if address is None else {address}

    @invariant()
    def agrees_with_the_model(self):
        h = self.h
        assert self.bad_evictions == []
        assert h.resident_addresses() == sorted(self.model)
        for level in (h.memory, h.disk):
            pages = [level.get(a) for a in level.addresses()]
            assert level.used_bytes() == sum(p.size for p in pages)
            assert level.used_bytes() <= level.capacity_bytes
        for address, (data, dirty) in self.model.items():
            for p in (h.memory.peek(address), h.disk.get(address)):
                if p is not None:   # both levels hold the latest bytes
                    assert (bytes(p.data), p.dirty) == (data, dirty)
        assert self.persistent <= set(h.disk.addresses())


TestHierarchyModel = HierarchyModel.TestCase
TestHierarchyModel.settings = settings(max_examples=60,
                                       stateful_step_count=40,
                                       deadline=None)
