"""Two-level RAM/disk storage hierarchy with victimization.

Implements paper Section 3.4's prototype behaviour: "there are two
levels of local storage: main memory and on-disk.  When memory is full,
the local storage system can victimize pages from RAM to disk.  When
the disk cache wants to victimize a page, it must invoke the
consistency protocol associated with the page to update the list of
sharers, push any dirty data to remote nodes, etc."

The hierarchy knows nothing about regions or consistency; the daemon
supplies two callbacks: ``is_pinned`` (locked pages may not be
victimized) and ``on_disk_evict`` (the consistency-protocol hook run
before a page leaves the node entirely).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.core.errors import StorageExhausted
from repro.storage.disk import DiskStore, access_cost
from repro.storage.memory import MemoryStore
from repro.storage.store import PageStore, StoredPage

#: ``on_disk_evict(page)`` must push dirty data / update sharer lists
#: for ``page`` and return True when the page may now be discarded.
EvictionCallback = Callable[[StoredPage], bool]

#: ``is_pinned(address)`` — True when the page is under an active lock
#: context and must stay resident.
PinCheck = Callable[[int], bool]


@dataclass
class StorageStats:
    """Counters exposed to the C5 storage benchmark."""

    ram_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    victimized_to_disk: int = 0
    evicted_from_disk: int = 0
    write_throughs: int = 0
    simulated_io_seconds: float = 0.0

    def hit_rate(self) -> float:
        total = self.ram_hits + self.disk_hits + self.misses
        if total == 0:
            return 0.0
        return (self.ram_hits + self.disk_hits) / total

    def ram_hit_rate(self) -> float:
        total = self.ram_hits + self.disk_hits + self.misses
        if total == 0:
            return 0.0
        return self.ram_hits / total


class StorageHierarchy:
    """RAM over disk, indexed by global page address."""

    def __init__(
        self,
        memory: Optional[MemoryStore] = None,
        disk: Optional[PageStore] = None,
        is_pinned: Optional[PinCheck] = None,
        on_disk_evict: Optional[EvictionCallback] = None,
    ) -> None:
        self.memory = memory if memory is not None else MemoryStore(64 * 4096)
        self.disk = disk if disk is not None else DiskStore(1024 * 4096)
        self._is_pinned: PinCheck = is_pinned if is_pinned else lambda _addr: False
        self._on_disk_evict: EvictionCallback = (
            on_disk_evict if on_disk_evict else lambda _page: True
        )
        self.stats = StorageStats()

    def set_pin_check(self, is_pinned: PinCheck) -> None:
        self._is_pinned = is_pinned

    def set_evict_callback(self, on_disk_evict: EvictionCallback) -> None:
        self._on_disk_evict = on_disk_evict

    # --- Lookup ------------------------------------------------------------

    def load(self, address: int) -> Tuple[Optional[StoredPage], float]:
        """Fetch a page, promoting disk hits into RAM.

        Returns ``(page, simulated_cost_seconds)``; ``page`` is None on
        a miss (the caller then fetches the page remotely).
        """
        page = self.memory.get(address)
        if page is not None:
            self.stats.ram_hits += 1
            return page, 0.0
        page = self.disk.get(address)
        if page is not None:
            self.stats.disk_hits += 1
            cost = access_cost(page.size)
            self.stats.simulated_io_seconds += cost
            self._promote(page)
            return page, cost
        self.stats.misses += 1
        return None, 0.0

    def load_resident(self, address: int) -> Optional[StoredPage]:
        """RAM-only, zero-cost lookup: the hot-path form of :meth:`load`.

        Counts a RAM hit exactly as :meth:`load` would; a miss is *not*
        counted here — the caller falls back to :meth:`load`, which
        classifies it (disk hit or true miss).
        """
        page = self.memory.get(address)
        if page is not None:
            self.stats.ram_hits += 1
        return page

    def store_resident(self, page: StoredPage) -> bool:
        """Store without victimization: True when the page fit in RAM.

        The hot-path form of :meth:`store` — identical bookkeeping when
        it succeeds, but returns False instead of evicting when RAM is
        full, so callers can fall back to the cost-charging path.
        """
        existing = self.memory.peek(page.address)
        delta = page.size - (existing.size if existing is not None else 0)
        if not self.memory.has_room_for(delta):
            return False
        # Stale duplicate on disk would shadow the fresh RAM copy later.
        self.disk.remove(page.address)
        self.memory.put(page)
        return True

    def contains(self, address: int) -> bool:
        return self.memory.contains(address) or self.disk.contains(address)

    def peek(self, address: int) -> Optional[StoredPage]:
        """Non-promoting lookup used by metadata scans."""
        page = self.memory.peek(address)
        if page is not None:
            return page
        return self.disk.get(address)

    # --- Insertion -----------------------------------------------------------

    def store(self, page: StoredPage) -> float:
        """Place a page in RAM, victimizing colder pages as needed.

        Returns the simulated I/O cost incurred by any victimization.
        Raises :class:`StorageExhausted` if both levels are full of
        pinned/unevictable pages.
        """
        # Stale duplicate on disk would shadow the fresh RAM copy later.
        self.disk.remove(page.address)
        cost = self._make_room_in_memory(page.size, exclude=page.address)
        self.memory.put(page)
        return cost

    def write_through(self, page: StoredPage) -> float:
        """Store and immediately persist to disk (used for metadata the
        node homes, which must survive a restart)."""
        cost = self.store(page)
        persisted = StoredPage(page.address, page.data, dirty=page.dirty)
        room_cost = self._make_room_on_disk(persisted.size, exclude=page.address)
        self.disk.put(persisted)
        io = access_cost(persisted.size)
        self.stats.write_throughs += 1
        self.stats.simulated_io_seconds += io
        return cost + room_cost + io

    # --- Removal ---------------------------------------------------------------

    def drop(self, address: int) -> Optional[StoredPage]:
        """Discard a page from every level (e.g. on invalidation).

        Returns whichever copy was most current, RAM preferred.
        """
        ram = self.memory.remove(address)
        disk = self.disk.remove(address)
        return ram if ram is not None else disk

    def mark_clean(self, address: int) -> None:
        """Clear the dirty bit after a successful write-back."""
        page = self.memory.peek(address)
        if page is not None:
            page.dirty = False
        disk_page = self.disk.get(address)
        if disk_page is not None and disk_page.dirty:
            disk_page.dirty = False
            self.disk.put(disk_page)

    # --- Introspection ------------------------------------------------------------

    def resident_addresses(self) -> List[int]:
        return sorted(set(self.memory.addresses()) | set(self.disk.addresses()))

    def dirty_addresses(self) -> List[int]:
        dirty = []
        for address in self.memory.addresses():
            page = self.memory.peek(address)
            if page is not None and page.dirty:
                dirty.append(address)
        for address in self.disk.addresses():
            if address in dirty:
                continue
            page = self.disk.get(address)
            if page is not None and page.dirty:
                dirty.append(address)
        return sorted(dirty)

    def used_bytes(self) -> int:
        return self.memory.used_bytes() + self.disk.used_bytes()

    # --- Internals ----------------------------------------------------------------

    def _promote(self, page: StoredPage) -> None:
        """Move a disk hit up into RAM (best effort: skipped when RAM is
        entirely pinned)."""
        try:
            self._make_room_in_memory(page.size, exclude=page.address)
        except StorageExhausted:
            return
        self.disk.remove(page.address)
        self.memory.put(page)

    def _make_room_in_memory(self, size: int, exclude: int) -> float:
        cost = 0.0
        guard = len(self.memory) + 1
        while not self.memory.has_room_for(size) and guard > 0:
            guard -= 1
            victim_addr = self._pick_ram_victim(exclude)
            if victim_addr is None:
                raise StorageExhausted(
                    "RAM full and every resident page is pinned"
                )
            victim = self.memory.remove(victim_addr)
            if victim is None:
                continue
            cost += self._make_room_on_disk(victim.size, exclude=exclude)
            self.disk.put(victim)
            io = access_cost(victim.size)
            self.stats.simulated_io_seconds += io
            self.stats.victimized_to_disk += 1
            cost += io
        if not self.memory.has_room_for(size):
            raise StorageExhausted("RAM full and victimization stalled")
        return cost

    def _pick_ram_victim(self, exclude: int) -> Optional[int]:
        for address in self.memory.lru_candidates():
            if address == exclude:
                continue
            if self._is_pinned(address):
                continue
            # Replacing an existing copy of the same page is handled by
            # MemoryStore.put; only true victims reach here.
            return address
        return None

    def _make_room_on_disk(self, size: int, exclude: int) -> float:
        cost = 0.0
        guard = len(self.disk) + 1
        while not self.disk.has_room_for(size) and guard > 0:
            guard -= 1
            victim_addr = self._pick_disk_victim(exclude)
            if victim_addr is None:
                raise StorageExhausted(
                    "disk full and no page may be evicted"
                )
            victim = self.disk.get(victim_addr)
            if victim is None:
                continue
            # Paper 3.4: disk eviction must first run the page's
            # consistency protocol (push dirty data, fix sharer lists).
            if not self._on_disk_evict(victim):
                raise StorageExhausted(
                    f"consistency protocol vetoed eviction of page "
                    f"{victim_addr:#x}"
                )
            self.disk.remove(victim_addr)
            self.stats.evicted_from_disk += 1
            cost += access_cost(victim.size)
        if not self.disk.has_room_for(size):
            raise StorageExhausted("disk full and eviction stalled")
        return cost

    def _pick_disk_victim(self, exclude: int) -> Optional[int]:
        for address in self.disk.addresses():
            if address == exclude:
                continue
            if self._is_pinned(address):
                continue
            return address
        return None
