"""The three benchmark workloads: op generation, setup, execution, checks.

Each workload turns ``--seed`` into its whole op sequence before any
timing starts (:meth:`Workload.generate`); the cluster only ever sees
the generated ops.  Load is a closed loop with one op outstanding: the
next op is issued only after the previous one returned.

Correctness is checked inline.  A read that disagrees with the value
the benchmark expects is a failed op (``Workload.mismatches``), as is
any op that raises ``KhazanaError``/``RpcTimeout``/``RemoteError`` or
runs past the per-op wall-clock bound; the run continues either way.
"""

from __future__ import annotations

import bisect
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from harness import Cluster

from repro.core.addressing import AddressRange, DEFAULT_PAGE_SIZE
from repro.core.attributes import ConsistencyLevel, RegionAttributes
from repro.core.errors import KhazanaError
from repro.core.locks import LockMode
from repro.net.rpc import RemoteError, RpcTimeout

PAGE = DEFAULT_PAGE_SIZE

#: Exceptions that make one op count as failed (the run continues).
OP_ERRORS = (KhazanaError, RpcTimeout, RemoteError, TimeoutError)


def _filler(rng: random.Random, length: int) -> bytes:
    """Seeded, non-repeating-looking bytes (cheap: one 32-byte block)."""
    block = rng.getrandbits(256).to_bytes(32, "little")
    return (block * (length // 32 + 1))[:length]


def populate(cluster: Cluster, rng: random.Random, regions: int,
             pages: int, level: ConsistencyLevel) -> List[Tuple[int, bytes]]:
    """Reserve, allocate and fill ``regions`` regions of ``pages`` pages,
    homed alternately on daemons 0 and 1; returns (rid, contents) each."""
    attrs = RegionAttributes(consistency_level=level, page_size=PAGE)
    size = pages * PAGE
    made = []
    for region in range(regions):
        home = cluster.sessions[region % 2]
        desc = home.reserve(size, attrs)
        home.allocate(desc.rid)
        initial = _filler(rng, size)
        ctx = home.lock(desc.rid, size, LockMode.WRITE)
        home.write(ctx, desc.rid, initial)
        home.unlock(ctx)
        made.append((desc.rid, initial))
    return made


class Workload:
    """One workload: topology, generated ops, setup and per-op work."""

    name = ""
    #: Daemons in the cluster; the last ``len(clients)`` are clients.
    num_nodes = 0
    #: Node ids that run client sessions.
    clients: Tuple[int, ...] = ()
    #: Ops generated per measured second, a few times the measured rate;
    #: a run that outlasts them replays the sequence from its start.
    ops_per_second_cap = 0
    #: Percentile reported as ``tail_ms`` (the highest one with at
    #: least ten samples beyond it at the prototype's run length).
    tail_percentile = 99

    def __init__(self) -> None:
        self.cluster: Optional[Cluster] = None
        #: (op index, description) of every wrong read seen.
        self.mismatches: List[Tuple[int, str]] = []
        #: (op index, error) of every op that raised.
        self.errors: List[Tuple[int, str]] = []

    # --- op sequence ------------------------------------------------------

    def generate(self, seed: int, count: int) -> List[Any]:
        raise NotImplementedError

    # --- lifecycle --------------------------------------------------------

    def setup(self, cluster: Cluster, seed: int) -> None:
        """Populate regions and warm caches until the workload is ready."""
        raise NotImplementedError

    def execute(self, index: int, op: Any) -> bool:
        """Run one op; False when its read disagreed with expectation."""
        raise NotImplementedError

    def home_nodes(self) -> Tuple[int, ...]:
        return tuple(n for n in range(self.num_nodes)
                     if n not in self.clients)

    # --- negated check ----------------------------------------------------

    def probe_address(self) -> Tuple[int, int, int]:
        """(session node, address, length) of one verified location."""
        raise NotImplementedError

    def expected_at(self, address: int, length: int) -> bytes:
        raise NotImplementedError

    def corrupt_expectation(self, address: int) -> None:
        """Flip one expected byte at ``address`` (negated self-check)."""
        raise NotImplementedError

    def verify_read(self, node: int, address: int, length: int) -> bool:
        """Read ``address`` under a READ lock and compare to expectation."""
        session = self.cluster.sessions[node]
        ctx = session.lock(address, length, LockMode.READ)
        try:
            got = session.read(ctx, address, length)
        finally:
            session.unlock(ctx)
        return bytes(got) == self.expected_at(address, length)


# ---------------------------------------------------------------------------
# hot_shared: two clients alternating on 128 CREW pages, Zipf 0.99
# ---------------------------------------------------------------------------


def write_slots(rng: random.Random, count: int, every: int) -> List[bool]:
    """Exactly one write per block of ``every`` ops, at a seeded place.

    Stratifying the mix keeps the write share identical from seed to
    seed, so message and byte counts per op do not drift with it.
    """
    marks: List[bool] = []
    while len(marks) < count:
        block = [False] * every
        block[rng.randrange(every)] = True
        marks.extend(block)
    return marks[:count]


def zipf_cdf(n: int, s: float) -> List[float]:
    weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


class HotShared(Workload):
    name = "hot_shared"
    num_nodes = 4
    clients = (2, 3)
    ops_per_second_cap = 12_000
    tail_percentile = 99

    REGIONS = 16
    PAGES_PER_REGION = 8
    SLOT = 128          # bytes per read/write
    SLOTS = 4           # distinct 128 B slots used per page
    WRITE_EVERY = 10    # one write in every 10 ops: 10% writes
    ZIPF_S = 0.99

    @property
    def pages(self) -> int:
        return self.REGIONS * self.PAGES_PER_REGION

    def generate(self, seed: int, count: int) -> List[Any]:
        """Ops are (client node, page index, slot, payload or None)."""
        rng = random.Random(f"hot_shared:{seed}")
        # Zipf ranks map to a seeded permutation of pages, so the hot
        # pages spread over both homes and many regions.
        ranked = list(range(self.pages))
        rng.shuffle(ranked)
        cdf = zipf_cdf(self.pages, self.ZIPF_S)
        writes = write_slots(rng, count, self.WRITE_EVERY)
        ops = []
        for i in range(count):
            page = ranked[bisect.bisect_left(cdf, rng.random())]
            slot = rng.randrange(self.SLOTS)
            payload = _filler(rng, self.SLOT) if writes[i] else None
            ops.append((self.clients[i % 2], page, slot, payload))
        return ops

    def setup(self, cluster: Cluster, seed: int) -> None:
        self.cluster = cluster
        rng = random.Random(f"hot_shared:init:{seed}")
        self.page_addr: List[int] = []
        self.expected: Dict[int, bytes] = {}
        for rid, initial in populate(cluster, rng, self.REGIONS,
                                     self.PAGES_PER_REGION,
                                     ConsistencyLevel.STRICT):
            for p in range(self.PAGES_PER_REGION):
                addr = rid + p * PAGE
                self.page_addr.append(addr)
                for slot in range(self.SLOTS):
                    lo = p * PAGE + slot * self.SLOT
                    self.expected[addr + slot * self.SLOT] = \
                        initial[lo:lo + self.SLOT]
        # Warm both clients: every page read once from each.
        for node in self.clients:
            for addr in self.page_addr:
                if not self.verify_read(node, addr, self.SLOT):
                    self.mismatches.append((-1, f"warm read {addr:#x}"))

    def execute(self, index: int, op: Any) -> bool:
        node, page, slot, payload = op
        session = self.cluster.sessions[node]
        address = self.page_addr[page] + slot * self.SLOT
        if payload is None:
            ctx = session.lock(address, self.SLOT, LockMode.READ)
            try:
                got = session.read(ctx, address, self.SLOT)
            finally:
                session.unlock(ctx)
            if got != self.expected[address]:
                self.mismatches.append(
                    (index, f"n{node} read {address:#x}: stale or torn"))
                return False
            return True
        ctx = session.lock(address, self.SLOT, LockMode.WRITE)
        try:
            session.write(ctx, address, payload)
        finally:
            session.unlock(ctx)
        # Acknowledged: the unlock returned, so every later read by
        # either client must see this value.
        self.expected[address] = payload
        return True

    def probe_address(self) -> Tuple[int, int, int]:
        return self.clients[0], self.page_addr[0], self.SLOT

    def expected_at(self, address: int, length: int) -> bytes:
        return self.expected[address]

    def corrupt_expectation(self, address: int) -> None:
        old = self.expected[address]
        self.expected[address] = bytes([old[0] ^ 0xFF]) + old[1:]


# ---------------------------------------------------------------------------
# cold_scan: one client over release-consistency pages 1.5x its RAM
# ---------------------------------------------------------------------------


class ColdScan(Workload):
    name = "cold_scan"
    num_nodes = 3
    clients = (2,)
    ops_per_second_cap = 400
    tail_percentile = 99

    REGIONS = 6
    PAGES_PER_REGION = 64
    SPAN_PAGES = 3
    WRITE_EVERY = 5     # one write in every 5 ops: 20% writes

    def generate(self, seed: int, count: int) -> List[Any]:
        """Ops are (region, first page, payload or None)."""
        rng = random.Random(f"cold_scan:{seed}")
        writes = write_slots(rng, count, self.WRITE_EVERY)
        ops = []
        for i in range(count):
            region = rng.randrange(self.REGIONS)
            first = rng.randrange(self.PAGES_PER_REGION - self.SPAN_PAGES + 1)
            payload = None
            if writes[i]:
                payload = _filler(rng, self.SPAN_PAGES * PAGE)
            ops.append((region, first, payload))
        return ops

    def setup(self, cluster: Cluster, seed: int) -> None:
        self.cluster = cluster
        rng = random.Random(f"cold_scan:init:{seed}")
        size = self.PAGES_PER_REGION * PAGE
        self.region_base: List[int] = []
        #: page address -> its current full contents.
        self.expected: Dict[int, bytes] = {}
        for rid, initial in populate(cluster, rng, self.REGIONS,
                                     self.PAGES_PER_REGION,
                                     ConsistencyLevel.RELEASE):
            self.region_base.append(rid)
            for p in range(self.PAGES_PER_REGION):
                self.expected[rid + p * PAGE] = \
                    initial[p * PAGE:(p + 1) * PAGE]
        # Warm the client: one full pass fills its RAM and spills the
        # rest to its disk, the steady state the ops run in.
        node = self.clients[0]
        for base in self.region_base:
            if not self.verify_read(node, base, size):
                self.mismatches.append((-1, f"warm read {base:#x}"))

    def execute(self, index: int, op: Any) -> bool:
        region, first, payload = op
        session = self.cluster.sessions[self.clients[0]]
        address = self.region_base[region] + first * PAGE
        length = self.SPAN_PAGES * PAGE
        if payload is None:
            ctx = session.lock(address, length, LockMode.READ)
            try:
                got = session.read(ctx, address, length)
            finally:
                session.unlock(ctx)
            if got != self.expected_at(address, length):
                self.mismatches.append(
                    (index, f"read {address:#x}+{length}: not the last write"))
                return False
            return True
        ctx = session.lock(address, length, LockMode.WRITE)
        try:
            session.write(ctx, address, payload)
        finally:
            session.unlock(ctx)
        for p in range(self.SPAN_PAGES):
            self.expected[address + p * PAGE] = payload[p * PAGE:(p + 1) * PAGE]
        return True

    def probe_address(self) -> Tuple[int, int, int]:
        return self.clients[0], self.region_base[0], PAGE

    def expected_at(self, address: int, length: int) -> bytes:
        return b"".join(self.expected[address + off]
                        for off in range(0, length, PAGE))

    def corrupt_expectation(self, address: int) -> None:
        old = self.expected[address]
        self.expected[address] = bytes([old[0] ^ 0xFF]) + old[1:]


# ---------------------------------------------------------------------------
# region_churn: reserve/allocate/write/free/unreserve over a deep map
# ---------------------------------------------------------------------------


class RegionChurn(Workload):
    name = "region_churn"
    num_nodes = 3
    clients = (2,)
    ops_per_second_cap = 200
    #: About 100 cycles in a 20 s run: p85 keeps at least ten samples
    #: beyond it even if a change slows the cycle by a tenth.
    tail_percentile = 85

    STANDING = 128
    REGION_PAGES = 4
    LIVE_CHURN = 16
    WRITE_BYTES = 64

    def generate(self, seed: int, count: int) -> List[Any]:
        """Ops are (offset in the first page, payload) per cycle."""
        rng = random.Random(f"region_churn:{seed}")
        slots = PAGE // self.WRITE_BYTES
        return [(rng.randrange(slots) * self.WRITE_BYTES,
                 _filler(rng, self.WRITE_BYTES)) for _ in range(count)]

    def _reserve(self, session, index: int = -1) -> Any:
        """Reserve and allocate one region; it must overlap no live one."""
        desc = session.reserve(self.REGION_PAGES * PAGE, self.attrs)
        new = desc.range
        for live in self.live.values():
            if live.overlaps(new):
                self.mismatches.append(
                    (index, f"reserve {new} overlaps live {live}"))
                break
        session.allocate(desc.rid)
        self.live[desc.rid] = new
        return desc

    def setup(self, cluster: Cluster, seed: int) -> None:
        self.cluster = cluster
        self.attrs = RegionAttributes(page_size=PAGE)
        self.live: Dict[int, AddressRange] = {}
        self.churn: List[int] = []
        self.written: Dict[int, Tuple[int, bytes]] = {}
        session = cluster.sessions[self.clients[0]]
        for _ in range(self.STANDING):
            self._reserve(session)

    def execute(self, index: int, op: Any) -> bool:
        offset, payload = op
        session = self.cluster.sessions[self.clients[0]]
        before = len(self.mismatches)
        desc = self._reserve(session, index)
        self.churn.append(desc.rid)
        address = desc.rid + offset
        ctx = session.lock(desc.rid, PAGE, LockMode.WRITE)
        try:
            session.write(ctx, address, payload)
        finally:
            session.unlock(ctx)
        self.written[desc.rid] = (offset, payload)
        if not self.verify_read(self.clients[0], address, len(payload)):
            self.mismatches.append((index, f"read-back {address:#x}"))
        if len(self.churn) > self.LIVE_CHURN:
            oldest = self.churn.pop(0)
            session.free(oldest, 0, self.REGION_PAGES * PAGE)
            session.unreserve(oldest)
            del self.live[oldest]
            del self.written[oldest]
        return len(self.mismatches) == before

    def probe_address(self) -> Tuple[int, int, int]:
        rid = self.churn[-1]
        offset, payload = self.written[rid]
        return self.clients[0], rid + offset, len(payload)

    def expected_at(self, address: int, length: int) -> bytes:
        for rid, (offset, payload) in self.written.items():
            if rid + offset == address:
                return payload[:length]
        raise KeyError(address)

    def corrupt_expectation(self, address: int) -> None:
        for rid, (offset, payload) in self.written.items():
            if rid + offset == address:
                self.written[rid] = (
                    offset, bytes([payload[0] ^ 0xFF]) + payload[1:])
                return
        raise KeyError(address)


WORKLOADS = {cls.name: cls for cls in (HotShared, ColdScan, RegionChurn)}


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, min(len(sorted_values),
                      int(-(-q * len(sorted_values) // 100))))
    return sorted_values[rank - 1]
