"""The explorable scenario matrix.

Mirrors the five-scenario matrix of ``tests/test_protocol_conformance``
— single-page read/write, multi-page batch cycle, conflicting writers,
node failure mid-acquire, unlock-after-close — as plain callables the
explorer can re-run thousands of times under controlled schedules.
Each scenario asserts only *schedule-robust* properties (guarantees
that must hold under every legal delivery order), because the whole
point is that the explorer perturbs the order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping

from repro.core.address_map import SYSTEM_REGION, EntryState
from repro.core.addressing import AddressRange
from repro.core.attributes import RegionAttributes
from repro.core.errors import InvalidLockContext
from repro.core.locks import LockMode
from repro.tools import fsck

PAGE = 4096

#: Protocols whose write grant is a globally exclusive token.
SERIALIZED = {"crew", "release"}

#: Protocols that replicate released writes to every home node.
DURABLE_ON_FAILOVER = {"crew", "mobile"}


class ScenarioFailure(AssertionError):
    """A schedule-robust guarantee did not hold on this run."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioFailure(message)


@dataclass(frozen=True)
class Scenario:
    name: str
    run: Callable[[Any, str], None]   # (cluster, protocol) -> None
    min_nodes: int = 2
    crashes: bool = False   # scenario crashes nodes itself
    #: Extra keyword arguments for ``create_cluster`` (e.g. shrunken
    #: storage tiers to force evictions).
    cluster_kwargs: Mapping[str, Any] = field(default_factory=dict)


def _region(cluster: Any, protocol: str, size: int = PAGE,
            min_replicas: int = 1, node: int = 1):
    kz = cluster.client(node=node)
    desc = kz.reserve(
        size,
        RegionAttributes(
            consistency_protocol=protocol, min_replicas=min_replicas
        ),
    )
    kz.allocate(desc.rid)
    return kz, desc


def _other_node(cluster: Any, writer: int) -> int:
    """Some live node other than ``writer`` (highest id first)."""
    for node in reversed(cluster.node_ids()):
        if node != writer:
            return node
    return 0


def _locked_write(session: Any, desc: Any, payload: bytes,
                  length: int = PAGE):
    daemon = session.daemon
    target = AddressRange(desc.rid, length)

    def task():
        ctx = yield from daemon.op_lock(target, LockMode.WRITE,
                                        session.principal)
        yield from daemon.op_write(
            ctx, AddressRange(desc.rid, len(payload)), payload
        )
        yield from daemon.op_unlock(ctx)

    return task()


# -- scenarios -----------------------------------------------------------


def single_page(cluster: Any, protocol: str) -> None:
    kz, desc = _region(cluster, protocol)
    kz.write_at(desc.rid, b"local")
    _expect(kz.read_at(desc.rid, 5) == b"local",
            "read-your-writes broken on the writing node")
    cluster.run(2.0)
    remote = cluster.client(node=_other_node(cluster, 1))
    _expect(remote.read_at(desc.rid, 5) == b"local",
            "released write not visible to a remote reader")


def multi_page_batch(cluster: Any, protocol: str) -> None:
    size = 2 * PAGE
    kz1, desc = _region(cluster, protocol, size=size)
    kz1.write_at(desc.rid, b"a" * size)
    cluster.run(2.0)

    remote = cluster.client(node=_other_node(cluster, 1))
    ctx = remote.lock(desc.rid, size, LockMode.WRITE)
    _expect(remote.read(ctx, desc.rid, size) == b"a" * size,
            "batch fetch returned stale or torn pages")
    remote.write(ctx, desc.rid, b"b" * size)
    remote.unlock(ctx)
    _expect(remote.read_at(desc.rid, size) == b"b" * size,
            "writer's own batch write not readable back")

    cluster.run(4.0)
    _expect(cluster.client(node=0).read_at(desc.rid, 4) == b"bbbb",
            "multi-page cycle did not converge at a third node")


def conflicting_writers(cluster: Any, protocol: str) -> None:
    kz1, desc = _region(cluster, protocol)
    kz1.write_at(desc.rid, b"base")
    other = _other_node(cluster, 1)
    kz3 = cluster.client(node=other)
    kz3.read_at(desc.rid, 4)   # the rival holds a replica

    ctx = kz1.lock(desc.rid, PAGE, LockMode.WRITE)
    future = kz3.submit(_locked_write(kz3, desc, b"from-3"), "bg-write")
    cluster.run(2.0)
    if protocol in SERIALIZED:
        _expect(not future.done,
                "second writer completed while the token was held")
    kz1.write(ctx, desc.rid, b"from-1")
    kz1.unlock(ctx)
    cluster.run(30.0)
    _expect(future.done and future.exception() is None,
            f"background writer never completed: {future.exception()!r}")
    if protocol in SERIALIZED:
        _expect(kz3.read_at(desc.rid, 6) == b"from-3",
                "serialized writers did not apply in grant order")


def failover(cluster: Any, protocol: str) -> None:
    kz1, desc = _region(cluster, protocol, min_replicas=2)
    writer = cluster.client(node=_other_node(cluster, 1))
    writer.write_at(desc.rid, b"durable")
    cluster.run(2.0)
    _expect(len(desc.home_nodes) >= 2,
            "min_replicas=2 region has a single home")

    cluster.crash(desc.home_nodes[0])
    # Read from a non-home survivor (a home would skip itself in the
    # engine's home fan-out and see only the dead primary).
    survivor = next(
        node for node in reversed(cluster.node_ids())
        if node not in desc.home_nodes
    )
    data = cluster.client(node=survivor).read_at(desc.rid, 7)
    if protocol in DURABLE_ON_FAILOVER:
        _expect(data == b"durable",
                "failover read lost a replicated released write")
    else:
        _expect(len(data) == 7, "failover read failed outright")


def unlock_after_close(cluster: Any, protocol: str) -> None:
    kz, desc = _region(cluster, protocol)
    ctx = kz.lock(desc.rid, PAGE, LockMode.WRITE)
    kz.write(ctx, desc.rid, b"ok")
    kz.unlock(ctx)
    try:
        kz.unlock(ctx)
    except InvalidLockContext:
        pass
    else:
        raise ScenarioFailure("double unlock did not raise")
    try:
        kz.read(ctx, desc.rid, 2)  # khz: allow-stale-context(explorer: stale handles must raise under every schedule)
    except InvalidLockContext:
        pass
    else:
        raise ScenarioFailure("closed context accepted io")


def owner_handoff(cluster: Any, protocol: str) -> None:
    """Write-on-one-node, read-on-another, then steal the ownership.

    With CREW this walks the full ownership dance: round one makes the
    home fetch the writer's exclusive copy to serve the reader; the
    reader's grant carries an owner hint, so round two's read goes
    *directly* to the owner (Figure 2's fast path).  The final write
    from a third node forces the home to *revoke* the standing remote
    owner and migrate exclusivity.  Other protocols simply run the
    same access pattern through their own machinery.
    """
    kz1, desc = _region(cluster, protocol)
    writer_node = _other_node(cluster, 1)
    reader_node = next(
        node for node in reversed(cluster.node_ids())
        if node not in (1, writer_node)
    )
    writer = cluster.client(node=writer_node)
    reader = cluster.client(node=reader_node)
    for payload in (b"round-one", b"round-two"):
        writer.write_at(desc.rid, payload)
        data = reader.read_at(desc.rid, len(payload))
        _expect(len(data) == len(payload),
                "reader failed against a live exclusive owner")
        # Only CREW invalidates read copies on the write path, so only
        # there is an un-settled remote read guaranteed fresh (release
        # fans updates out to sharers asynchronously).
        if protocol == "crew":
            _expect(data == payload,
                    "CREW read missed the owner's current bytes")
    # Ownership migration: the writer still owns the page, so this
    # third-party write makes the home revoke a remote owner.
    reader.write_at(desc.rid, b"round-three")
    data = writer.read_at(desc.rid, 11)
    _expect(len(data) == 11, "read after ownership migration failed")
    if protocol == "crew":
        _expect(data == b"round-three",
                "CREW read missed the migrated owner's bytes")
    cluster.run(2.0)


def home_outage(cluster: Any, protocol: str) -> None:
    """Release while the home is partitioned away.

    Release-type errors must never surface to the client (paper 3.5):
    the push parks on the retry queue and drains once the partition
    heals, after which the home converges on the final payload.
    """
    kz1, desc = _region(cluster, protocol)
    writer_node = _other_node(cluster, 1)
    writer = cluster.client(node=writer_node)
    writer.write_at(desc.rid, b"seed")
    cluster.run(1.0)

    ctx = writer.lock(desc.rid, PAGE, LockMode.WRITE)
    writer.write(ctx, desc.rid, b"cut")
    others = {n for n in cluster.node_ids() if n != 1}
    cluster.network.partition({1}, others)
    writer.unlock(ctx)   # must not raise; push goes to the retry queue
    cluster.run(5.0)
    cluster.network.heal_partitions()
    cluster.run(60.0)    # retries + failure-detector recovery drain
    data = cluster.client(node=1).read_at(desc.rid, 3)
    _expect(len(data) == 3, "home read failed after the outage healed")
    # The push-to-home protocols park the failed release on the retry
    # queue and must converge once healed.  CREW may instead have shed
    # the "dead" owner from the copyset during the partition, and
    # mobile's gossip reaches the home only eventually — for those the
    # guarantee is availability, not this payload.
    if protocol in ("release", "eventual"):
        _expect(data == b"cut",
                "home never converged on the write released during outage")


def eviction_writeback(cluster: Any, protocol: str) -> None:
    """Cache pressure: a non-home node evicts dirty pages entirely.

    One node writes two regions homed at two *other* nodes, together
    outgrowing its shrunken storage tiers, while each home still fits
    its own region.  Pages leave the writer through the consistency
    manager's evict hook (dirty write-back + sharer unregister — under
    CREW a non-home writer's copies stay dirty after release, so the
    eviction itself must push the bytes home), and a later read must
    re-fetch.  One lock cycle per page keeps pages unpinned: a single
    context over a whole region would pin more pages than RAM holds.
    The writer is neither a home nor the bootstrap node — bootstrap
    homes the (unevictable) system address map.
    """
    pages_each = 8
    _, desc_a = _region(cluster, protocol, size=pages_each * PAGE, node=1)
    _, desc_b = _region(cluster, protocol, size=pages_each * PAGE, node=2)
    writer = cluster.client(node=max(cluster.node_ids()))
    for desc, fill in ((desc_a, 65), (desc_b, 97)):
        for page in range(pages_each):
            writer.write_at(desc.rid + page * PAGE,
                            bytes([fill + page]) * 8)
    cluster.run(5.0)
    data = writer.read_at(desc_a.rid, 8)
    _expect(len(data) == 8, "re-fetch after eviction failed")
    if protocol in SERIALIZED:
        _expect(data == b"A" * 8, "evicted dirty page lost its bytes")


def map_churn(cluster: Any, protocol: str) -> None:
    """Two nodes reserve and unreserve regions in one address-map leaf
    at once while queued releases flush.

    Each unreserve queues its map release on the node; the node's next
    reserve carries it, or its retry item writes it one housekeeping
    period later.  Under every schedule all of them land and the final
    map lists exactly the live regions.
    """
    attrs = RegionAttributes(consistency_protocol=protocol)
    period = cluster.daemon(0).config.housekeeping_period

    def churn(daemon: Any, pause: float):
        held = []
        for _ in range(4):
            held.append((yield from daemon.op_reserve(PAGE, attrs)))
            if len(held) > 1:
                yield from daemon.op_unreserve(held.pop(0).rid)
            yield daemon.sleep(pause)
        return held

    tasks = [
        cluster.client(node=node).submit(
            churn(cluster.daemon(node), period * (0.4 + 0.8 * node)),
            f"map-churn-{node}",
        )
        for node in (0, 1)
    ]
    cluster.run(6 * period)
    for task in tasks:
        _expect(task.done, "churn did not complete")
        _expect(task.exception() is None,
                f"churn failed: {task.exception()!r}")
    for node in (0, 1):
        daemon = cluster.daemon(node)
        _expect(not daemon.address_map.queued_releases
                and daemon.retry_queue.pending == 0,
                f"node {node} still holds queued map releases")
    live = {desc.range for task in tasks for desc in task.result()}
    session = cluster.client(node=0)
    reserved = session.driver.wait(session.submit(
        cluster.daemon(0).address_map.enumerate_reserved(), "map-scan"
    ))
    _expect({e.range for e in reserved
             if e.state is EntryState.RESERVED} == live | {SYSTEM_REGION},
            "the final map does not list exactly the live regions")
    report = fsck.check_cluster(cluster)
    _expect(report.ok and not report.warnings, report.render())


SCENARIOS: Dict[str, Scenario] = {
    s.name: s for s in (
        Scenario("single_page", single_page),
        Scenario("multi_page_batch", multi_page_batch),
        Scenario("conflicting_writers", conflicting_writers),
        Scenario("failover", failover, min_nodes=4, crashes=True),
        Scenario("unlock_after_close", unlock_after_close),
        Scenario("owner_handoff", owner_handoff, min_nodes=3),
        Scenario("home_outage", home_outage, min_nodes=3),
        Scenario("eviction_writeback", eviction_writeback, min_nodes=4,
                 cluster_kwargs={"memory_pages": 4, "disk_pages": 8}),
        Scenario("map_churn", map_churn),
    )
}

PROTOCOLS = ["crew", "release", "eventual", "mobile"]
