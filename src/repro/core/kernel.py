"""NodeKernel: the slim composition root of one Khazana peer.

"The Khazana service is implemented by a dynamically changing set of
cooperating daemon processes ... all Khazana nodes are peers"
(paper Section 2).  Each peer is built from four cohesive services
composed by this kernel:

- the :class:`~repro.core.placement.base.PlacementStrategy` that
  ``DaemonConfig.placement`` selects — region location (the tiered
  chain of Section 3.2, or a hash ring),
- :class:`~repro.core.space.SpaceService` — address-space and region
  lifecycle (reserve/allocate/resize/migrate, pool refill, Section 3.1),
- :class:`~repro.core.dataplane.DataPlane` — lock/read/write, lock
  contexts, local page residency (Sections 3.3-3.4),
- :class:`~repro.core.router.MessageRouter` — wire dispatch as an
  interceptor chain (dedup, latency stats, trace, probes).

The kernel itself keeps only what the services share: identity,
config, the task runner, the directories and storage hierarchy, the
consistency-manager registry, and the failure-handling machinery.  It
implements the :class:`~repro.core.cmhost.CMHost` protocol — the
narrow surface consistency managers program against.
"""

from __future__ import annotations

import logging

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.core.address_map import (
    ROOT_PAGE,
    SYSTEM_REGION,
    SYSTEM_RID,
    AddressMap,
    MapIO,
    initial_root_node,
)
from repro.core.addressing import AddressRange, DEFAULT_PAGE_SIZE
from repro.core.allocator import LocalSpacePool
from repro.core.attributes import ConsistencyLevel, RegionAttributes
from repro.core.cluster import ClusterManagerRole
from repro.core.dataplane import DataPlane
from repro.core.errors import KhazanaError
from repro.core.locks import LockMode, LockTable
from repro.core.page_directory import PageDirectory
from repro.core.placement import create_placement
from repro.core.region import RegionDescriptor
from repro.core.region_directory import RegionDirectory
from repro.core.router import MessageRouter
from repro.core.security import SYSTEM_PRINCIPAL, AccessControlList
from repro.core.space import SpaceService
from repro.failure.detector import FailureDetector
from repro.failure.replicas import ReplicaMaintainer
from repro.failure.retry import RetryQueue
from repro.net.message import Message, MessageType
from repro.net.rpc import RpcEndpoint
from repro.net.runtime import Runtime
from repro.net.tasks import Future, TaskRunner
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.memory import MemoryStore
from repro.storage.disk import DiskStore
from repro.storage.store import StoredPage

ProtocolGen = Generator[Future, Any, Any]

logger = logging.getLogger(__name__)


@dataclass
class DaemonConfig:
    """Tunables for one daemon."""

    memory_bytes: int = 256 * DEFAULT_PAGE_SIZE
    disk_bytes: int = 16384 * DEFAULT_PAGE_SIZE
    #: Node hosting the cluster-manager role for this daemon's cluster.
    cluster_manager_node: int = 0
    #: Which cluster this daemon belongs to (paper 3.1: nodes are
    #: "organized into a hierarchy" of clusters).
    cluster_id: int = 0
    #: Manager nodes of the *other* clusters, for inter-cluster
    #: location queries ("representing the local cluster during
    #: inter-cluster communication").
    peer_managers: Tuple[int, ...] = ()
    #: Node that bootstrapped the system region (home of the map).
    bootstrap_node: int = 0
    #: Give up waiting for a lock after this many virtual seconds.
    lock_wait_timeout: float = 60.0
    #: Housekeeping period (CM ticks, free-space reports).
    housekeeping_period: float = 1.0
    #: Run the failure detector / replica maintainer.
    enable_failure_handling: bool = True
    #: Coalesce multi-page lock/unlock traffic into one RPC per home
    #: node (PAGE_FETCH_BATCH / TOKEN_ACQUIRE_BATCH / UPDATE_PUSH_BATCH).
    #: Off forces the per-page protocol path everywhere.
    enable_batching: bool = True
    #: Max independent per-page requests a daemon keeps in flight when
    #: a multi-page operation cannot batch (READ acquires, releases).
    #: 1 restores the fully serial request-reply-request pattern.
    #: Order-dependent traffic (WRITE-token acquisition, which takes
    #: tokens in ascending page order to stay deadlock-free) is never
    #: pipelined regardless of this setting.
    pipeline_window: int = 8
    #: Region-directory capacity (ablation A1 shrinks this to 1).
    region_directory_capacity: int = 1024
    #: Disable the cluster-manager hint tier (ablation A1).
    use_cluster_hints: bool = True
    #: When set, the daemon's disk level is file-backed under
    #: ``{spill_dir}/node{id}`` and homed-region metadata is journaled
    #: there, so the daemon can be restarted with its state intact.
    spill_dir: Optional[str] = None
    #: Automatically migrate a region's home toward a node that
    #: dominates its access traffic (future-work policy; see
    #: repro/core/migration.py).
    enable_auto_migration: bool = False
    #: Run the dynamic race/invariant detector (repro.analysis.races)
    #: against this daemon.  Within a Cluster all daemons share one
    #: detector so cross-node races are visible.
    detect_races: bool = False
    #: Placement backend: "tiered" (the paper's four-tier chain) or
    #: "ring" (rendezvous-hashed location over a live member set).
    #: See repro/core/placement/.
    placement: str = "tiered"


@dataclass
class OpLatency:
    """Virtual-clock service-time aggregate for one wire op."""

    count: int = 0
    total: float = 0.0
    max: float = 0.0

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass
class DaemonStats:
    """Per-daemon operation counters used by benchmarks."""

    ops: Dict[str, int] = field(default_factory=dict)
    #: How each successful region location was resolved:
    #: "directory" | "cluster" | "intercluster" | "map" | "walk"
    #: (tiered chain) or "directory" | "ring" | "map" | "walk"
    #: (hash-ring placement).
    lookup_tiers: Dict[str, int] = field(default_factory=dict)
    lock_waits: int = 0
    lock_timeouts: int = 0
    #: Virtual-clock request service time per wire op, recorded by the
    #: MessageRouter's latency middleware (request arrival -> reply).
    op_latency: Dict[str, OpLatency] = field(default_factory=dict)

    def bump(self, op: str) -> None:
        self.ops[op] = self.ops.get(op, 0) + 1

    def tier(self, name: str) -> None:
        self.lookup_tiers[name] = self.lookup_tiers.get(name, 0) + 1

    def note_latency(self, op: str, seconds: float) -> None:
        latency = self.op_latency.get(op)
        if latency is None:
            latency = self.op_latency[op] = OpLatency()
        latency.record(seconds)


class _KernelMapIO(MapIO):
    """Adapter giving the address map access to system-region pages
    through this node's ordinary lock/read/write path."""

    def __init__(self, kernel: "NodeKernel") -> None:
        self.kernel = kernel
        self.page_size = DEFAULT_PAGE_SIZE

    def lock_page(self, page_addr: int, mode: LockMode) -> ProtocolGen:
        ctx = yield from self.kernel.data.op_lock(
            AddressRange(page_addr, self.page_size),
            mode,
            principal=SYSTEM_PRINCIPAL,
        )
        return ctx

    def read_page(self, ctx: Any, page_addr: int) -> ProtocolGen:
        data = yield from self.kernel.data.op_read(
            ctx, AddressRange(page_addr, self.page_size)
        )
        return data

    def write_page(self, ctx: Any, page_addr: int, data: bytes) -> ProtocolGen:
        yield from self.kernel.data.op_write(
            ctx, AddressRange(page_addr, self.page_size), data
        )

    def unlock_page(self, ctx: Any) -> ProtocolGen:
        yield from self.kernel.data.op_unlock(ctx)


class NodeKernel:
    """Composition root of one Khazana peer; implements CMHost."""

    def __init__(
        self,
        node_id: int,
        runtime: Runtime,
        config: Optional[DaemonConfig] = None,
        probe: Optional["Any"] = None,
    ) -> None:
        self.node_id = node_id
        #: The backend seam: clock + timers + transport.  Everything
        #: time- or wire-shaped the kernel does goes through it, so
        #: the same node runs over the simulator or over real sockets.
        self.runtime = runtime
        #: The runtime's transport, under its historical name — the
        #: location service, fsck, and the message trace all address
        #: the messaging backend as ``kernel.network``.
        self.network = runtime.transport
        self.config = config if config is not None else DaemonConfig()

        from repro.analysis.races import NULL_PROBE, RaceDetector

        if probe is None and self.config.detect_races:
            # Standalone daemon with detection on: private detector.
            # Clusters pass one shared detector instead.
            probe = RaceDetector()
        self.probe = probe if probe is not None else NULL_PROBE
        if self.probe.enabled:
            self.probe.attach_daemon(self)

        self.rpc = RpcEndpoint(node_id, self.network, runtime)
        self.runner = TaskRunner()
        self.stats = DaemonStats()

        self.lock_table = LockTable()
        if self.probe.enabled:
            self.lock_table.probe = self.probe
        self.region_directory = RegionDirectory(
            capacity=self.config.region_directory_capacity
        )
        self.page_directory = PageDirectory(node_id)
        self.journal = None
        if self.config.spill_dir is not None:
            import os

            from repro.storage.disk import FileBackedDiskStore
            from repro.storage.persistence import MetadataJournal

            node_dir = os.path.join(self.config.spill_dir, f"node{node_id}")
            disk = FileBackedDiskStore(node_dir, self.config.disk_bytes)
            self.journal = MetadataJournal(node_dir)
        else:
            disk = DiskStore(self.config.disk_bytes)
        #: The data plane exists before the storage hierarchy: eviction
        #: consults its consistency hook.
        self.data = DataPlane(self)
        self.storage = StorageHierarchy(
            memory=MemoryStore(self.config.memory_bytes),
            disk=disk,
            is_pinned=self.lock_table.page_locked,
            on_disk_evict=self.data.on_disk_evict,
        )
        self.space_pool = LocalSpacePool()
        self.homed_regions: Dict[int, RegionDescriptor] = {}
        self._cms: Dict[str, Any] = {}
        self._alive = True

        self.retry_queue = RetryQueue(runtime, self.spawn)
        self.detector = FailureDetector(
            self.rpc, runtime, peers=[]
        )
        self.detector.on_death(self._on_peer_death)
        from repro.core.migration import MigrationAdvisor

        self.migration_advisor = MigrationAdvisor(self)
        #: The placement seam: how this node resolves and places
        #: regions (repro/core/placement/).  Built after the detector
        #: and migration advisor — ring placement wires membership
        #: into the former and re-homing through the latter.
        self.placement = create_placement(self)
        #: Historical name for the placement strategy's lookup surface
        #: (the pre-seam LocationService).
        self.location = self.placement
        #: The live-member view (None under tiered placement).
        self.membership = self.placement.membership
        self.space = SpaceService(self)
        self.address_map = AddressMap(_KernelMapIO(self))
        self.replica_maintainer = ReplicaMaintainer(self)
        self.cluster_role: Optional[ClusterManagerRole] = None
        if self.placement.hosts_cluster_manager():
            self.cluster_role = ClusterManagerRole(self)

        self.router = MessageRouter(self)
        self.router.wire()
        self._schedule_housekeeping()

    # ------------------------------------------------------------------
    # Lifecycle / bootstrap
    # ------------------------------------------------------------------

    def bootstrap_system_region(self, peers: List[int]) -> None:
        """Install the well-known address-map region (Section 3.1).

        Every daemon pins the system descriptor; the bootstrap node
        additionally homes the region and writes the initial root tree
        node.  Must run before any client operation.
        """
        attrs = RegionAttributes(
            consistency_level=ConsistencyLevel.RELEASE,
            min_replicas=1,
            page_size=DEFAULT_PAGE_SIZE,
            acl=AccessControlList.private(SYSTEM_PRINCIPAL),
        )
        desc = RegionDescriptor(
            range=SYSTEM_REGION,
            attrs=attrs,
            home_nodes=(self.config.bootstrap_node,),
            allocated=True,
            version=1,
        )
        self.region_directory.pin(desc)
        for peer in peers:
            self.detector.add_peer(peer)
        if self.membership is not None:
            self.membership.seed(peers)
        if self.node_id == self.config.bootstrap_node:
            self.homed_regions[SYSTEM_RID] = desc
            if not self.storage.contains(ROOT_PAGE):
                # A restarted bootstrap node already has the map on
                # disk; only a truly fresh deployment initialises it.
                root = initial_root_node()
                self.storage.write_through(
                    StoredPage(ROOT_PAGE, root.encode(DEFAULT_PAGE_SIZE),
                               dirty=False)
                )
            entry = self.page_directory.ensure(ROOT_PAGE, SYSTEM_RID,
                                               homed=True)
            entry.allocated = True
            entry.owner = self.node_id
            entry.record_sharer(self.node_id)
        self._recover_from_journal()
        if self.config.enable_failure_handling:
            self.detector.start()
            self.replica_maintainer.start()

    def _recover_from_journal(self) -> None:
        """Reload homed regions and page metadata after a restart."""
        if self.journal is None:
            return
        for desc in self.journal.load_regions():
            if desc.rid == SYSTEM_RID:
                continue
            self.region_directory.insert(desc)
            if self.node_id in desc.home_nodes:
                self.homed_regions[desc.rid] = desc
        for entry in self.journal.load_page_entries(self.node_id):
            if entry.rid == SYSTEM_RID:
                continue
            existing = self.page_directory.ensure(
                entry.address, entry.rid, homed=True
            )
            existing.allocated = entry.allocated
            existing.owner = entry.owner
            existing.record_sharer(self.node_id)
            existing.version = entry.version

    def checkpoint(self) -> None:
        """Flush homed-region metadata to the journal (no-op without
        a spill directory)."""
        if self.journal is None:
            return
        self.journal.save_regions(self.homed_regions)
        self.journal.save_page_entries(self.page_directory)

    def stop(self) -> None:
        """Shut the daemon down (simulating a crash or clean exit)."""
        self._alive = False
        self.detector.stop()
        self.replica_maintainer.stop()
        self.rpc.shutdown()

    @property
    def alive(self) -> bool:
        """False once :meth:`stop` has run."""
        return self._alive

    @property
    def now(self) -> float:
        """This node's clock: virtual seconds on the sim backend,
        monotonic wall seconds on the asyncio backend."""
        return self.runtime.now

    @property
    def scheduler(self):
        """The runtime's raw timer backend (compatibility alias).

        On the sim backend this is the deployment's
        :class:`~repro.net.clock.EventScheduler`; on the asyncio
        backend, the runtime itself (same timer surface).  New code
        should schedule through :attr:`runtime` and read the clock via
        :attr:`now`.
        """
        return self.runtime.timers

    @property
    def cluster_manager_node(self) -> Optional[int]:
        return self.placement.manager_node

    def home_order(self, desc: RegionDescriptor) -> List[int]:
        """Candidate order for ordered home failover (CMHost surface):
        the placement strategy may reorder or extend the descriptor's
        own home list (e.g. ring placement tries the current bucket
        director first, and last-ditch even when the caller's stale
        descriptor does not name it)."""
        return self.placement.home_order(desc)

    # ------------------------------------------------------------------
    # Task plumbing
    # ------------------------------------------------------------------

    def spawn(self, task: ProtocolGen, label: str = "task") -> Future:
        """Run a protocol generator under this daemon's task runner."""
        return self.runner.spawn(task, label=f"n{self.node_id}:{label}")

    def spawn_handler(self, msg: Message, task: ProtocolGen,
                      label: str = "handler") -> None:
        """Run a message-handler task; failures NAK the request."""
        outcome = self.spawn(task, label=label)

        def on_done(future: Future) -> None:
            exc = future.exception()
            if exc is None:
                return
            if msg.request_id is None:
                return
            if isinstance(exc, KhazanaError):
                self.reply_error(msg, exc.code, str(exc))
            else:
                self.reply_error(msg, "khazana_error", repr(exc))

        outcome.add_callback(on_done)

    def sleep(self, seconds: float) -> Future:
        """A future resolving after ``seconds`` of virtual time."""
        future = Future(label=f"sleep:{seconds}")
        if seconds <= 0:
            future.set_result(None)
        else:
            self.runtime.call_later(seconds,
                                    lambda: future.set_result(None),
                                    label=f"n{self.node_id}:sleep")
        return future

    def with_timeout(self, inner: Future, seconds: float,
                     error: KhazanaError) -> Future:
        """Wrap ``inner`` so it fails with ``error`` after ``seconds``."""
        wrapper = Future(label=f"timeout:{inner.label}")
        timer = self.runtime.call_later(
            seconds,
            lambda: None if wrapper.done else wrapper.set_exception(error),
            label=f"n{self.node_id}:timeout:{inner.label}",
        )

        def forward(future: Future) -> None:
            timer.cancel()
            if wrapper.done:
                return
            exc = future.exception()
            if exc is not None:
                wrapper.set_exception(exc)
            else:
                wrapper.set_result(future.result())

        inner.add_callback(forward)
        return wrapper

    # ------------------------------------------------------------------
    # Shared services
    # ------------------------------------------------------------------

    def consistency_manager(self, protocol: str):
        from repro.consistency import create_manager

        cm = self._cms.get(protocol)
        if cm is None:
            cm = create_manager(protocol, self)
            self._cms[protocol] = cm
        return cm

    def consistency_managers(self) -> Dict[str, Any]:
        """The CMs instantiated on this node so far, keyed by protocol
        name (inspection surface; does not instantiate anything)."""
        return dict(self._cms)

    def adopt_descriptor(self, desc: RegionDescriptor) -> None:
        """Install a (possibly newer) descriptor locally."""
        if self.probe.enabled:
            self.probe.region_seen(self.node_id, desc)
        self.region_directory.insert(desc)
        if self.node_id in desc.home_nodes:
            known = self.homed_regions.get(desc.rid)
            if known is None or desc.version >= known.version:
                self.homed_regions[desc.rid] = desc
        else:
            was_home = self.homed_regions.pop(desc.rid, None) is not None
            if was_home:
                # Demoted (e.g. after a migration): our page entries
                # become hints.  Owner/copyset values stay — the new
                # primary received the same directory state with the
                # pushed pages, so coherence authority moved intact.
                for entry in self.page_directory.entries_for_region(desc.rid):
                    entry.homed = False
                self.migration_advisor.forget_region(desc.rid)

    # ------------------------------------------------------------------
    # CMHost facade (delegates into the services)
    # ------------------------------------------------------------------

    def reply_request(self, msg: Message, msg_type: MessageType,
                      payload: Optional[Dict[str, Any]] = None) -> None:
        self.router.reply_request(msg, msg_type, payload)

    def reply_error(self, msg: Message, code: str, detail: str = "") -> None:
        self.router.reply_error(msg, code, detail)

    def local_page_bytes(self, desc: RegionDescriptor,
                         page_addr: int) -> ProtocolGen:
        return self.data.local_page_bytes(desc, page_addr)

    def store_local_page(self, desc: RegionDescriptor, page_addr: int,
                         data: bytes, dirty: bool) -> ProtocolGen:
        return self.data.store_local_page(desc, page_addr, data, dirty)

    def drop_local_page(self, page_addr: int) -> None:
        self.data.drop_local_page(page_addr)

    def wait_local_conflicts(self, page_addr: int,
                             mode: LockMode) -> ProtocolGen:
        return self.data.wait_local_conflicts(page_addr, mode)

    def open_context_ids(self) -> List[int]:
        """Ids of lock contexts currently open on this node."""
        return self.data.open_context_ids()

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------

    def _schedule_housekeeping(self) -> None:
        if not self._alive:
            return
        self.runtime.call_later(
            self.config.housekeeping_period, self._housekeeping,
            label=f"n{self.node_id}:housekeeping",
        )

    def _housekeeping(self) -> None:
        if not self._alive:
            return
        for cm in self._cms.values():
            cm.tick()
        if self.config.enable_auto_migration:
            self.migration_advisor.tick()
        self.checkpoint()
        if (
            self.cluster_role is None
            and self.config.use_cluster_hints
            and self.space_pool.total_free() > 0
        ):
            self.rpc.send(
                Message(
                    msg_type=MessageType.FREE_SPACE_REPORT,
                    src=self.node_id,
                    dst=self.cluster_manager_node,
                    payload={
                        "total_free": self.space_pool.total_free(),
                        "max_contiguous": self.space_pool.max_contiguous(),
                    },
                )
            )
        self._schedule_housekeeping()

    def _on_peer_death(self, node_id: int) -> None:
        for cm in self._cms.values():
            cm.on_node_failure(node_id)
        if self.cluster_role is not None:
            self.cluster_role.forget_node(node_id)
