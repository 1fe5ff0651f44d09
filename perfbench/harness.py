"""An in-process Khazana cluster over loopback TCP.

Every daemon shares one asyncio loop but owns its own
:class:`~repro.net.tcp.TcpTransport`, so every inter-node message
crosses a real localhost socket.  Daemons are built exactly as the
repository's own real-transport harness builds them:
``repro.tools.cluster.build_node`` / ``node_config`` /
``register_control``.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Tuple

from repro.core.client import KhazanaSession
from repro.net.aio import AsyncioDriver, AsyncioRuntime
from repro.tools import fsck
from repro.tools.cluster import (
    SnapshotCluster,
    build_node,
    node_config,
    register_control,
    snapshot_node,
)

#: Wall-clock bound on one client operation.
OP_TIMEOUT_S = 30.0


class Cluster:
    """``num_nodes`` daemons on one loop; node 0 homes the address map
    and hosts the cluster manager (``node_config``)."""

    def __init__(self, num_nodes: int) -> None:
        book: Dict[int, Tuple[str, int]] = {}
        runtimes: List[AsyncioRuntime] = []
        self.daemons = []
        self.loop = asyncio.new_event_loop()
        for node in range(num_nodes):
            runtime, daemon = build_node(
                node, book, runtime=AsyncioRuntime(self.loop),
                config=node_config(),
            )
            runtimes.append(runtime)
            self.daemons.append(daemon)
        peers = list(range(num_nodes))
        for runtime, daemon in zip(runtimes, self.daemons):
            daemon.bootstrap_system_region(peers=peers)
            register_control(daemon, runtime)
        self.sessions = [
            KhazanaSession(daemon, AsyncioDriver(runtime, OP_TIMEOUT_S),
                           principal="perfbench")
            for runtime, daemon in zip(runtimes, self.daemons)
        ]
        self._closed = False

    def messages_sent(self) -> int:
        return sum(d.network.stats.messages_sent for d in self.daemons)

    def snapshots(self) -> List[dict]:
        return [snapshot_node(daemon) for daemon in self.daemons]

    def fsck(self) -> "fsck.FsckReport":
        return fsck.check_cluster(SnapshotCluster(self.snapshots()))

    def quiesce(self, limit_s: float = 10.0) -> bool:
        """Run the loop until every background retry (e.g. an
        unreserve's map release) has drained; False on timeout."""

        async def drain() -> bool:
            deadline = self.loop.time() + limit_s
            while any(d.retry_queue.pending for d in self.daemons):
                if self.loop.time() > deadline:
                    return False
                await asyncio.sleep(0.005)
            await asyncio.sleep(0.02)   # let in-flight one-way frames land
            return True

        return self.loop.run_until_complete(drain())

    def close(self) -> None:
        """Stop every daemon, close every socket, end every task."""
        if self._closed:
            return
        self._closed = True
        self.quiesce()
        for daemon in self.daemons:
            daemon.stop()

        async def shutdown() -> None:
            for daemon in self.daemons:
                await daemon.network.aclose()
            current = asyncio.current_task()
            rest = [t for t in asyncio.all_tasks() if t is not current]
            for task in rest:
                task.cancel()
            await asyncio.gather(*rest, return_exceptions=True)

        self.loop.run_until_complete(shutdown())
        self.loop.close()
