"""Tests for the cluster launcher plumbing (repro.tools.cluster).

The full multi-process launcher runs in CI's cluster-smoke job; here
the same building blocks run in-process (daemons on one loop, each on
its own TcpTransport, so traffic still crosses real sockets) to pin
down the workload, the control plane, and fsck-over-snapshots without
subprocess overhead.
"""

from __future__ import annotations

import argparse
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.client import KhazanaSession
from repro.net import frame
from repro.net.aio import AsyncioDriver, AsyncioRuntime
from repro.net.message import Message, MessageType
from repro.tools import fsck
from repro.tools.cluster import (
    SnapshotCluster,
    address_book,
    build_node,
    node_config,
    parse_peers,
    register_control,
    resolve_book,
    run_client,
    run_workload,
    snapshot_node,
)


@pytest.fixture()
def mini_cluster():
    """One daemon (node 0) plus a client node (node 1), real sockets."""
    book = {}
    runtimes, daemons = [], []
    shared = None
    for node in (0, 1):
        runtime = AsyncioRuntime(shared.loop if shared else None)
        shared = shared or runtime
        runtime, daemon = build_node(node, book, runtime=runtime,
                                     config=node_config())
        runtimes.append(runtime)
        daemons.append(daemon)
    for runtime, daemon in zip(runtimes, daemons):
        daemon.bootstrap_system_region(peers=[0, 1])
        register_control(daemon, runtime)
    client_runtime = runtimes[1]
    session = KhazanaSession(daemons[1],
                             AsyncioDriver(client_runtime, timeout=30.0),
                             principal="test-cluster")
    try:
        yield client_runtime, daemons, session
    finally:
        for daemon in daemons:
            daemon.stop()

        async def shutdown():
            for daemon in daemons:
                await daemon.network.aclose()

        client_runtime.loop.run_until_complete(shutdown())
        client_runtime.close()


class TestAddressBook:
    def test_covers_daemons_plus_client(self):
        book = address_book(3, 21000)
        assert sorted(book) == [0, 1, 2, 3]
        assert book[3] == ("127.0.0.1", 21003)


class TestPeersBook:
    def test_parse_multi_machine_spec(self):
        book = parse_peers("10.0.0.1:7000, 10.0.0.2:7000 ,10.0.0.9:7100")
        assert book == {
            0: ("10.0.0.1", 7000),
            1: ("10.0.0.2", 7000),
            2: ("10.0.0.9", 7100),
        }

    def test_single_entry_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            parse_peers("10.0.0.1:7000")

    def test_missing_port_rejected(self):
        with pytest.raises(ValueError, match="host:port"):
            parse_peers("10.0.0.1:7000,10.0.0.2")

    def test_garbage_port_rejected(self):
        with pytest.raises(ValueError, match="port"):
            parse_peers("10.0.0.1:7000,10.0.0.2:smtp")

    def test_resolve_book_prefers_peers(self):
        args = argparse.Namespace(peers="h1:1,h2:2", nodes=5,
                                  base_port=21000)
        assert resolve_book(args) == {0: ("h1", 1), 1: ("h2", 2)}
        args.peers = None
        assert len(resolve_book(args)) == 6

    def test_two_process_smoke_over_peers_book(self):
        """The multi-machine shape, minimally: daemon 0 in its own
        process, the client in this one, both handed the same --peers
        spec instead of a computed localhost book."""
        ports = []
        for _ in range(2):
            probe = socket.socket()
            probe.bind(("127.0.0.1", 0))
            ports.append(probe.getsockname()[1])
            probe.close()
        spec = f"127.0.0.1:{ports[0]},127.0.0.1:{ports[1]}"
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.cluster",
             "--serve", "--node", "0", "--peers", spec],
            stdout=subprocess.PIPE, text=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        )
        try:
            assert proc.stdout is not None
            assert proc.stdout.readline().strip() == "READY"
            status = run_client(argparse.Namespace(
                peers=spec, nodes=1, base_port=0, workload="crew",
                ops=2, pages=2, op_timeout=30.0,
            ))
            assert status == 0
            assert proc.wait(timeout=10.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            if proc.stdout:
                proc.stdout.close()


class TestWorkloads:
    @pytest.mark.parametrize("protocol", ["crew", "release"])
    def test_read_your_writes_over_real_sockets(self, mini_cluster,
                                                protocol):
        _runtime, _daemons, session = mini_cluster
        outcome = run_workload(session, protocol, home_node=0,
                               pages=2, ops=3)
        assert outcome["ops"] == 3
        assert outcome["protocol"] == protocol


class TestSnapshotFsck:
    def test_fsck_is_clean_over_live_snapshots(self, mini_cluster):
        _runtime, daemons, session = mini_cluster
        run_workload(session, "crew", home_node=0, pages=2, ops=2)
        snapshots = [snapshot_node(daemon) for daemon in daemons]
        report = fsck.check_cluster(SnapshotCluster(snapshots))
        assert report.ok, report.render()

    def test_snapshot_is_plain_data(self, mini_cluster):
        _runtime, daemons, session = mini_cluster
        run_workload(session, "crew", home_node=0, pages=2, ops=1)
        snap = snapshot_node(daemons[0])
        assert snap["storage"]["memory"]["pages"]
        # The snapshot control reply crosses the wire codec intact,
        # int-keyed page maps included.
        reply = Message(MessageType.APP_REPLY, src=0, dst=1,
                        payload={"snapshot": snap})
        wire = frame.encode_frame(reply)
        assert len(wire) == reply.size_bytes()
        clone = frame.decode_body(
            wire[frame.LENGTH_PREFIX.size:]).payload["snapshot"]
        assert clone == snap
        assert clone["node"] == 0
        assert "regions" in clone and "entries" in clone
