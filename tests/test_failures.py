"""Tests for failure handling (paper Section 3.5): retry queues,
failure detection, replica maintenance, home failover."""

import pytest

from repro.api import create_cluster
from repro.core.attributes import ConsistencyLevel, RegionAttributes
from repro.core.errors import KhazanaError
from repro.failure.detector import FailureDetector
from repro.failure.retry import RetryQueue
from repro.net.clock import EventScheduler
from repro.net.sim import SimNetwork
from repro.net.rpc import RpcEndpoint
from repro.net.tasks import TaskRunner
from repro.storage.store import StoredPage


class TestRetryQueue:
    def make(self):
        sched = EventScheduler()
        runner = TaskRunner()
        queue = RetryQueue(sched, lambda gen, label: runner.spawn(gen, label))
        return sched, queue

    def test_success_first_try(self):
        sched, queue = self.make()
        calls = []

        def op():
            calls.append(1)
            return None
            yield  # pragma: no cover

        queue.enqueue(op, "op")
        sched.run_until_idle()
        assert calls == [1]
        assert queue.pending == 0
        assert queue.stats.succeeded == 1

    def test_retries_until_success_with_backoff(self):
        sched, queue = self.make()
        attempts = []

        def op():
            attempts.append(sched.now)
            if len(attempts) < 4:
                raise KhazanaError("transient")
            return None
            yield  # pragma: no cover

        queue.enqueue(op, "flaky")
        sched.run_until_idle()
        assert len(attempts) == 4
        assert queue.pending == 0
        # Backoff doubles: gaps 0.5, 1.0, 2.0.
        gaps = [b - a for a, b in zip(attempts, attempts[1:])]
        assert gaps == [0.5, 1.0, 2.0]

    def test_failure_never_gives_up(self):
        sched, queue = self.make()
        count = [0]

        def op():
            count[0] += 1
            raise KhazanaError("permanent")
            yield  # pragma: no cover

        queue.enqueue(op, "doomed")
        sched.run_until(120.0)
        assert queue.pending == 1
        assert count[0] >= 5
        assert "doomed" in queue.labels()

    def test_cancel(self):
        sched, queue = self.make()

        def op():
            raise KhazanaError("x")
            yield  # pragma: no cover

        item = queue.enqueue(op, "op")
        sched.run_until(1.0)
        assert queue.cancel(item)
        sched.run_until_idle()
        assert queue.pending == 0


class TestDetector:
    def make_pair(self):
        sched = EventScheduler()
        net = SimNetwork(sched)
        a = RpcEndpoint(1, net, sched)
        b = RpcEndpoint(2, net, sched)
        det = FailureDetector(a, sched, peers=[2], period=0.5,
                              miss_threshold=2)
        # Peer 2 answers pings via its own tiny detector.
        FailureDetector(b, sched, peers=[], period=0.5)
        return sched, net, det

    def test_alive_peer_stays_alive(self):
        sched, _net, det = self.make_pair()
        det.start()
        sched.run_until(5.0)
        assert det.alive_peers() == [2]

    def test_crash_detected_then_recovery(self):
        sched, net, det = self.make_pair()
        deaths, recoveries = [], []
        det.on_death(deaths.append)
        det.on_recovery(recoveries.append)
        det.start()
        sched.run_until(2.0)
        net.crash(2)
        sched.run_until(10.0)
        assert deaths == [2]
        assert det.dead_peers() == [2]
        net.recover(2)
        sched.run_until(20.0)
        assert recoveries == [2]
        assert det.alive_peers() == [2]

    def test_is_alive_for_unknown_peer_defaults_true(self):
        _sched, _net, det = self.make_pair()
        assert det.is_alive(99)


class TestCrashRecovery:
    def test_operations_survive_non_home_crash(self, cluster):
        kz1 = cluster.client(node=1)
        desc = kz1.reserve(4096)
        kz1.allocate(desc.rid)
        kz1.write_at(desc.rid, b"alive")
        cluster.client(node=3).read_at(desc.rid, 5)
        cluster.crash(3)
        cluster.run(10.0)
        # Writing still works; the dead sharer is just dropped.
        kz1.write_at(desc.rid, b"after")
        assert cluster.client(node=2).read_at(desc.rid, 5) == b"after"

    @pytest.mark.parametrize("level", [ConsistencyLevel.STRICT,
                                       ConsistencyLevel.RELEASE])
    @pytest.mark.parametrize("in_ram", [False, True])
    def test_recovered_sharer_does_not_serve_a_stale_copy(self, level,
                                                          in_ram):
        """The homes scrub a crashed node from their copysets, so a
        cached copy that survives on its disk would never hear of a
        later write: the crash must forget it."""
        cluster = create_cluster(num_nodes=4)
        kz1 = cluster.client(node=1)
        desc = kz1.reserve(4096, RegionAttributes(consistency_level=level))
        kz1.allocate(desc.rid)
        kz1.write_at(desc.rid, b"v0")
        kz2 = cluster.client(node=2)
        assert kz2.read_at(desc.rid, 2) == b"v0"
        storage = cluster.daemon(2).storage
        cached = storage.memory.peek(desc.rid)
        storage.disk.put(StoredPage(desc.rid, cached.data, cached.dirty))
        if not in_ram:
            storage.memory.remove(desc.rid)
        cluster.crash(2)
        cluster.run(15.0)   # detector declares node 2 dead
        cluster.client(node=3).write_at(desc.rid, b"v1")
        cluster.recover(2)
        cluster.run(15.0)
        assert kz2.read_at(desc.rid, 2) == b"v1"

    def test_replicated_region_survives_primary_crash(self):
        cluster = create_cluster(num_nodes=6)
        kz1 = cluster.client(node=1)
        desc = kz1.reserve(4096, RegionAttributes(min_replicas=3))
        kz1.allocate(desc.rid)
        kz1.write_at(desc.rid, b"precious")
        cluster.run(2.0)   # write-back reaches secondary homes
        cluster.crash(1)   # primary home dies
        cluster.run(15.0)  # detector + failover
        survivor = cluster.client(node=4)
        assert survivor.read_at(desc.rid, 8) == b"precious"

    def test_replica_maintainer_promotes_secondary(self):
        cluster = create_cluster(num_nodes=6)
        kz1 = cluster.client(node=1)
        desc = kz1.reserve(4096, RegionAttributes(min_replicas=2))
        kz1.allocate(desc.rid)
        kz1.write_at(desc.rid, b"x")
        secondary = desc.home_nodes[1]
        cluster.run(2.0)
        cluster.crash(1)
        cluster.run(20.0)   # promotion + recruitment
        promoted = cluster.daemon(secondary).homed_regions.get(desc.rid)
        assert promoted is not None
        assert promoted.primary_home == secondary
        # Replica count restored with a recruit.
        assert len(promoted.home_nodes) >= 2

    def test_unreplicated_region_lost_with_home(self):
        cluster = create_cluster(num_nodes=4)
        kz1 = cluster.client(node=1)
        desc = kz1.reserve(4096)   # min_replicas=1
        kz1.allocate(desc.rid)
        kz1.write_at(desc.rid, b"fragile")
        cluster.crash(1)
        cluster.run(10.0)
        kz3 = cluster.client(node=3)
        with pytest.raises(KhazanaError):
            kz3.read_at(desc.rid, 7)

    def test_unreserve_of_dead_home_retries_in_background(self):
        cluster = create_cluster(num_nodes=4)
        kz2 = cluster.client(node=2)
        desc = kz2.reserve(4096)
        kz2.allocate(desc.rid)
        # Unreserve succeeds at the client even while the map home is
        # briefly unreachable; the map update retries in background.
        cluster.crash(0)
        kz2.unreserve(desc.rid)   # must not raise (release-type)
        assert cluster.daemon(2).retry_queue.pending >= 1
        cluster.recover(0)
        cluster.run(120.0)
        assert cluster.daemon(2).retry_queue.pending == 0
