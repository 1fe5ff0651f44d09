"""Per-layer attribution: runtime wrappers around each layer's entry points.

Nothing under ``src/`` changes.  :class:`Tracer` replaces the public
entry points of each layer with wrappers for the duration of a traced
run and restores them afterwards:

========== ==============================================================
layer      wrapped entry points
========== ==============================================================
dataplane  ``DataPlane.op_lock`` / ``op_unlock``; ``KhazanaDaemon.read_fast`` / ``write_fast``
consistency each CM class's own ``acquire`` / ``acquire_many`` / ``release`` / ``release_many``
space      ``SpaceService.op_reserve`` / ``op_allocate`` / ``op_free`` / ``op_unreserve``
address_map ``AddressMap.lookup``; the node's ``MapIO.lock_page``
placement  ``TieredPlacement.locate_region``
router     ``MessageRouter.dispatch`` (inbound requests: interceptors + handler)
rpc        ``RpcEndpoint.request`` (span ends when its future resolves)
frame      ``frame.encode_frame`` / ``frame.decode_body``
tcp        ``TcpTransport.send``
========== ==============================================================

plus counters at the same boundaries: ``KhazanaSession.read``/``write``
calls, ``NodeKernel.sleep`` seconds, ``StorageHierarchy.write_through``
calls.

A span runs from its first resume (generator ``op_*`` methods) or its
call (plain methods) to its return; ``rpc.request`` spans run until
the reply future resolves.  Spans of one client op share the op's id.
Besides its wall duration every span accumulates *active self time*:
the wall time during which it was the innermost running span.  The
harness opens a root span per op, so per op::

    op wall = sum(layer active self) + root active self

and the root's share splits into ``loop.wait_ms_per_op`` (wall minus
process CPU: the loop blocked on sockets and timers) plus CPU outside
every wrapped layer (asyncio machinery, the session's loop bridge, reply
dispatch and task resumption), reported as ``trace.gap_ms_per_op``.
"""

from __future__ import annotations

import inspect
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from runner import boot, end_to_end, measure, post_checks

from repro.consistency.crew import CrewManager
from repro.consistency.eventual import EventualManager
from repro.consistency.manager import ConsistencyManager
from repro.consistency.mobile import MobileManager
from repro.consistency.release import ReleaseManager
from repro.core.address_map import AddressMap
from repro.core.client import KhazanaSession
from repro.core.daemon import KhazanaDaemon
from repro.core.dataplane import DataPlane
from repro.core.kernel import NodeKernel, _KernelMapIO
from repro.core.placement.tiered import TieredPlacement
from repro.core.router import MessageRouter
from repro.core.space import SpaceService
from repro.net import frame
from repro.net.rpc import RpcEndpoint, RpcTimeout
from repro.net.tcp import TcpTransport
from repro.storage.hierarchy import StorageHierarchy

clock = time.perf_counter

#: Layers whose active self time is reported, in stack order.
LAYERS = ("dataplane", "consistency", "space", "address_map", "placement",
          "router", "rpc", "frame", "tcp")

#: Lookup tiers reported as placement.tier_<name>_frac.
TIERS = ("directory", "cluster", "map", "walk")

#: Storage counters reported per node role, as ``storage.<role>.<name>``.
STORAGE_METRICS = ("ram_hit_frac", "disk_hits_per_op", "victimized_per_op",
                   "evicted_per_op", "write_through_per_op", "io_s_per_op")

CM_CLASSES = (ConsistencyManager, CrewManager, ReleaseManager,
              EventualManager, MobileManager)


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "active")

    def __init__(self, name: str, op: Optional[int]) -> None:
        self.name = name
        self.op = op
        self.parent: Optional[Span] = None
        self.start = 0.0
        self.end = 0.0
        self.active = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def has_ancestor(self, name: str) -> bool:
        node = self.parent
        while node is not None:
            if node.name == name:
                return True
            node = node.parent
        return False

    def outermost(self) -> bool:
        """No ancestor of the same kind (``acquire`` inside ``acquire_many``
        counts once)."""
        node = self.parent
        while node is not None:
            if node.name == self.name:
                return False
            node = node.parent
        return True


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.current: Optional[Span] = None
        self.mark = 0.0
        self.op: Optional[int] = None
        self.roots: List[Span] = []
        self.op_cpu = 0.0
        #: Counters taken at layer boundaries during op windows.
        self.counts: Dict[Any, float] = {}
        self._cpu0 = 0.0
        self._patches: List[Tuple[Any, str, Any]] = []

    # --- span bookkeeping ---------------------------------------------------

    def enter(self, span: Span) -> Optional[Span]:
        now = clock()
        prev = self.current
        if prev is not None:
            prev.active += now - self.mark
        self.current = span
        self.mark = now
        return prev

    def leave(self, span: Span, prev: Optional[Span]) -> float:
        now = clock()
        span.active += now - self.mark
        self.current = prev
        self.mark = now
        return now

    def open(self, name: str) -> Span:
        span = Span(name, self.op)
        if self.op is not None:
            self.spans.append(span)
        return span

    def count(self, key: Any, amount: float = 1) -> None:
        if self.op is not None:
            self.counts[key] = self.counts.get(key, 0) + amount

    def begin_op(self, index: int) -> None:
        self.op = index
        root = Span("op", index)
        self.roots.append(root)
        self._cpu0 = time.process_time()
        root.start = clock()
        self.current = root
        self.mark = root.start

    def end_op(self, index: int) -> None:
        root = self.roots[-1]
        root.end = self.leave(root, None)
        self.op_cpu += time.process_time() - self._cpu0
        self.op = None

    # --- wrappers -----------------------------------------------------------

    def _drive(self, span: Span, gen: Any) -> Any:
        """Run ``gen`` step by step, crediting its running time to ``span``."""
        send: Any = None
        exc: Optional[BaseException] = None
        first = True
        while True:
            prev = self.enter(span)
            if first:
                first = False
                span.parent = prev
                span.start = self.mark
            try:
                future = gen.send(send) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                span.end = self.leave(span, prev)
                return stop.value
            except BaseException:
                span.end = self.leave(span, prev)
                raise
            self.leave(span, prev)
            try:
                send, exc = (yield future), None
            except BaseException as error:   # re-raised inside ``gen``
                send, exc = None, error

    def wrap_generator(self, owner: Any, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return tracer._drive(tracer.open(name), original(*args, **kwargs))

        self._patch(owner, attr, wrapper)

    def wrap_call(self, owner: Any, attr: str, name: str,
                  after: Optional[Callable[[Any], None]] = None
                  ) -> None:
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = tracer.open(name)
            prev = tracer.enter(span)
            span.parent = prev
            span.start = tracer.mark
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = tracer.leave(span, prev)
            if after is not None:
                after(result)
            return result

        self._patch(owner, attr, wrapper)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Replace ``owner.attr``; ``owner`` must define it itself, so
        :meth:`uninstall` restores exactly what was there."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for cls in CM_CLASSES:
            for attr in ("acquire", "acquire_many", "release", "release_many"):
                # Each class's own protocol generators (not the abstract
                # per-page stubs of the base class).
                if inspect.isgeneratorfunction(cls.__dict__.get(attr)):
                    self.wrap_generator(cls, attr,
                                        "consistency." + attr.split("_")[0])
        self.wrap_generator(DataPlane, "op_lock", "dataplane.lock")
        self.wrap_generator(DataPlane, "op_unlock", "dataplane.unlock")
        for op in ("reserve", "allocate", "free", "unreserve"):
            self.wrap_generator(SpaceService, f"op_{op}", f"space.{op}")
        self.wrap_generator(AddressMap, "lookup", "address_map.lookup")
        self.wrap_generator(_KernelMapIO, "lock_page",
                            "address_map.page_lock")
        self.wrap_generator(TieredPlacement, "locate_region",
                            "placement.locate")
        self.wrap_call(MessageRouter, "dispatch", "router.dispatch")
        self.wrap_call(TcpTransport, "send", "tcp.send")
        self.wrap_call(frame, "encode_frame", "frame.encode",
                       after=lambda data: self.count("frame.bytes",
                                                     len(data)))
        self.wrap_call(frame, "decode_body", "frame.decode")
        self.wrap_call(KhazanaDaemon, "read_fast", "dataplane.read_fast",
                       after=lambda hit: self.count("fast_read_hits",
                                                    hit is not None))
        self.wrap_call(KhazanaDaemon, "write_fast", "dataplane.write_fast",
                       after=lambda hit: self.count("fast_write_hits",
                                                    bool(hit)))
        self._wrap_rpc()
        self._wrap_counters()

    def _wrap_rpc(self) -> None:
        original = RpcEndpoint.request
        tracer = self

        def request(*args: Any, **kwargs: Any) -> Any:
            span = tracer.open("rpc.request")
            prev = tracer.enter(span)
            span.parent = prev
            span.start = tracer.mark
            try:
                future = original(*args, **kwargs)
            finally:
                tracer.leave(span, prev)

            def resolved(done: Any) -> None:
                span.end = clock()
                if isinstance(done.exception(), RpcTimeout):
                    tracer.count("rpc.timeouts")

            future.add_callback(resolved)
            return future

        self._patch(RpcEndpoint, "request", request)

    def _wrap_counters(self) -> None:
        tracer = self
        read = KhazanaSession.read
        write = KhazanaSession.write
        sleep = NodeKernel.sleep
        write_through = StorageHierarchy.write_through

        def session_read(*args: Any, **kwargs: Any) -> Any:
            tracer.count("session.reads")
            return read(*args, **kwargs)

        def session_write(*args: Any, **kwargs: Any) -> Any:
            tracer.count("session.writes")
            return write(*args, **kwargs)

        def kernel_sleep(kernel: Any, seconds: float) -> Any:
            tracer.count("loop.sleep_s", max(seconds, 0.0))
            return sleep(kernel, seconds)

        def storage_write_through(storage: Any, page: Any) -> Any:
            tracer.count(("write_through", id(storage)))
            return write_through(storage, page)

        self._patch(KhazanaSession, "read", session_read)
        self._patch(KhazanaSession, "write", session_write)
        self._patch(NodeKernel, "sleep", kernel_sleep)
        self._patch(StorageHierarchy, "write_through", storage_write_through)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Counter snapshots (program-side counters, differenced over the run)
# ---------------------------------------------------------------------------


def counter_snapshot(cluster: Any) -> Dict[str, Any]:
    daemons = cluster.daemons
    engine: Dict[str, int] = {}
    for daemon in daemons:
        for cm in daemon.consistency_managers().values():
            counters = getattr(getattr(cm, "engine", None), "counters", None)
            if counters is None:
                continue
            for key, value in counters.snapshot().items():
                engine[key] = engine.get(key, 0) + value
    tiers: Dict[str, int] = {}
    for daemon in daemons:
        for tier, hits in daemon.stats.lookup_tiers.items():
            tiers[tier] = tiers.get(tier, 0) + hits
    storage = {}
    for daemon in daemons:
        st = daemon.storage.stats
        storage[daemon.node_id] = (st.ram_hits, st.disk_hits, st.misses,
                                   st.victimized_to_disk,
                                   st.evicted_from_disk,
                                   st.simulated_io_seconds)
    return {
        "engine": engine,
        "tiers": tiers,
        "storage": storage,
        "lock_waits": sum(d.stats.lock_waits for d in daemons),
        "bytes_sent": sum(d.network.stats.bytes_sent for d in daemons),
        "dropped": sum(d.network.stats.messages_dropped for d in daemons),
    }


def _mean_ms(spans: List[Span], scale: float = 1000.0) -> float:
    """Mean wall duration of the spans that finished."""
    done = [s.end - s.start for s in spans if s.end > 0]
    return statistics.fmean(done) * scale if done else 0.0


def layer_metrics(tracer: Tracer, workload: Any, before: Dict[str, Any],
                  after: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metric table of one traced run."""
    ops = max(1, len(tracer.roots))
    by_name: Dict[str, List[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def outer(name: str) -> List[Span]:
        return [s for s in by_name.get(name, ()) if s.outermost()]

    counts = tracer.counts
    m: Dict[str, float] = {}
    m["dataplane.lock_ms"] = _mean_ms(outer("dataplane.lock"))
    m["dataplane.unlock_ms"] = _mean_ms(outer("dataplane.unlock"))
    m["dataplane.fast_read_frac"] = (
        counts.get("fast_read_hits", 0) / counts["session.reads"]
        if counts.get("session.reads") else 0.0)
    m["dataplane.fast_write_frac"] = (
        counts.get("fast_write_hits", 0) / counts["session.writes"]
        if counts.get("session.writes") else 0.0)
    m["dataplane.lock_waits_per_op"] = \
        (after["lock_waits"] - before["lock_waits"]) / ops

    m["consistency.acquire_ms"] = _mean_ms(outer("consistency.acquire"))
    m["consistency.release_ms"] = _mean_ms(outer("consistency.release"))
    for key in ("home_transactions", "batch_fanouts", "per_page_fallbacks",
                "rollbacks"):
        m[f"consistency.{key}_per_op"] = (
            after["engine"].get(key, 0) - before["engine"].get(key, 0)) / ops

    for op in ("reserve", "allocate", "free", "unreserve"):
        m[f"space.{op}_ms"] = _mean_ms(by_name.get(f"space.{op}", []))
    reserves = len(by_name.get("space.reserve", []))
    reserve_locks = sum(1 for s in by_name.get("address_map.page_lock", ())
                        if s.has_ancestor("space.reserve"))
    m["address_map.page_locks_per_reserve"] = \
        reserve_locks / reserves if reserves else 0.0
    m["address_map.lookup_ms"] = _mean_ms(by_name.get("address_map.lookup",
                                                      []))

    m["placement.locate_ms"] = _mean_ms(outer("placement.locate"))
    tier_delta = {t: after["tiers"].get(t, 0) - before["tiers"].get(t, 0)
                  for t in set(after["tiers"]) | set(before["tiers"])}
    tier_total = sum(tier_delta.values())
    for tier in TIERS:
        m[f"placement.tier_{tier}_frac"] = \
            tier_delta.get(tier, 0) / tier_total if tier_total else 0.0

    requests = by_name.get("rpc.request", [])
    m["router.dispatch_us"] = _mean_ms(by_name.get("router.dispatch", []),
                                       1e6)
    m["rpc.requests_per_op"] = len(requests) / ops
    m["rpc.rtt_ms"] = _mean_ms(requests)
    m["rpc.timeouts"] = counts.get("rpc.timeouts", 0)

    m["frame.encode_us"] = _mean_ms(by_name.get("frame.encode", []), 1e6)
    m["frame.decode_us"] = _mean_ms(by_name.get("frame.decode", []), 1e6)
    m["frame.bytes_per_op"] = counts.get("frame.bytes", 0) / ops
    m["tcp.send_us"] = _mean_ms(by_name.get("tcp.send", []), 1e6)
    m["tcp.bytes_per_op"] = (after["bytes_sent"] - before["bytes_sent"]) / ops
    m["tcp.dropped"] = after["dropped"] - before["dropped"]

    wall = sum(r.end - r.start for r in tracer.roots)
    m["loop.cpu_ms_per_op"] = tracer.op_cpu / ops * 1000.0
    m["loop.wait_ms_per_op"] = (wall - tracer.op_cpu) / ops * 1000.0
    m["loop.sleep_s_per_op"] = counts.get("loop.sleep_s", 0.0) / ops

    daemons = workload.cluster.daemons
    for role, nodes in (("client", workload.clients),
                        ("home", workload.home_nodes())):
        delta = [0.0] * 6
        for node in nodes:
            for i, (a, b) in enumerate(zip(after["storage"][node],
                                           before["storage"][node])):
                delta[i] += a - b
        ram, disk, miss, victim, evicted, io_s = delta
        loads = ram + disk + miss
        wt = sum(counts.get(("write_through", id(daemons[n].storage)), 0)
                 for n in nodes)
        values = (ram / loads if loads else 0.0, disk / ops, victim / ops,
                  evicted / ops, wt / ops, io_s / ops)
        for name, value in zip(STORAGE_METRICS, values):
            m[f"storage.{role}.{name}"] = value

    # Active self time per layer; the root span's share is what no
    # wrapped layer ran: loop waiting plus untraced CPU (the gap).
    self_time = {layer: 0.0 for layer in LAYERS}
    for span in tracer.spans:
        if span.layer in self_time:
            self_time[span.layer] += span.active
    for layer in LAYERS:
        m[f"{layer}.self_ms_per_op"] = self_time[layer] / ops * 1000.0
    attributed = sum(self_time.values()) + (wall - tracer.op_cpu)
    m["trace.op_ms"] = wall / ops * 1000.0
    m["trace.gap_ms_per_op"] = (wall - attributed) / ops * 1000.0
    m["trace.attributed_frac"] = attributed / wall if wall else 0.0
    return m


def traced_run(cls: Any, ops: List[Any], seed: int, seconds: float) -> dict:
    """Untraced base run, then a traced run of the same ops on a fresh
    cluster; the per-layer table comes from the traced one."""
    base, _ = boot(cls, seed)
    try:
        base_result = measure(base, ops, seconds)
    finally:
        base.cluster.close()
    base_ops = end_to_end(base, base_result, 0.0)["ops_per_s"]

    workload, _ = boot(cls, seed)
    tracer = Tracer()
    try:
        before = counter_snapshot(workload.cluster)
        tracer.install()
        try:
            result = measure(workload, ops, seconds, tracer=tracer)
        finally:
            tracer.uninstall()
        after = counter_snapshot(workload.cluster)
        if not workload.cluster.quiesce():
            workload.mismatches.append((-1, "background work never drained"))
        problems = [f"op {i}: {what}"
                    for i, what in base.mismatches + workload.mismatches]
        problems += post_checks(workload)
    finally:
        workload.cluster.close()
    traced_ops = end_to_end(workload, result, 0.0)["ops_per_s"]
    metrics = layer_metrics(tracer, workload, before, after)
    metrics["trace.ops_per_s_untraced"] = base_ops
    metrics["trace.ops_per_s_traced"] = traced_ops
    metrics["trace.overhead_ratio"] = traced_ops / base_ops
    report = [f"workload {cls.name} (traced): {result['attempted']} ops, "
              f"{result['failed']} failed; tracing keeps "
              f"{traced_ops:.1f} of {base_ops:.1f} ops/s "
              f"({traced_ops / base_ops:.3f})"]
    report += [f"  {name:<36} {value:14.6f} {unit_of(name)}"
               for name, value in metrics.items()]
    return {
        "attempted": result["attempted"] + base_result["attempted"],
        "failed": result["failed"] + base_result["failed"],
        "problems": problems,
        "report": report,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }


def unit_of(name: str) -> str:
    if name.endswith("_ms") or name.endswith("_ms_per_op"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s_per_op"):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_per_op"):
        return "B"
    if name.startswith("trace.ops_per_s"):
        return "1/s"
    return "count"
