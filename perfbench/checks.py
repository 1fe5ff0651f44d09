"""Checks on the benchmark itself.

Run from the repository root::

    python3 perfbench/checks.py selftest   # the checks must be able to fail
    python3 perfbench/checks.py repeat     # which counts repeat exactly
    python3 perfbench/checks.py profile    # tracer shares vs cProfile

``selftest`` exits non-zero when any self-test fails.  ``repeat`` and
``profile`` print tables; their results are written up in NOTES.md.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from runner import UNITS, boot, break_snapshot, measure, post_checks  # noqa: E402,E501
from tracer import (  # noqa: E402
    LAYERS,
    Tracer,
    counter_snapshot,
    layer_metrics,
)
from workloads import WORKLOADS  # noqa: E402

from harness import SnapshotCluster, fsck  # noqa: E402


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def selftest() -> int:
    failures = []

    def check(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for name, cls in WORKLOADS.items():
        a, b, c = (cls().generate(seed, 500) for seed in (7, 7, 8))
        check(a == b, f"{name}: seed 7 twice gives the same op sequence")
        check(a != c, f"{name}: seeds 7 and 8 give different sequences")

    cls = WORKLOADS["hot_shared"]
    ops = cls().generate(3, 400)
    workload, _ = boot(cls, 3)
    try:
        for index, op in enumerate(ops[:200]):
            workload.execute(index, op)
        check(not workload.mismatches, "hot_shared: 200 ops read correctly")
        check(post_checks(workload) == [],
              "post-run checks pass, and their negated twins fire")

        # Negated read verifier: corrupt what the benchmark expects at
        # the next read op's address; that op must count as failed.
        index, op = next((i, op) for i, op in enumerate(ops[200:], 200)
                         if op[3] is None)
        node, page, slot, _ = op
        address = workload.page_addr[page] + slot * workload.SLOT
        workload.corrupt_expectation(address)
        check(workload.execute(index, op) is False
              and workload.mismatches[-1][0] == index,
              "corrupted expectation makes the next read fail")

        snapshots = workload.cluster.snapshots()
        check(fsck.check_cluster(SnapshotCluster(snapshots)).ok,
              "fsck passes on the live cluster")
        check(break_snapshot(snapshots)
              and not fsck.check_cluster(SnapshotCluster(snapshots)).ok,
              "fsck fires on a snapshot missing a home page")
    finally:
        workload.cluster.close()

    # The metrics a run prints are exactly the ones BENCHMARK.json names.
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    workload, _ = boot(cls, 3)
    tracer = Tracer()
    try:
        before = counter_snapshot(workload.cluster)
        tracer.install()
        try:
            measure(workload, cls().generate(3, 5000), 0.2, tracer=tracer)
        finally:
            tracer.uninstall()
        traced = layer_metrics(tracer, workload, before,
                               counter_snapshot(workload.cluster))
    finally:
        workload.cluster.close()
    traced.update(dict.fromkeys(("trace.ops_per_s_untraced",
                                 "trace.ops_per_s_traced",
                                 "trace.overhead_ratio"), 0.0))
    check(set(UNITS) == {m["name"] for m in declared["end_to_end"]},
          "end-to-end metrics match BENCHMARK.json")
    check(set(traced) == {m["name"] for m in declared["per_layer"]},
          "per-layer metrics match BENCHMARK.json")
    print(f"{len(failures)} self-test(s) failed" if failures
          else "all self-tests passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# repeat: which counts repeat exactly across two same-seed runs
# ---------------------------------------------------------------------------

#: Fixed op counts: a time-bounded run would end at a different op.
REPEAT_OPS = {"hot_shared": 3000, "cold_scan": 300, "region_churn": 40}


def counted_run(name: str, seed: int) -> dict:
    cls = WORKLOADS[name]
    ops = cls().generate(seed, REPEAT_OPS[name])
    workload, _ = boot(cls, seed)
    tracer = Tracer()
    try:
        msgs0 = workload.cluster.messages_sent()
        before = counter_snapshot(workload.cluster)
        tracer.install()
        try:
            for index, op in enumerate(ops):
                tracer.begin_op(index)
                workload.execute(index, op)
                tracer.end_op(index)
        finally:
            tracer.uninstall()
        after = counter_snapshot(workload.cluster)
        msgs = workload.cluster.messages_sent() - msgs0
    finally:
        workload.cluster.close()
    client = workload.clients
    storage = [sum(after["storage"][n][i] - before["storage"][n][i]
                   for n in client) for i in range(6)]
    reserves = [s for s in tracer.spans if s.name == "space.reserve"]
    locks = sum(1 for s in tracer.spans if s.name == "address_map.page_lock"
                and s.has_ancestor("space.reserve"))
    return {
        "messages": msgs,
        "client disk hits": storage[1],
        "client victimized": storage[3],
        "client evicted": storage[4],
        "map page locks under reserve": locks,
        "reserves": len(reserves),
        "rpc requests": sum(1 for s in tracer.spans
                            if s.name == "rpc.request"),
    }


def repeat() -> int:
    for name in WORKLOADS:
        first, second = counted_run(name, 11), counted_run(name, 11)
        print(f"{name} ({REPEAT_OPS[name]} ops, seed 11, two runs):")
        for key in first:
            same = "repeats" if first[key] == second[key] else "DIFFERS"
            print(f"  {key:<30} {first[key]:>10} {second[key]:>10}  {same}")
    return 0


# ---------------------------------------------------------------------------
# profile: tracer active self-time shares vs cProfile tottime shares
# ---------------------------------------------------------------------------

#: Source file -> layer, for reading cProfile's per-function self time.
#: A layer's helpers (lock table, storage, codec, directories) count
#: with it, as they do inside the tracer's spans.
PROFILE_LAYERS = (
    ("repro/core/dataplane.py", "dataplane"),
    ("repro/core/locks.py", "dataplane"),
    ("repro/core/page_directory.py", "dataplane"),
    ("repro/storage/", "dataplane"),
    ("repro/consistency/", "consistency"),
    ("repro/core/space.py", "space"),
    ("repro/core/allocator.py", "space"),
    ("repro/core/address_map.py", "address_map"),
    ("repro/core/placement/", "placement"),
    ("repro/core/region_directory.py", "placement"),
    ("repro/core/router.py", "router"),
    ("repro/net/rpc.py", "rpc"),
    ("repro/net/frame.py", "frame"),
    ("repro/net/codec.py", "frame"),
    ("repro/net/message.py", "frame"),
    ("repro/net/tcp.py", "tcp"),
)


def profile(ops_count: int = 4000) -> int:
    cls = WORKLOADS["hot_shared"]
    ops = cls().generate(5, ops_count)

    workload, _ = boot(cls, 5)
    tracer = Tracer()
    tracer.install()
    try:
        for index, op in enumerate(ops):
            tracer.begin_op(index)
            workload.execute(index, op)
            tracer.end_op(index)
    finally:
        tracer.uninstall()
        workload.cluster.close()
    wall = sum(r.end - r.start for r in tracer.roots)
    traced = {layer: 0.0 for layer in LAYERS}
    for span in tracer.spans:
        if span.layer in traced:
            traced[span.layer] += span.active

    workload, _ = boot(cls, 5)
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        for index, op in enumerate(ops):
            workload.execute(index, op)
        profiler.disable()
    finally:
        workload.cluster.close()
    stats = pstats.Stats(profiler)
    profiled = {layer: 0.0 for layer in LAYERS + ("outside",)}
    total = 0.0
    for (filename, _line, _func), row in stats.stats.items():
        tottime = row[2]
        total += tottime
        path = filename.replace(os.sep, "/")
        layer = next((layer for prefix, layer in PROFILE_LAYERS
                      if prefix in path), "outside")
        profiled[layer] += tottime
    cpu = tracer.op_cpu
    traced["outside"] = cpu - sum(traced.values())
    print(f"hot_shared, {ops_count} ops, seed 5")
    print(f"{'layer':<12} {'tracer % of CPU':>16} {'cProfile % of CPU':>18}")
    for layer in LAYERS + ("outside",):
        print(f"{layer:<12} {100 * traced[layer] / cpu:>15.1f}% "
              f"{100 * profiled[layer] / total:>17.1f}%")
    print(f"traced op wall {wall:.3f} s, CPU {cpu:.3f} s; "
          f"profiled CPU {total:.3f} s")
    return 0


COMMANDS = {"selftest": selftest, "repeat": repeat, "profile": profile}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in COMMANDS:
        sys.exit(f"usage: {sys.argv[0]} {{{'|'.join(COMMANDS)}}}")
    sys.exit(COMMANDS[sys.argv[1]]())
