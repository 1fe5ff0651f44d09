"""Boot, measure and check one workload run (shared by both run modes)."""

from __future__ import annotations

import gc
import itertools
import statistics
import time

from harness import Cluster, SnapshotCluster, fsck
from workloads import OP_ERRORS, percentile

#: Fresh cluster set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def boot(workload_cls, seed: int):
    """Boot a cluster and populate it; returns (workload, seconds)."""
    start = time.perf_counter()
    workload = workload_cls()
    cluster = Cluster(workload.num_nodes)
    try:
        workload.setup(cluster, seed)
    except BaseException:
        cluster.close()
        raise
    return workload, time.perf_counter() - start


def measure(workload, ops, seconds: float, tracer=None) -> dict:
    """Closed loop over ``ops`` until ``seconds`` of wall time pass.

    A run that outlasts the generated sequence replays it from the start.
    """
    cluster = workload.cluster
    latencies = []
    failed = 0
    msgs_before = cluster.messages_sent()
    gc.collect()
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    for index, op in enumerate(itertools.cycle(ops)):
        if tracer is not None:
            tracer.begin_op(index)
        t0 = clock()
        try:
            ok = workload.execute(index, op)
        except OP_ERRORS as error:
            ok = False
            workload.errors.append((index, repr(error)))
        t1 = clock()
        if tracer is not None:
            tracer.end_op(index)
        if ok:
            latencies.append(t1 - t0)
        else:
            # A failed op misses any latency limit.
            latencies.append(float("inf"))
            failed += 1
        if t1 >= deadline:
            break
    elapsed = clock() - start
    return {
        "attempted": len(latencies),
        "failed": failed,
        "elapsed": elapsed,
        "latencies": latencies,
        "messages": cluster.messages_sent() - msgs_before,
    }


def end_to_end(workload, result: dict, setup_s: float) -> dict:
    # Failed ops sort last; a percentile that lands on one reads as the
    # whole run's length, a finite stand-in for "missed every limit".
    cap = result["elapsed"] * 1000.0
    lat_ms = sorted(min(x * 1000.0, cap) for x in result["latencies"])
    done = result["attempted"]
    return {
        "ops_per_s": (done - result["failed"]) / result["elapsed"],
        "p50_ms": percentile(lat_ms, 50),
        "tail_ms": percentile(lat_ms, workload.tail_percentile),
        "msgs_per_op": result["messages"] / done,
        "setup_s": setup_s,
    }


UNITS = {"ops_per_s": "1/s", "p50_ms": "ms", "tail_ms": "ms",
         "msgs_per_op": "count", "setup_s": "s"}


def post_checks(workload) -> list:
    """End-of-run checks, each with its negated twin.

    fsck must pass on the live cluster and fail on a snapshot with one
    home page removed; a re-read of a verified location must match, and
    must *not* match once its expected value is corrupted — proof the
    verifier is live.
    """
    problems = []
    cluster = workload.cluster
    report = cluster.fsck()
    if not report.ok:
        problems.append("fsck: " + report.render())
    broken = cluster.snapshots()
    if not break_snapshot(broken):
        problems.append("negated fsck: no home page to remove")
    elif fsck.check_cluster(SnapshotCluster(broken)).ok:
        problems.append("negated fsck: a snapshot missing a home page "
                        "passed")
    node, address, length = workload.probe_address()
    if not workload.verify_read(node, address, length):
        problems.append(f"final re-read of {address:#x} disagrees")
    workload.corrupt_expectation(address)
    if workload.verify_read(node, address, length):
        problems.append("negated verifier: a corrupted expectation "
                        "still matched")
    return problems


def break_snapshot(snapshots: list) -> bool:
    """Drop one allocated home page from a snapshot (fsck must notice)."""
    for snap in snapshots:
        pages = snap["storage"]["memory"]["pages"]
        for entry in snap["entries"]:
            if entry["allocated"] and entry["address"] in pages:
                del pages[entry["address"]]
                snap["storage"]["disk"]["pages"].pop(entry["address"], None)
                return True
    return False


def untraced_run(cls, ops, seed: int, seconds: float) -> dict:
    setups = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.cluster.close()
        workload, took = boot(cls, seed)
        setups.append(took)
    try:
        result = measure(workload, ops, seconds)
        if not workload.cluster.quiesce():
            workload.mismatches.append((-1, "background work never drained"))
        problems = [f"op {i}: {what}" for i, what in workload.mismatches]
        problems += post_checks(workload)
    finally:
        workload.cluster.close()
    metrics = end_to_end(workload, result, statistics.median(setups))
    report = [
        f"workload {cls.name}: {result['attempted']} ops in "
        f"{result['elapsed']:.2f} s, {result['failed']} failed; "
        f"tail_ms is p{cls.tail_percentile}; set-ups "
        + ", ".join(f"{s:.3f}" for s in setups) + " s",
    ]
    report += [f"  op {i} raised {error}" for i, error in workload.errors[:5]]
    report += [f"  {name:<12} {value:12.4f} {UNITS[name]}"
               for name, value in metrics.items()]
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": problems,
        "report": report,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }
