"""Address-map scaling benchmarks: tree shape and cost per operation.

The address map is a B-tree of fixed-size pages (``core/address_map``).
This suite measures how its per-operation cost grows with the number
of reserved regions:

- **scaling** — over an in-memory :class:`~repro.core.address_map.MapIO`
  that counts every page access, a fresh tree is filled with ``n``
  back-to-back reservations carved from one delegated chunk (how a
  node's space pool hands them out), for ``n`` = 10^2, 10^3, 10^4 and,
  in full mode, 5 x 10^4 (the largest power-of-ten multiple whose
  half-full leaves fit the system region's 4096 tree pages; 10^5
  sequential regions would need ~6,700).  Then a window of further
  reserves, lookups of sampled regions and releases of sampled
  regions is measured: tree depth, READ/WRITE page locks, page writes
  and page reads per operation, plus wall-clock rates;
- **sim_reserve** — messages per ``reserve`` on a simulated 3-node
  cluster whose client already holds 10^3 regions;
- **sim_churn** — on the same cluster, messages, map page writes and
  home write-throughs per reserve+unreserve cycle (each unreserve's
  queued map release rides on the next reserve's leaf write).

Page-access, message and write counts are deterministic, so ``--check``
compares them exactly against the committed ``BENCH_addressmap.json``.
Wall-clock rates are normalized by the calibration loop shared with
``repro.bench.hotpath``, timed beside each run of a window (so a slow
phase of the host slows both), and may drop to ``OPS_TOLERANCE`` of
the baseline.  CI runs ``--quick --check`` (the ``addressmap-smoke`` job);
see docs/performance.md, "Reading BENCH_addressmap.json".
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import create_cluster
from repro.bench.hotpath import OPS_TOLERANCE, _calibrate
from repro.core.address_map import (
    ROOT_PAGE,
    SYSTEM_REGION,
    AddressMap,
    EntryState,
    MapIO,
    MapNode,
    ProtocolGen,
    initial_root_node,
)
from repro.core.addressing import DEFAULT_PAGE_SIZE, AddressRange
from repro.core.daemon import DaemonConfig
from repro.core.locks import LockMode

#: Region counts of the scaling curve: (full, quick).
SIZES = ((100, 1_000, 10_000, 50_000), (100, 1_000, 10_000))
#: Operations of each kind measured at every size, and how many
#: times each window is timed (its median rate is reported).
WINDOW = 256
REPEATS = 5
#: Simulated cluster: regions held before, and reserves (or
#: reserve+unreserve cycles) measured.
SIM_REGIONS = 1_000
SIM_RESERVES = 100
SIM_CYCLES = 100

#: Deterministic fields of a scaling row, compared exactly.
COUNT_KEYS = (
    "depth", "tree_pages",
    "reserve_read_locks", "reserve_write_locks", "reserve_page_writes",
    "lookup_page_reads",
    "release_write_locks", "release_page_writes",
)
#: Deterministic fields of the sim rows, compared exactly.
SIM_KEYS = {
    "sim_reserve": ("msgs_per_reserve",),
    "sim_churn": ("msgs_per_cycle", "page_writes_per_cycle",
                  "write_throughs_per_cycle"),
}
#: Wall-clock fields, compared after calibration normalization.
RATE_KEYS = ("reserves_per_sec", "lookups_per_sec", "releases_per_sec")


class CountingMapIO(MapIO):
    """Map pages in a dict, counting every lock, read and write."""

    def __init__(self) -> None:
        self.page_size = DEFAULT_PAGE_SIZE
        self.pages = {ROOT_PAGE: initial_root_node().encode(self.page_size)}
        self.counts: Counter = Counter()

    def lock_page(self, page_addr: int, mode: LockMode) -> ProtocolGen:
        self.counts[f"{mode.value}_locks"] += 1
        return page_addr
        yield  # pragma: no cover - a generator that never blocks

    def read_page(self, ctx: Any, page_addr: int) -> ProtocolGen:
        self.counts["page_reads"] += 1
        return self.pages.get(page_addr, b"")
        yield  # pragma: no cover

    def write_page(self, ctx: Any, page_addr: int, data: bytes) -> ProtocolGen:
        self.counts["page_writes"] += 1
        self.pages[page_addr] = data
        return None
        yield  # pragma: no cover

    def unlock_page(self, ctx: Any) -> ProtocolGen:
        return None
        yield  # pragma: no cover


def _drive(gen: ProtocolGen) -> Any:
    """Run a map operation over :class:`CountingMapIO` to completion
    (it never yields a Future)."""
    try:
        step = next(gen)
    except StopIteration as stop:
        return stop.value
    raise RuntimeError(f"in-memory map operation blocked on {step!r}")


def _depth(pages: Dict[int, bytes], page_addr: int = ROOT_PAGE) -> int:
    """Levels from the root to the leaves, down the leftmost path."""
    node = MapNode.decode(pages[page_addr])
    first = node.entries[0]
    if first.state is EntryState.SUBTREE:
        return 1 + _depth(pages, first.child_page)
    return 1


def _window(io: CountingMapIO, ops: Callable[[], List[ProtocolGen]],
            prefix: str, keys: Tuple[str, ...],
            calibrations: List[float]) -> Dict[str, float]:
    """Run the window ``ops()`` builds; per-op deltas of the counters
    named in ``keys`` as ``<prefix>_<key>``, plus ``<prefix>s_per_sec``,
    the median rate over ``REPEATS`` runs of the window, each from the
    same starting tree.  A calibration taken just before each run is
    appended to ``calibrations``, so slow phases of the host show up
    in both."""
    pages, counts = dict(io.pages), Counter(io.counts)
    rates = []
    for _ in range(REPEATS):
        io.pages, io.counts = dict(pages), Counter(counts)
        calibrations.append(_calibrate())
        window = ops()
        start = time.perf_counter()
        for op in window:
            _drive(op)
        elapsed = time.perf_counter() - start
        rates.append(len(window) / elapsed if elapsed else 0.0)
    row = {
        f"{prefix}_{key}": round((io.counts[key] - counts[key])
                                 / len(window), 3)
        for key in keys
    }
    row[f"{prefix}s_per_sec"] = round(statistics.median(rates), 1)
    return row


def bench_size(regions: int) -> Dict[str, Any]:
    """Fill a fresh tree with ``regions`` reservations, then measure a
    window each of reserves, lookups and releases."""
    io = CountingMapIO()
    amap = AddressMap(io)
    base = SYSTEM_REGION.end
    page = DEFAULT_PAGE_SIZE
    _drive(amap.delegate(AddressRange(base, (regions + WINDOW) * page), 1))
    for i in range(regions):
        _drive(amap.reserve(AddressRange(base + i * page, page), (1,)))
    row: Dict[str, Any] = {"regions": regions}
    calibrations: List[float] = []
    row.update(_window(io, lambda: [
        amap.reserve(AddressRange(base + i * page, page), (1,))
        for i in range(regions, regions + WINDOW)
    ], "reserve", ("read_locks", "write_locks", "page_writes"),
        calibrations))
    row["depth"] = _depth(io.pages)
    row["tree_pages"] = len(io.pages)
    sample = [(j * regions) // min(WINDOW, regions)
              for j in range(min(WINDOW, regions))]
    row.update(_window(io, lambda: [
        amap.lookup(base + i * page) for i in sample
    ], "lookup", ("page_reads",), calibrations))
    row.update(_window(io, lambda: [
        amap.release(AddressRange(base + i * page, page)) for i in sample
    ], "release", ("write_locks", "page_writes"), calibrations))
    row["calibration_ops_per_sec"] = round(
        statistics.median(calibrations), 1
    )
    return row


def _sim_cluster() -> Tuple[Any, Any]:
    """A 3-node simulated cluster and a session on node 1 that already
    holds ``SIM_REGIONS`` one-page regions."""
    cluster = create_cluster(
        num_nodes=3, topology="lan",
        config=DaemonConfig(enable_failure_handling=False),
    )
    session = cluster.client(node=1)
    for _ in range(SIM_REGIONS):
        session.reserve(DEFAULT_PAGE_SIZE)
    return cluster, session


def bench_sim_reserve() -> Dict[str, Any]:
    """Messages per reserve once the client holds ``SIM_REGIONS``."""
    cluster, session = _sim_cluster()
    before = cluster.stats.messages_sent
    for _ in range(SIM_RESERVES):
        session.reserve(DEFAULT_PAGE_SIZE)
    sent = cluster.stats.messages_sent - before
    return {
        "regions": SIM_REGIONS,
        "reserves": SIM_RESERVES,
        "msgs_per_reserve": round(sent / SIM_RESERVES, 3),
    }


def bench_sim_churn() -> Dict[str, Any]:
    """Per reserve+unreserve cycle once the client holds
    ``SIM_REGIONS``: messages, map page writes (the cycle writes no
    data pages) and write-throughs at the map's home.  The run ends a
    housekeeping period past the last cycle, so its release lands."""
    cluster, session = _sim_cluster()
    daemons = [cluster.daemon(node) for node in cluster.node_ids()]

    def totals() -> Tuple[int, int, int]:
        return (
            cluster.stats.messages_sent,
            sum(d.stats.ops.get("write", 0) for d in daemons),
            sum(d.storage.stats.write_throughs for d in daemons),
        )

    before = totals()
    for _ in range(SIM_CYCLES):
        desc = session.reserve(DEFAULT_PAGE_SIZE)
        session.unreserve(desc.rid)
    cluster.run(daemons[0].config.housekeeping_period + 1.0)
    sent, writes, write_throughs = (
        (after - start) / SIM_CYCLES
        for after, start in zip(totals(), before)
    )
    return {
        "regions": SIM_REGIONS,
        "cycles": SIM_CYCLES,
        "msgs_per_cycle": round(sent, 3),
        "page_writes_per_cycle": round(writes, 3),
        "write_throughs_per_cycle": round(write_throughs, 3),
    }


def run_suite(quick: bool = False) -> Dict[str, Any]:
    """Run the suite; returns the BENCH_addressmap.json document."""
    return {
        "suite": "addressmap",
        "quick": quick,
        "benchmarks": {
            "scaling": {str(n): bench_size(n) for n in SIZES[quick]},
            "sim_reserve": bench_sim_reserve(),
            "sim_churn": bench_sim_churn(),
        },
    }


def check_regressions(baseline: Dict[str, Any],
                      measured: Dict[str, Any]) -> List[str]:
    """Failures of ``measured`` against the committed ``baseline``."""
    failures: List[str] = []
    base = baseline.get("benchmarks", {})
    got = measured.get("benchmarks", {})
    base_rows = base.get("scaling", {})
    for size, row in got.get("scaling", {}).items():
        base_row = base_rows.get(size)
        if base_row is None:
            continue
        for key in COUNT_KEYS:
            if row[key] != base_row[key]:
                failures.append(
                    f"scaling[{size}]: {key} {row[key]} != baseline "
                    f"{base_row[key]}"
                )
        for key in RATE_KEYS:
            base_norm = base_row[key] / base_row["calibration_ops_per_sec"]
            got_norm = row[key] / row["calibration_ops_per_sec"]
            if base_norm > 0 and got_norm < base_norm * OPS_TOLERANCE:
                failures.append(
                    f"scaling[{size}]: normalized {key} {got_norm:.4f} "
                    f"fell below {OPS_TOLERANCE:.0%} of baseline "
                    f"{base_norm:.4f}"
                )
    for name, keys in SIM_KEYS.items():
        sim_base, sim_got = base.get(name), got.get(name)
        if not (sim_base and sim_got):
            continue
        for key in keys:
            if sim_got[key] != sim_base[key]:
                failures.append(
                    f"{name}: {key} {sim_got[key]} != baseline "
                    f"{sim_base[key]}"
                )
    return failures


def render(doc: Dict[str, Any]) -> str:
    lines = [f"addressmap suite (quick={doc['quick']})"]
    for size, row in doc["benchmarks"]["scaling"].items():
        body = ", ".join(f"{k}={v}" for k, v in row.items()
                         if k != "regions")
        lines.append(f"  scaling[{size}]: {body}")
    for name in SIM_KEYS:
        lines.append(f"  {name}: " + ", ".join(
            f"{k}={v}" for k, v in doc["benchmarks"][name].items()
        ))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Khazana address-map scaling benchmarks"
    )
    parser.add_argument("--quick", action="store_true",
                        help="sizes up to 10^4 regions (CI smoke mode)")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write results JSON to PATH")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="fail (exit 1) on regression vs BASELINE json")
    args = parser.parse_args(argv)

    baseline = None
    if args.check:
        with open(args.check, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)

    doc = run_suite(quick=args.quick)
    print(render(doc))

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.abspath(args.output)}")

    if baseline is not None:
        failures = check_regressions(baseline, doc)
        if failures:
            print("REGRESSIONS vs baseline:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print("no regressions vs baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
