"""Khazana benchmark: one workload against a loopback-TCP cluster.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hot_shared --seed 1 --seconds 10 --trace 0

The cluster runs in this one process: every daemon shares one asyncio
loop but owns its own ``TcpTransport``, so every inter-node message
crosses a real localhost socket.  The op sequence is generated from
``--seed`` before timing starts; the load is a closed loop with one op
outstanding.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(``ops_per_s``, ``p50_ms``, ``tail_ms``, ``msgs_per_op``, ``setup_s``);
with ``--trace 1`` it reports the per-layer metrics of a traced run of
the same ops (see ``tracer.py``).  The exit code is non-zero when any
correctness check fails.  Workload rationale and method: NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_program() -> None:
    """Put the checkout's ``src/`` on the path; fail fast without it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no Khazana sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, HERE)
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    ops = cls().generate(args.seed, int(cls.ops_per_second_cap
                                        * max(args.seconds, 1.0)) + 1000)
    if args.trace:
        from tracer import traced_run

        outcome = traced_run(cls, ops, args.seed, args.seconds)
    else:
        from runner import untraced_run

        outcome = untraced_run(cls, ops, args.seed, args.seconds)
    for line in outcome["report"]:
        print(line)
    for problem in outcome["problems"]:
        print("CHECK FAILED:", problem)
    correct = not outcome["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
