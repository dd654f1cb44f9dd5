"""Layered reachability benchmark: one workload per run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload batch-cut --seed 1 --seconds 10 --trace 0

Workloads: ``batch-cut`` and ``batch-search``, the library facade in
process.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from a separately traced run; the traced ``batch-cut`` run
also drives ``repro serve`` and ``repro shard-serve`` (spawned as their
CLI) on the same graph for the server and shard layers.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment.  A wrong
answer exits with code 1 after printing the result.
"""

from __future__ import annotations

import argparse
import signal
import sys
import traceback

WORKLOADS = ("batch-cut", "batch-search")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="a graph 50x smaller than the workload's (for tests)",
    )
    args = parser.parse_args(argv)

    import common

    common.import_repro()  # exits non-zero when the package is missing
    import batch
    import serving

    # A SIGTERM ends the run through the same clean-up as any other exit.
    # SIGINT gets its default handler back even when the caller ignores
    # it (a background job of a shell does), because the servers this
    # run spawns inherit an ignored SIGINT and are stopped with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    signal.signal(signal.SIGINT, signal.default_int_handler)
    common.adopt_orphans()
    paths_before = set(common.WORK.glob("*")) if common.WORK.exists() else set()
    try:
        result = batch.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.tiny
        )
        if args.trace and args.workload == "batch-cut":
            serving.add_server_layers(result, args.seed, args.seconds, args.tiny)
    except common.WrongAnswer:
        traceback.print_exc()
        print("perfbench: WRONG ANSWER", file=sys.stderr)
        return 1
    finally:
        killed = common.stop_children()
        if killed:
            print(f"perfbench: killed {killed} process(es) left running",
                  file=sys.stderr)
        for path in set(common.WORK.glob("*")) - paths_before:
            if path.suffix != ".jsonl":
                path.unlink()
    result.env = common.environment(result.env)
    result.env["stray_processes_killed"] = killed
    result.emit()
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
