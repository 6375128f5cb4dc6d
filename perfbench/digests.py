"""Write a fresh digest list of every benchmark operation's output.

    python3 perfbench/digests.py --seed 1 > digests-before.txt
    (change the code)
    python3 perfbench/digests.py --seed 1 > digests-after.txt
    diff digests-before.txt digests-after.txt

Each line is ``<workload> <operation> <sha256 of its stdout>``, from one
round of the workload run by the current code, so a change can show that
every output stayed byte-identical without a stored copy going stale.  Exits
1 if an operation failed or an output failed its check.
"""

from __future__ import annotations

import argparse
import sys

import run
import workloads


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    args = ap.parse_args()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        res = run.run_workload(name, args.seed, 0, False, 0)
        for op in res["ops"]:
            print(f"{name} {op['name']} {op['digest'] or 'FAILED'}")
            if op["failed"]:
                status = 1
        for problem in res["problems"]:
            print(f"check failed: {name} {problem}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
