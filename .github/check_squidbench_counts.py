#!/usr/bin/env python3
"""Check squidbench's count metrics against their committed values.

    python3 squidbench/run.py --workload W --seed 1 --seconds 1 --trace 0 \\
        | tail -n 1 | python3 .github/check_squidbench_counts.py W

Reads squidbench's JSON result line on stdin and compares the seven count
metrics of workload W exactly against .github/squidbench_counts.json, which
holds them for --seed 1 --seconds 1. For a fixed seed and run length the
counts repeat bit for bit, so any difference is a real change in the
messages, bytes or hops the protocol spends: the script prints it and exits
1. A change that moves the counts on purpose edits the JSON file and says so
in its description.
"""

import json
import os
import sys

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "squidbench_counts.json")
METRICS = ("msgs_per_query", "bytes_per_query", "hops_p50", "hops_p99",
           "msgs_per_update", "bytes_per_update", "hops_per_update")


def main():
    workload = sys.argv[1]
    with open(EXPECTED) as handle:
        want = json.load(handle).get(workload)
    if want is None:
        print(f"BAD  {workload}: no committed counts")
        return 1
    result = json.loads(sys.stdin.read())
    drift = [name for name in METRICS
             if result["metrics"][name]["value"] != want[name]]
    for name in drift:
        print(f"BAD  {workload} {name}: expected {want[name]!r}, "
              f"got {result['metrics'][name]['value']!r}")
    if not drift:
        print(f"ok   {workload}: {len(METRICS)} count metrics exact")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
