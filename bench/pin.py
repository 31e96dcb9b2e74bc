"""Pin the output digests of every workload at the default seed.

    python3 bench/pin.py

Run from the root of a source checkout.  Each workload runs once; when its
output passes every check, the sha256 of its trace CSV and of its
`[summary]`/`[compare]` block are written to pinned.json.  Only a
deliberate behaviour change re-pins, and it says so in CHANGES.md.
"""

import json
import os
import sys

from run import HERE, Run
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    pinned = {}
    for name in WORKLOADS:
        run = Run(os.getcwd(), name, DEFAULT_SEED, trace=False)
        run.expected = None  # the first run's output becomes the reference
        problems = run.workload_run()["problems"]
        if problems:
            print(f"{name}: not pinned: {problems}", file=sys.stderr)
            return 1
        pinned[name] = run.expected
        print(f"{name}: {run.expected}")
    with open(os.path.join(HERE, "pinned.json"), "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
