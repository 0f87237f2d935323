"""Print a digest of the benchmark workloads' records, to compare two checkouts.

For each workload this prints its name and record count, then the sha256 of
every record as ``tarnpricer.cli.emit`` writes it, with ``wall_time_s``
zeroed.  The inputs are fixed: table1, refine and local_vol at seed 7,
passes 0-1, and sweep at seeds 1-5, passes 0-3, each pass made by
``perfbench/workloads.py``.  Two checkouts give the same records exactly
when their outputs are equal::

    python tools/records_digest.py > a.txt   # in each checkout
    diff a.txt b.txt

It imports ``tarnpricer`` from the checkout's ``src``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from tarnpricer import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# workload -> (seeds, passes)
INPUTS = {
    "table1": ((7,), range(2)),
    "refine": ((7,), range(2)),
    "sweep": (range(1, 6), range(4)),
    "local_vol": ((7,), range(2)),
}


def digests(name: str) -> list[str]:
    """The sha256 of each record of the workload's fixed passes, in order."""
    seeds, passes = INPUTS[name]
    out = []
    for seed in seeds:
        for index in passes:
            for job in WORKLOADS[name].make_pass(seed, index, False):
                records = [dataclasses.replace(r, wall_time_s=0.0)
                           for r in cli.run(job.config)]
                out += [hashlib.sha256(line.encode()).hexdigest()
                        for line in cli.emit(records, "records").splitlines()]
    return out


def main() -> None:
    for name in INPUTS:
        lines = digests(name)
        print(f"{name} {len(lines)}", flush=True)
        for line in lines:
            print(line)


if __name__ == "__main__":
    main()
