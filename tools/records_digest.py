"""Print the benchmark workloads' records, or a digest of them, to compare two checkouts.

For each workload this prints its name and record count, then every record
as ``tarnpricer.cli.emit`` writes it, with ``wall_time_s`` zeroed: its
sha256, or with ``--values`` the record's line itself.  The inputs are
fixed: table1, refine and local_vol at seed 7, passes 0-1, and sweep at
seeds 1-5, passes 0-3, each pass made by ``perfbench/workloads.py``.  Two
checkouts give the same records exactly when their outputs are equal::

    python tools/records_digest.py > a.txt   # in each checkout
    diff a.txt b.txt

Where records move on purpose, two ``--values`` outputs show by how much::

    python tools/records_digest.py --values > a.txt   # in each checkout
    python tools/records_digest.py --compare a.txt b.txt

The comparison prints, for each workload and then over all the records,
the largest relative move of each engine's number fields, and of any
other field that changed (``inf``, as for a value that appeared or
vanished), and whether the FD records are identical.  Each workload's
lines start with its name, so one that moves shows apart from those that
do not.

It imports ``tarnpricer`` from the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
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


def records(name: str) -> list[str]:
    """Each record line of the workload's fixed passes, in order."""
    seeds, passes = INPUTS[name]
    out = []
    for seed in seeds:
        for index in passes:
            for job in WORKLOADS[name].make_pass(seed, index, False):
                rows = [dataclasses.replace(r, wall_time_s=0.0) for r in cli.run(job.config)]
                out += cli.emit(rows, "records").splitlines()
    return out


def relative_move(a, b) -> float:
    """|b - a| / |a| for two numbers, 0 for equal values (two NaNs or two
    Nones included), inf for any other change."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if a == b or (numbers and math.isnan(a) and math.isnan(b)):
        return 0.0
    if not numbers or a == 0 or math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(b - a) / abs(a)


def moves(before: list[str], after: list[str]) -> tuple[dict, bool]:
    """The largest relative move per (engine, field) from the ``--values``
    lines ``before`` to ``after``, and whether their FD records are
    identical.  A text field is listed only where it moved.  Workload
    lines, and the record count, must be equal."""
    if len(before) != len(after):
        raise ValueError(f"{len(before)} lines against {len(after)}")
    largest, fd_identical = {}, True
    for a, b in zip(before, after):
        if not a.startswith("{") or not b.startswith("{"):
            if a != b:
                raise ValueError(f"workload line {a!r} against {b!r}")
            continue
        old, new = json.loads(a), json.loads(b)
        engine = old["engine"]
        if "fd" in (engine, new["engine"]):
            fd_identical &= a == b
        for field in old.keys() | new.keys():
            move = relative_move(old.get(field), new.get(field))
            if move or isinstance(old.get(field), float):  # text fields once they move
                largest[engine, field] = max(largest.get((engine, field), 0.0), move)
    return largest, fd_identical


def workload_moves(before: list[str], after: list[str]) -> dict[str, tuple[dict, bool]]:
    """:func:`moves` of each workload's block of ``--values`` lines, its
    header and the records under it, keyed by the workload's name."""
    moves(before, after)  # raises unless the headers stand at the same lines
    heads = [i for i, line in enumerate(before) if not line.startswith("{")]
    return {before[a].split()[0]: moves(before[a:b], after[a:b])
            for a, b in zip(heads, heads[1:] + [len(before)])}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--values", action="store_true",
                        help="print each record's line instead of its sha256")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two --values outputs instead")
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (Path(p).read_text().splitlines() for p in args.compare)
        results = workload_moves(before, after) | {"": moves(before, after)}
        for name, (largest, fd_identical) in results.items():
            prefix = f"{name} " if name else ""  # the pooled lines come last
            for (engine, field), move in sorted(largest.items()):
                print(f"{prefix}{engine} {field} {move:.3g}")
            print(f"{prefix}fd records identical: {'yes' if fd_identical else 'no'}")
        return
    for name in INPUTS:
        lines = records(name)
        print(f"{name} {len(lines)}", flush=True)
        for line in lines:
            print(line if args.values else hashlib.sha256(line.encode()).hexdigest())


if __name__ == "__main__":
    main()
