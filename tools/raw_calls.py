"""Print two checkouts' raw engine-call medians beside their speed probe, per run.

``perfbench/run.py`` reports engine-call times scaled by a speed probe that
runs before every engine call, so a change that moves the probe's own time
moves every scaled metric with it.  This shows the unscaled numbers beside
the scaled ones.  It runs::

    python3 perfbench/worker.py --workload W --seed S --seconds 22 --trace 0

the measured worker that ``run.py`` starts for an untraced run (without its
set-up-only workers), in the order of ``tools/bench_pairs.py``: one warm-up
run per checkout on the first seed, parent first, then one pair per seed,
the parent first in even-indexed pairs, since whichever side runs second
reads slower.  It prints one line per run as it finishes::

    pair N  seed S  side  fd_raw_p50  mc_raw_p50  probe_p50  factor  fd_p50  mc_p50

the medians of the raw FD and MC call seconds and of the probe seconds over
every pass, the scale factor ``probe_ref_s / probe_p50`` and the scaled
call medians that ``run.py`` reports as ``fd_price_s_p50`` and
``mc_price_s_p50``.  Compare the pairs: the warm-up runs, labelled
``warm-up``, read fast and are only shown.  Usage::

    python tools/raw_calls.py PARENT CHANGE --workload local_vol --seeds 2711-2712

It only starts the worker; a worker that exits non-zero or prints no result
stops it, with the worker's standard error shown.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from bench_pairs import schedule, seed_range


def worker_run(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced measured worker run in ``checkout``: its JSON result."""
    cmd = [sys.executable, "perfbench/worker.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "22", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{' '.join(cmd)} in {checkout} failed (exit {proc.returncode}):\n"
                 f"{proc.stderr}")
    return json.loads(lines[-1])


def medians(result: dict) -> dict:
    """Raw and scaled call medians, the probe median and the scale factor."""
    passes = result["passes"]
    fd = statistics.median(t for p in passes for t in p["fd_s"])
    mc = statistics.median(t for p in passes for t in p["mc_s"])
    probe = statistics.median(t for p in passes for t in p["probe_s"])
    factor = result["probe_ref_s"] / probe
    return {"fd_raw_p50": fd, "mc_raw_p50": mc, "probe_p50": probe, "factor": factor,
            "fd_p50": fd * factor, "mc_p50": mc * factor}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="inclusive range FIRST-LAST, one pair per seed")
    args = parser.parse_args(argv)

    sides = {"parent": args.parent, "change": args.change}
    for label, side, seed in schedule(args.seeds):
        result = worker_run(sides[side], args.workload, seed)
        shown = " ".join(f"{k}={v:.4g}" for k, v in medians(result).items())
        print(f"{label} seed {seed} {side:<6} {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
